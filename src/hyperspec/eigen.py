"""H-eigenpair verification, spectral radii, structural eigenpairs, and degree bounds.

``newton_polish`` is the one Newton solver of the eigen-system on a vertex
support; the per-component radius pairs here and the analytic-connectivity
minimizers in ``connectivity`` are both refined by it.

An H-eigenpair of an order-k tensor T is a pair (lambda, x != 0) with
T x^{k-1} = lambda * x^{[k-1]} componentwise.  Eigenvectors here are
normalized to sup-norm 1 with the largest-magnitude entry positive, and
classified by sign structure: H++ (all entries positive), strict H+
(nonnegative with at least one zero), or plain H (some entry negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph, components, degree_stats
from .tensor_ops import TensorKind, adjacency_jacobian, apply, as_vector

# entries within this of zero (after sup-norm scaling) count as zero; entries
# below its negation count as negative
POS_THRESHOLD = 1e-9

# default residual tolerance for accepting a pair as an eigenpair
VERIFY_TOL = 1e-8

# relative slack for the degree-bound checks
BOUND_SLACK = 1e-9


class Classification(Enum):
    NOT_EIGENPAIR = "not_eigenpair"
    H = "H"
    H_PLUS_STRICT = "H+_strict"
    H_PLUS_PLUS = "H++"


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float
    classification: Classification


@dataclass(frozen=True)
class PowerOptions:
    """Knobs for the shifted higher-order power iteration."""

    tol: float = 1e-10
    max_iter: int = 100_000
    shift: float | None = None  # default: max degree + 1
    start: np.ndarray | None = None  # positive start vector, full length


@dataclass(frozen=True)
class ComponentRadius:
    vertices: tuple[int, ...]
    value: float
    vector: np.ndarray  # full length, zero off the component, sup-norm 1
    bracket: tuple[float, float]
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SpectralRadiusResult:
    value: float
    vector: np.ndarray  # witness from the component attaining the maximum
    components: tuple[ComponentRadius, ...]
    converged: bool


def normalize_eigenvector(x: np.ndarray) -> np.ndarray:
    """Scale to sup-norm 1 and flip sign so the largest-magnitude entry is positive."""
    norm = np.abs(x).max()
    if norm == 0.0:
        raise ValueError("eigenvector must be nonzero")
    v = x / norm
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v


def verify_eigenpair(
    kind: TensorKind,
    h: Hypergraph,
    value: float,
    x: np.ndarray,
    tol: float = VERIFY_TOL,
) -> EigenPair:
    """Check T x^{k-1} = value * x^{[k-1]} and classify the pair by sign structure."""
    if not math.isfinite(value):
        raise ValueError(f"eigenvalue must be finite, got {value!r}")
    v = normalize_eigenvector(as_vector(h, x))
    residual = float(np.abs(apply(kind, h, v) - value * v ** (h.k - 1)).max())
    if residual > tol:
        cls = Classification.NOT_EIGENPAIR
    elif np.any(v < -POS_THRESHOLD):
        cls = Classification.H
    elif np.any(np.abs(v) <= POS_THRESHOLD):
        cls = Classification.H_PLUS_STRICT
    else:
        cls = Classification.H_PLUS_PLUS
    return EigenPair(value=float(value), vector=v, residual=residual, classification=cls)


def _restrict(h: Hypergraph, vertices: tuple[int, ...]) -> Hypergraph:
    """Sub-hypergraph induced by one connected component (``h`` itself for all of it)."""
    if len(vertices) == h.n:  # components are sorted, so this is range(n)
        return h
    remap = {v: i for i, v in enumerate(vertices)}
    vset = set(vertices)
    edges = [tuple(remap[v] for v in e) for e in h.edges if set(e) <= vset]
    return Hypergraph.from_edges(h.k, len(vertices), edges)


def _power_iterate(
    kind: TensorKind,
    h: Hypergraph,
    tol: float,
    max_iter: int,
    shift: float | None,
    start: np.ndarray | None,
) -> tuple[float, np.ndarray, tuple[float, float], int, bool]:
    """Shifted power iteration with a min/max ratio bracket around the radius.

    The diagonal shift sigma makes the iteration map strictly positive, so for
    a connected graph the ratio bracket [min_i, max_i] of
    (T x^{k-1} + sigma x^{[k-1]})_i / x_i^{k-1} encloses rho(T) + sigma at
    every positive x and tightens to it.
    """
    k = h.k
    sigma = float(shift) if shift is not None else float(max(h.degrees) + 1)
    if sigma <= 0:
        raise ValueError(f"shift must be positive, got {sigma}")
    if start is None:
        x = np.ones(h.n)
    else:
        x = as_vector(h, start).copy()
        if np.any(x <= 0):
            raise ValueError("start vector must be strictly positive")
        x /= x.max()
    floor = (1e-300) ** (1.0 / (k - 1))  # keeps x^{k-1} above underflow
    lo = hi = 0.0
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        a = apply(kind, h, x)
        xkm1 = x ** (k - 1)
        ratios = a / xkm1 + sigma
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= tol:
            converged = True
            break
        y = a + sigma * xkm1
        x = y ** (1.0 / (k - 1))
        x /= x.max()
        np.maximum(x, floor, out=x)
    value = 0.5 * (lo + hi) - sigma
    return value, x, (lo - sigma, hi - sigma), it, converged


def spectral_radius(
    kind: TensorKind,
    h: Hypergraph,
    opts: PowerOptions | None = None,
) -> SpectralRadiusResult:
    """Largest H-eigenvalue of A or Q, computed per connected component.

    The radius of the whole graph is the maximum over components; each
    component carries a positive witness vector.  The Laplacian is rejected
    because its largest H-eigenvalue is not an iteration fixed point here.
    """
    if kind is TensorKind.LAPLACIAN:
        raise ValueError("spectral_radius supports only the adjacency and signless Laplacian tensors")
    opts = opts or PowerOptions()
    comps = components(h)
    results: list[ComponentRadius] = []
    for comp in comps:
        sub = _restrict(h, comp)
        sub_start = None
        if opts.start is not None:
            sub_start = as_vector(h, opts.start)[list(comp)]
        value, xs, bracket, iters, conv = _power_iterate(
            kind, sub, opts.tol, opts.max_iter, opts.shift, sub_start
        )
        full = np.zeros(h.n)
        full[list(comp)] = xs
        results.append(
            ComponentRadius(
                vertices=comp,
                value=value,
                vector=full,
                bracket=bracket,
                iterations=iters,
                converged=conv,
            )
        )
    best = max(results, key=lambda r: r.value)
    return SpectralRadiusResult(
        value=best.value,
        vector=best.vector,
        components=tuple(results),
        converged=all(r.converged for r in results),
    )


def newton_polish(
    kind: TensorKind,
    h: Hypergraph,
    lam: float,
    x: np.ndarray,
    support: Sequence[int] | np.ndarray,
) -> tuple[float, np.ndarray] | None:
    """Newton refinement of T x^{k-1} = lam x^{[k-1]} on a vertex support.

    The unknowns are (x_S, lam) with S = ``support``; x is held at 0 off S.
    The equations are the eigen-equations of the vertices in S bordered by
    sum x_i^k = 1, so the Jacobian is square and, at a simple eigenvalue of
    the principal block on S, nonsingular.  This is the system of both a
    component's radius pair (S the component) and an alpha slice minimizer
    (S its support, lam its form value).  The start is scaled onto the
    border row first.  A coordinate that a step takes to 0 or below is set
    to 0 and leaves S.  Stops after 20 steps, or once the largest equation
    defect is below 1e-14 or no smaller than at the previous step on the same
    support, and returns that iterate scaled to sum x^k = 1.  Returns None
    when a solve fails, the iterate stops being finite, or S empties.  The
    caller decides whether the result improves on its input.
    """
    k = h.k
    supp = np.asarray(support, dtype=np.int64)
    if supp.size == 0:
        return None
    start = as_vector(h, x)
    x = np.zeros(h.n)
    x[supp] = start[supp]
    x /= (x ** k).sum() ** (1.0 / k)
    # d(T x^{k-1})_i/dx_i: d(i) (k-1) x_i^{k-2} for L and Q, nothing for A
    d = np.zeros(h.n) if kind is TensorKind.ADJACENCY else h.degree_vector
    last = math.inf
    for _ in range(20):
        xkm1 = x[supp] ** (k - 1)
        F = np.append(apply(kind, h, x)[supp] - lam * xkm1, (x ** k).sum() - 1.0)
        size = float(np.abs(F).max())
        # no longer falling: the defect is at its rounding floor
        if size < 1e-14 or size >= last:
            break
        last = size
        JA = adjacency_jacobian(h, x)[np.ix_(supp, supp)]
        J = np.zeros((supp.size + 1, supp.size + 1))
        J[:-1, :-1] = np.diag((d[supp] - lam) * ((k - 1) * x[supp] ** (k - 2)))
        J[:-1, :-1] += -JA if kind is TensorKind.LAPLACIAN else JA
        J[:-1, -1] = -xkm1
        J[-1, :-1] = k * xkm1
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        x[supp] += delta[:-1]
        lam += float(delta[-1])
        if not (np.all(np.isfinite(x)) and math.isfinite(lam)):
            return None
        # a coordinate the step pushes out of the cone leaves the support
        out = x[supp] <= 0.0
        if out.all():
            return None
        if out.any():
            x[supp[out]] = 0.0
            supp = supp[~out]
            last = math.inf
    norm = float((x ** k).sum())
    if not math.isfinite(norm) or norm <= 0:
        return None
    return lam, x / norm ** (1.0 / k)


def structural_eigenpairs(
    kind: TensorKind,
    h: Hypergraph,
    opts: PowerOptions | None = None,
    radius: SpectralRadiusResult | None = None,
) -> tuple[EigenPair, ...]:
    """Eigenpairs that exist by construction for k >= 3.

    Laplacian: (d(j), indicator of j) for every vertex plus (0, all-ones).
    Signless Laplacian: (d(j), indicator of j) for every vertex plus each
    component's spectral radius with its positive witness.  Adjacency:
    (0, indicator of vertex 0) plus each component's spectral radius.
    Single-vertex indicators are eigenvectors only because a support of
    size 1 cannot cover the k-1 >= 2 off-positions of any edge.

    ``radius``, when given, is ``spectral_radius(kind, h, opts)`` already
    computed by the caller; it is reused instead of being computed again.
    """
    if h.k < 3:
        raise ValueError(f"structural eigenpairs need k >= 3, got k={h.k}")
    pairs: list[tuple[float, np.ndarray]] = []
    radius_pairs: tuple[EigenPair, ...] = ()
    if kind is TensorKind.LAPLACIAN:
        for j in range(h.n):
            e_j = np.zeros(h.n)
            e_j[j] = 1.0
            pairs.append((float(h.degrees[j]), e_j))
        pairs.append((0.0, np.ones(h.n)))
    elif kind is TensorKind.SIGNLESS_LAPLACIAN:
        for j in range(h.n):
            e_j = np.zeros(h.n)
            e_j[j] = 1.0
            pairs.append((float(h.degrees[j]), e_j))
        radius_pairs = _polished_component_radii(kind, h, opts, radius)
    else:
        e_0 = np.zeros(h.n)
        e_0[0] = 1.0
        pairs.append((0.0, e_0))
        radius_pairs = _polished_component_radii(kind, h, opts, radius)
    return tuple(verify_eigenpair(kind, h, lam, x) for lam, x in pairs) + radius_pairs


def _polished_component_radii(
    kind: TensorKind,
    h: Hypergraph,
    opts: PowerOptions | None,
    radius: SpectralRadiusResult | None,
) -> tuple[EigenPair, ...]:
    """Verified per-component radius pairs, Newton-polished where that helps.

    Each component's pair is polished on the full graph with the component
    as its support, and the polished pair replaces the power iteration's
    only when its residual is smaller.
    """
    out: list[EigenPair] = []
    sr = radius if radius is not None else spectral_radius(kind, h, opts)
    for comp in sr.components:
        pair = verify_eigenpair(kind, h, comp.value, comp.vector)
        polished = newton_polish(kind, h, comp.value, comp.vector, comp.vertices)
        if polished is not None:
            better = verify_eigenpair(kind, h, *polished)
            if better.residual < pair.residual:
                pair = better
        out.append(pair)
    return tuple(out)


def minimal_binary_eigenvectors(h: Hypergraph) -> tuple[np.ndarray, ...]:
    """The support-minimal 0/1 Laplacian eigenvectors for eigenvalue 0.

    These are exactly the component indicators; any linear combination of
    them is again an eigenvector for 0.
    """
    out = []
    for comp in components(h):
        v = np.zeros(h.n)
        v[list(comp)] = 1.0
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class BoundCheck:
    bound_id: str
    lhs: float
    rhs: float
    tolerance: float
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    checks: tuple[BoundCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def make_check(bound_id: str, lhs: float, rhs: float, note: str = "") -> BoundCheck:
    tol = BOUND_SLACK * (1.0 + abs(rhs))
    return BoundCheck(
        bound_id=bound_id,
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=tol,
        holds=bool(lhs <= rhs + tol),
        note=note,
    )


def bound_report(
    h: Hypergraph,
    lambda1: float | None = None,
    nu1: float | None = None,
) -> BoundReport:
    """Degree bounds on the adjacency radius lambda1 and signless radius nu1.

    lambda1 lies in [average degree, max degree]; nu1 lies in
    [max(max degree, 2 * average degree), 2 * max degree], dominates lambda1,
    and sits within max degree of it (Gershgorin band).
    """
    dmax, _, davg = degree_stats(h)
    davg_f = float(davg)
    checks: list[BoundCheck] = []
    if lambda1 is not None:
        checks.append(make_check("adjacency_radius_lower", davg_f, lambda1))
        checks.append(make_check("adjacency_radius_upper", lambda1, float(dmax)))
    if nu1 is not None:
        checks.append(make_check("signless_radius_lower", max(float(dmax), 2 * davg_f), nu1))
        checks.append(make_check("signless_radius_upper", nu1, 2.0 * dmax))
        checks.append(make_check("signless_gershgorin_band", abs(nu1 - dmax), float(dmax)))
    if lambda1 is not None and nu1 is not None:
        checks.append(make_check("signless_dominates_adjacency", lambda1, nu1))
    return BoundReport(checks=tuple(checks))


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    HAS_ZERO_EIGENVALUE = "has_zero_eigenvalue"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DefinitenessResult:
    status: Definiteness
    witness: np.ndarray | None  # a +-1 vector with Q x^{k-1} = 0 when found


def q_definiteness_probe(h: Hypergraph, max_exhaustive_n: int = 24) -> DefinitenessResult:
    """Decide whether the signless Laplacian (even k) has a zero H-eigenvalue.

    For even k the form is a sum of d(i) x_i^k plus k times the edge
    products, so Q is positive semidefinite and singularity requires every
    edge to cancel its degree term exactly.  That happens iff k = 4j + 2 and
    some +-1 assignment makes every edge carry exactly k/2 entries of each
    sign; for k divisible by 4 no assignment works, so Q is positive
    definite.  The sign search is exhaustive up to ``max_exhaustive_n``
    vertices (the global flip symmetry pins vertex 0 to +1).
    """
    if h.k % 2 != 0:
        raise ValueError(f"definiteness probe needs even k, got k={h.k}")
    if h.k % 4 == 0:
        return DefinitenessResult(Definiteness.POSITIVE_DEFINITE, None)
    if h.n > max_exhaustive_n:
        return DefinitenessResult(Definiteness.INCONCLUSIVE, None)
    half = h.k // 2
    edges_of: list[list[int]] = [[] for _ in range(h.n)]
    for ei, e in enumerate(h.edges):
        for v in e:
            edges_of[v].append(ei)
    pos = [0] * h.m
    neg = [0] * h.m
    sign = [0] * h.n

    def assign(v: int, s: int) -> bool:
        sign[v] = s
        ok = True
        for ei in edges_of[v]:
            if s > 0:
                pos[ei] += 1
                if pos[ei] > half:
                    ok = False
            else:
                neg[ei] += 1
                if neg[ei] > half:
                    ok = False
        return ok

    def undo(v: int) -> None:
        s = sign[v]
        for ei in edges_of[v]:
            if s > 0:
                pos[ei] -= 1
            else:
                neg[ei] -= 1
        sign[v] = 0

    def dfs(v: int) -> bool:
        if v == h.n:
            return True  # counts never exceeded half, so every edge is balanced
        for s in (1, -1):
            if assign(v, s) and dfs(v + 1):
                return True
            undo(v)
        return False

    if assign(0, 1) and dfs(1):
        return DefinitenessResult(
            Definiteness.HAS_ZERO_EIGENVALUE, np.array(sign, dtype=float)
        )
    return DefinitenessResult(Definiteness.POSITIVE_DEFINITE, None)
