"""H-eigenpair verification, spectral radii, structural eigenpairs, and degree bounds.

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


def _eigen_system_jacobian(
    kind: TensorKind, h: Hypergraph, lam: float, x: np.ndarray, pivot: int
) -> np.ndarray:
    """Jacobian of F(x, lam) = T x^{k-1} - lam x^{[k-1]} with x[pivot] held fixed."""
    k = h.k
    n = h.n
    JA = adjacency_jacobian(h, x)
    diag = (k - 1) * x ** (k - 2)
    d = h.degree_vector
    if kind is TensorKind.ADJACENCY:
        JT = JA
    elif kind is TensorKind.LAPLACIAN:
        JT = -JA + np.diag(d * diag)
    else:
        JT = JA + np.diag(d * diag)
    JF = JT - lam * np.diag(diag)
    cols = [JF[:, l] for l in range(n) if l != pivot]
    cols.append(-(x ** (k - 1)))
    return np.stack(cols, axis=1)


def _newton_polish(
    kind: TensorKind, h: Hypergraph, lam: float, x: np.ndarray, steps: int = 5
) -> tuple[float, np.ndarray]:
    """Tighten an approximate eigenpair by Newton steps; keep only improvements."""
    k = h.k
    pivot = int(np.argmax(np.abs(x)))
    free = [l for l in range(h.n) if l != pivot]

    def residual(lam_, x_):
        return float(np.abs(apply(kind, h, x_) - lam_ * x_ ** (k - 1)).max())

    best_lam, best_x, best_r = lam, x.copy(), residual(lam, x)
    cur_lam, cur_x = lam, x.copy()
    for _ in range(steps):
        F = apply(kind, h, cur_x) - cur_lam * cur_x ** (k - 1)
        J = _eigen_system_jacobian(kind, h, cur_lam, cur_x, pivot)
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            break
        cur_x = cur_x.copy()
        cur_x[free] += delta[:-1]
        cur_lam += float(delta[-1])
        r = residual(cur_lam, cur_x)
        if r < best_r:
            best_lam, best_x, best_r = cur_lam, cur_x.copy(), r
        else:
            break
    return best_lam, best_x


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
        pairs.extend(_polished_component_radii(kind, h, opts, radius))
    else:
        e_0 = np.zeros(h.n)
        e_0[0] = 1.0
        pairs.append((0.0, e_0))
        pairs.extend(_polished_component_radii(kind, h, opts, radius))
    return tuple(verify_eigenpair(kind, h, lam, x) for lam, x in pairs)


def _polished_component_radii(
    kind: TensorKind,
    h: Hypergraph,
    opts: PowerOptions | None,
    radius: SpectralRadiusResult | None,
) -> list[tuple[float, np.ndarray]]:
    """Per-component radius pairs, Newton-polished inside each component.

    Polishing must happen on the component subgraph: embedded in the full
    graph the off-component zeros make the Jacobian singular, and the
    polish would stall at the power iteration's residual.
    """
    out: list[tuple[float, np.ndarray]] = []
    sr = radius if radius is not None else spectral_radius(kind, h, opts)
    for comp in sr.components:
        sub = _restrict(h, comp.vertices)
        xs = np.asarray(comp.vector)[list(comp.vertices)]
        lam, xs = _newton_polish(kind, sub, comp.value, xs)
        full = np.zeros(h.n)
        full[list(comp.vertices)] = xs
        out.append((lam, full))
    return out


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
