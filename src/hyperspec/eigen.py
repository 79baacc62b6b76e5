"""H-eigenpair verification, spectral radii, structural eigenpairs, and degree bounds.

``perron_rows`` is the one Perron-root kernel: a row is G less one vertex
(or none), and each of its components is a segment, the block A + diag(c)
on it, nonnegative after a diagonal shift.  So the per-component radii
here and the per-pin slice minima of the analytic connectivity in
``connectivity`` run through the same shifted power iteration and the same
Newton finish, ``newton_polish``, applied once per segment.

An H-eigenpair of an order-k tensor T is a pair (lambda, x != 0) with
T x^{k-1} = lambda * x^{[k-1]} componentwise.  Eigenvectors here are
normalized to sup-norm 1 with the largest-magnitude entry positive, and
classified by sign structure: H++ (all entries positive), strict H+
(nonnegative with at least one zero), or plain H (some entry negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .hypergraph import Hypergraph, component_labels, degree_stats, induced, label_groups
from .tensor_ops import TensorKind, adjacency_jacobian, apply, as_vector

# entries within this of zero (after sup-norm scaling) count as zero; entries
# below its negation count as negative
POS_THRESHOLD = 1e-9

# default residual tolerance for accepting a pair as an eigenpair
VERIFY_TOL = 1e-8

# relative slack for the degree-bound checks
BOUND_SLACK = 1e-9

# the Perron kernel steps its rows in fixed chunks of at most this many
# rows * m * k edge entries, which bounds every (rows, m, k) array of one power step
ROW_ENTRY_CAP = 2**15

# the zero-eigenvalue sign search of ``q_definiteness_probe`` is exhaustive
# up to this many vertices
MAX_DEFINITENESS_N = 24

# a Perron row is Newton-polished once, the first time its bracket is this narrow
POLISH_GAP = 1e-3


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
    """Stopping rule of the shifted higher-order power iteration."""

    tol: float = 1e-10
    max_iter: int = 100_000  # power steps per component

    def __post_init__(self) -> None:
        _check_tolerance(self.tol)
        check_iteration_cap(self.max_iter)


@dataclass(frozen=True)
class ComponentRadius:
    vertices: tuple[int, ...]
    value: float
    bracket: tuple[float, float]
    iterations: int
    converged: bool
    row: np.ndarray = field(repr=False)  # the Perron row that holds every component

    @property
    def vector(self) -> np.ndarray:
        """Full length, zero off the component, sup-norm 1."""
        return np.where(np.isin(np.arange(self.row.size), self.vertices), self.row, 0.0)


@dataclass(frozen=True)
class PerronRows:
    """Outcome of ``perron_rows``: in each row, every vertex holds its segment's values."""

    label: np.ndarray  # (rows, n): the smallest vertex of the segment; a removed vertex's own id
    lo: np.ndarray  # Collatz-Wielandt bracket [lo, hi] of the segment's root, -inf at a removed vertex
    hi: np.ndarray
    vectors: np.ndarray  # each segment at sup-norm 1, 0 at a removed vertex
    iterations: np.ndarray  # power steps run
    converged: np.ndarray  # the bracket closed to within tol in max_iter power steps


@dataclass(frozen=True)
class SpectralRadiusResult:
    value: float
    vector: np.ndarray  # witness from the component attaining the maximum
    components: tuple[ComponentRadius, ...]
    converged: bool


def _check_tolerance(tol: float) -> None:
    """Reject a tolerance that is NaN, infinite or not above 0."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and above 0, got {tol!r}")


def check_iteration_cap(max_iter: int) -> None:
    """Reject an iteration cap that is not an integer of at least 1; numpy integers count."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")


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
    _check_tolerance(tol)
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


def _ratio_bracket(
    h: Hypergraph, x: np.ndarray, member: np.ndarray, cells: np.ndarray, c: np.ndarray, shift: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, lo, hi) at a (rows, n) x: y = A x^{k-1} + (c + shift) x^{[k-1]} on the ``member``
    entries, else 0; lo and hi, shaped like x, hold in each cell the least and largest
    y_i / x_i^{k-1} of the members ``cells`` sends there, less the shift (else inf, -inf)."""
    xkm1 = x ** (h.k - 1)
    y = np.where(member, apply(TensorKind.ADJACENCY, h, x) + (c + shift) * xkm1, 0.0)
    ratios = y[member] / xkm1[member]
    lo, hi = np.full(x.size, np.inf), np.full(x.size, -np.inf)
    np.minimum.at(lo, cells, ratios)
    np.maximum.at(hi, cells, ratios)
    return y, (lo - shift).reshape(x.shape), (hi - shift).reshape(x.shape)


def _polish(
    h: Hypergraph, c: np.ndarray, shift: float, lab: np.ndarray, want: np.ndarray,
    x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray,
) -> None:
    """Newton-polish, on its own hypergraph, each segment [i, s] of a chunk (labels ``lab``)
    where ``want`` holds; its ``_ratio_bracket`` state x, y, lo, hi takes the polished
    one in place when the polish succeeds and narrows [lo, hi]."""
    for i, s in zip(*np.nonzero(want)):
        S = np.flatnonzero(lab[i] == s)
        g = induced(h, S)
        out = newton_polish(g, c[S], 0.5 * (lo[i, s] + hi[i, s]), x[i, S])
        if out is None:
            continue
        xp = out[1] / out[1].max()
        whole = np.ones((1, S.size), dtype=bool)
        yp, plo, phi = _ratio_bracket(g, xp[None], whole, np.zeros(S.size, dtype=np.int64), c[S], shift)
        if phi[0, 0] - plo[0, 0] < hi[i, s] - lo[i, s]:
            x[i, S], y[i, S], lo[i, s], hi[i, s] = xp, yp[0], plo[0, 0], phi[0, 0]


def perron_rows(
    h: Hypergraph,
    removed: np.ndarray,
    c: np.ndarray,
    tol: float,
    max_iter: int,
) -> PerronRows:
    """Perron root of A + diag(c) on every component of h - removed[r].

    ``removed`` holds vertex ids, -1 for none.  Row r is h - removed[r], and
    each of its components is a segment, labelled by ``component_labels``
    with its smallest vertex.  ``c`` is a length-n vector, at least -d.  No
    edge joins two segments, and an edge through the removed vertex, held
    at 0, adds an exact 0 to its other vertices, so a vertex's floats do not
    depend on the other segments of its row.  With shift = max degree + 1,
    shift + c is positive, which makes the block on a segment primitive.
    Each segment then runs the shifted power iteration (NQZ)

        x <- (A x^{k-1} + (c + shift) x^{[k-1]})^{1/(k-1)}, at sup-norm 1 per segment

    from the all-ones vector.  The root has exactly one positive
    eigenvector, so neither the shift nor the start changes the answer,
    only the path to it.  At every positive x the least and largest ratio
    (A x^{k-1} + c x^{[k-1]})_i / x_i^{k-1} over the segment bracket its
    root (Collatz-Wielandt).  A segment stops when its bracket is at most
    ``tol`` wide (converged) or after ``max_iter`` power steps, and keeps
    its x from then on; ``iterations`` counts the steps, not the bracket at
    the start.  Each segment is Newton-polished once: when its bracket is
    first at most POLISH_GAP wide, or else after the iteration, if hi > lo
    (a loose ``tol`` or a small ``max_iter``), which leaves ``converged`` as
    it was.  The bracket at the polished vector replaces the power
    iterate's when it is narrower.  Rows run in fixed chunks of ROW_ENTRY_CAP
    // (m k), each stepped by one (rows, n) ``apply`` until none of its
    segments is going; a reduction over segments is one ``ufunc.at``.
    """
    k, n = h.k, h.n
    capacity = max(1, ROW_ENTRY_CAP // (h.m * k))
    member = np.arange(n) != removed[:, None]
    shift = float(h.degree_vector.max() + 1.0)
    x = member.astype(np.float64)
    # the segment labelled s in row r keeps its bracket, steps and outcome at [r, s]
    label = np.empty(x.shape, dtype=np.int64)
    lo, hi, converged = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape, dtype=bool)
    iterations = np.zeros(x.shape, dtype=np.int64)
    floor = (1e-300) ** (1.0 / (k - 1))  # keeps x^{k-1} above underflow
    for first in range(0, removed.size, capacity):
        r = slice(first, first + capacity)
        label[r] = lab = component_labels(h, removed[r])
        inside, xr, steps = member[r], x[r], iterations[r]
        # chunk row i keeps its segment labelled s at cell i*n + s
        cell = lab + np.arange(lab.shape[0])[:, None] * n
        cells = cell[inside]
        tried = np.zeros(xr.shape, dtype=bool)
        while True:
            y, slo, shi = _ratio_bracket(h, xr, inside, cells, c, shift)
            gap = shi - slo
            want = (gap > tol) & (gap <= POLISH_GAP) & ~tried
            tried |= want
            _polish(h, c, shift, lab, want, xr, y, slo, shi)
            going = (shi - slo > tol) & (steps < max_iter)
            if not going.any():
                break
            step = y ** (1.0 / (k - 1))
            top = np.zeros(xr.size)
            np.maximum.at(top, cell, step)
            with np.errstate(invalid="ignore"):  # 0 / 0 at a removed vertex, which keeps its 0
                xr[...] = np.where(going.ravel()[cell], np.maximum(step / top[cell], floor), xr)
            steps += going
        converged[r] = shi - slo <= tol
        _polish(h, c, shift, lab, ~tried & (shi > slo), xr, y, slo, shi)
        lo[r], hi[r] = slo, shi
    at = np.arange(removed.size)[:, None], label  # every vertex's segment
    return PerronRows(label, np.where(member, lo[at], -np.inf), hi[at], x, iterations[at], converged[at])


def spectral_radius(
    kind: TensorKind,
    h: Hypergraph,
    opts: PowerOptions | None = None,
) -> SpectralRadiusResult:
    """Largest H-eigenvalue of A or Q, computed per connected component.

    Each component is a segment of one ``perron_rows`` row, with c = 0 for
    A and c = d for Q, run to ``opts.tol`` or for at most ``opts.max_iter``
    power steps.  The radius of the whole graph is the maximum over
    components; each component carries a positive witness vector.  The
    Laplacian is rejected because its largest H-eigenvalue is not a Perron root.
    """
    if kind is TensorKind.LAPLACIAN:
        raise ValueError("spectral_radius supports only the adjacency and signless Laplacian tensors")
    opts = opts or PowerOptions()
    c = h.degree_vector if kind is TensorKind.SIGNLESS_LAPLACIAN else np.zeros(h.n)
    rows = perron_rows(h, np.array([-1]), c, opts.tol, opts.max_iter)
    lo, hi = rows.lo[0], rows.hi[0]
    results = [
        ComponentRadius(
            vertices=tuple(g.tolist()),
            value=float(0.5 * (lo[g[0]] + hi[g[0]])),
            bracket=(float(lo[g[0]]), float(hi[g[0]])),
            iterations=int(rows.iterations[0, g[0]]),
            converged=bool(rows.converged[0, g[0]]),
            row=rows.vectors[0],
        )
        for g in label_groups(rows.label[0])
    ]
    best = max(results, key=lambda r: r.value)
    return SpectralRadiusResult(
        value=best.value,
        vector=best.vector,
        components=tuple(results),
        converged=all(r.converged for r in results),
    )


def newton_polish(h: Hypergraph, c: np.ndarray, lam: float, x: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Newton refinement of A x^{k-1} + c x^{[k-1]} = lam x^{[k-1]} on h.

    c = 0 gives A, c = d gives Q, and c = -d with lam negated gives L.  The
    pivot p is the vertex where the start is largest: x_p is held at 1, the
    sup-norm-1 scale ``verify_eigenpair`` reads, and lam takes its place
    among the unknowns, so the Jacobian is square and, at a simple
    eigenvalue, nonsingular.  Stops after 20 steps, or once the largest
    equation defect is below 1e-14, or below 1e-10 and no smaller than at
    the previous step, and returns that iterate.  Returns None when the
    start is not positive at the pivot, a solve fails, or a step leaves the
    positive cone or stops being finite.  The caller decides whether the
    result improves on its input.
    """
    k = h.k
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (h.n,))
    x = as_vector(h, x)
    p = int(np.argmax(x))
    if not x[p] > 0.0:
        return None
    x = x / x[p]
    last = math.inf
    for _ in range(20):
        xkm1 = x ** (k - 1)
        F = apply(TensorKind.ADJACENCY, h, x) + (c - lam) * xkm1
        size = float(np.abs(F).max())
        # no longer falling once small: the defect is at its rounding floor;
        # far from the root Newton may rise before it falls
        if size < 1e-14 or (size >= last and size <= 1e-10):
            break
        last = size
        J = adjacency_jacobian(h, x)
        J[np.diag_indices_from(J)] += (c - lam) * ((k - 1) * x ** (k - 2))
        J[:, p] = -xkm1  # x_p is fixed, so its column solves for lam
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        lam += float(delta[p])
        delta[p] = 0.0
        x += delta
        if not (np.all(np.isfinite(x)) and math.isfinite(lam) and np.all(x > 0.0)):
            return None
    return lam, x


def structural_eigenpairs(
    kind: TensorKind,
    h: Hypergraph,
    radius: SpectralRadiusResult | None = None,
) -> tuple[EigenPair, ...]:
    """Eigenpairs that exist by construction for k >= 3.

    Laplacian: (d(j), indicator of j) for every vertex plus (0, all-ones).
    Signless Laplacian: (d(j), indicator of j) for every vertex plus each
    component's spectral radius with its positive witness.  Adjacency:
    (0, indicator of vertex 0) plus each component's spectral radius.

    The indicator pairs and the all-ones pair are built, not checked: at
    e_j every leave-one-out product spans k-1 >= 2 slots of its edge, so
    one of them holds a vertex other than j, where e_j is 0.  Every
    product is therefore an exact 0, A e_j^{k-1} = 0 and L e_j^{k-1} =
    Q e_j^{k-1} = d(j) e_j.  At all-ones every product is 1, so A 1^{k-1}
    = d is an exact integer sum and L 1^{k-1} = 0.  Each residual is
    therefore exactly 0.0, the value ``verify_eigenpair`` computes.  Only
    the radius pairs go through ``verify_eigenpair``.  They are those of
    ``radius``, a ``spectral_radius(kind, h, opts)`` the caller has already
    run with its own options; without it they come from
    ``spectral_radius(kind, h)`` at the default options.
    """
    if h.k < 3:
        raise ValueError(f"structural eigenpairs need k >= 3, got k={h.k}")
    strict = Classification.H_PLUS_STRICT  # an indicator has n - 1 >= 2 zero entries
    if kind is TensorKind.ADJACENCY:
        e_0 = np.zeros(h.n)
        e_0[0] = 1.0
        pairs = [EigenPair(value=0.0, vector=e_0, residual=0.0, classification=strict)]
    else:
        pairs = [
            EigenPair(value=float(d), vector=e_j, residual=0.0, classification=strict)
            for d, e_j in zip(h.degree_vector, np.eye(h.n))
        ]
    if kind is TensorKind.LAPLACIAN:
        plus = Classification.H_PLUS_PLUS
        pairs.append(EigenPair(value=0.0, vector=np.ones(h.n), residual=0.0, classification=plus))
    else:
        sr = radius if radius is not None else spectral_radius(kind, h)
        pairs += [verify_eigenpair(kind, h, comp.value, comp.vector) for comp in sr.components]
    return tuple(pairs)


def minimal_binary_eigenvectors(h: Hypergraph) -> tuple[np.ndarray, ...]:
    """The support-minimal 0/1 Laplacian eigenvectors for eigenvalue 0.

    These are exactly the component indicators; any linear combination of
    them is again an eigenvector for 0.
    """
    label = component_labels(h, np.array([-1]))[0]
    return tuple((np.unique(label)[:, None] == label).astype(np.float64))


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


def q_definiteness_probe(h: Hypergraph) -> DefinitenessResult:
    """Decide whether the signless Laplacian (even k) has a zero H-eigenvalue.

    For even k the form is a sum of d(i) x_i^k plus k times the edge
    products, so Q is positive semidefinite and singularity requires every
    edge to cancel its degree term exactly.  That happens iff k = 4j + 2 and
    some +-1 assignment makes every edge carry exactly k/2 entries of each
    sign; for k divisible by 4 no assignment works, so Q is positive
    definite.  The sign search is exhaustive up to MAX_DEFINITENESS_N
    vertices (the global flip symmetry pins vertex 0 to +1).
    """
    if h.k % 2 != 0:
        raise ValueError(f"definiteness probe needs even k, got k={h.k}")
    if h.k % 4 == 0:
        return DefinitenessResult(Definiteness.POSITIVE_DEFINITE, None)
    if h.n > MAX_DEFINITENESS_N:
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
