"""H-eigenpair verification, spectral radii, structural eigenpairs, and degree bounds.

``perron_rows`` is the one Perron-root kernel: a row is G less one vertex
(or none), and each of its components is a segment, the block A + diag(c)
on it, nonnegative after a diagonal shift.  So the per-component radii
here and the per-pin slice minima of the analytic connectivity in
``connectivity`` run through the same shifted power iteration and the same
Newton finish, applied once per segment and to every segment of a chunk
of rows that waits for it at once; ``newton_polish`` is its one-segment
call.

An H-eigenpair of an order-k tensor T is a pair (lambda, x != 0) with
T x^{k-1} = lambda * x^{[k-1]} componentwise.  Eigenvectors here are
normalized to sup-norm 1 with the largest-magnitude entry positive, and
classified by sign structure: H++ (all entries positive), strict H+
(nonnegative with at least one zero), or plain H (some entry negative).
An ``EigenPair`` holds its vector as ``support``, the vertices of the
nonzero entries, and ``values``, the entries there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

import numpy as np

from .hypergraph import Hypergraph, component_labels, degree_stats, row_edges, sorted_runs
from .tensor_ops import TensorKind, adjacency_jacobian, adjacency_products, apply, as_vector

# entries within this of zero (after sup-norm scaling) count as zero; entries
# below its negation count as negative
POS_THRESHOLD = 1e-9

# default residual tolerance for accepting a pair as an eigenpair
VERIFY_TOL = 1e-8

# relative slack for the degree-bound checks
BOUND_SLACK = 1e-9

# the Perron kernel steps its rows in fixed chunks of at most this many
# rows * m * k edge entries, which bounds every (rows, m, k) array of one power
# step, and its Newton finish solves stacks of at most this many Jacobian
# entries, or one Jacobian of at most FINISH_CAP**2 entries
ROW_ENTRY_CAP = 2**15

# a Perron segment stops stepping to be Newton-polished when its bracket is
# first this narrow, and after a finish that leaves it wider than tol, again
# each time the bracket narrows tenfold, so tol bounds the attempts
POLISH_GAP = 1e-3

# only segments of at most this many vertices are Newton-polished, which
# bounds every dense (z, z) Jacobian and its solve at 8 MB each; a larger
# segment keeps its power bracket
FINISH_CAP = 1024


class Classification(Enum):
    NOT_EIGENPAIR = "not_eigenpair"
    H = "H"
    H_PLUS_STRICT = "H+_strict"
    H_PLUS_PLUS = "H++"


@dataclass(frozen=True)
class EigenPair:
    """An eigenpair whose vector, of length n, is zero off ``support``."""

    value: float
    support: np.ndarray  # the vertices of its nonzero entries, ascending
    values: np.ndarray  # its entries there
    residual: float
    classification: Classification
    n: int

    @property
    def vector(self) -> np.ndarray:
        """The dense vector, built on each read."""
        return _dense(self.n, self.support, self.values)


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
    values: np.ndarray = field(repr=False)  # the positive witness on ``vertices``, sup-norm 1


@dataclass(frozen=True)
class PerronRows:
    """One chunk's outcome of ``perron_rows``: the segment table of its rows, one
    value per segment but for ``entries`` and ``values``, which hold one per
    place.

    The segments come row after row, and by label within a row; segment j
    holds the places ``starts[j]`` up to ``starts[j + 1]``, at which
    ``entries`` holds its flat indices (row * n + vertex, ascending, with
    the row counted over all of ``removed``) and ``values`` its vector, at
    sup-norm 1.  So ``np.split(entries, starts[1:])`` lists the segments.
    Every row of the chunk holds at least one segment.
    """

    entries: np.ndarray
    starts: np.ndarray
    lo: np.ndarray  # Collatz-Wielandt bracket [lo, hi] of the segment's root
    hi: np.ndarray
    iterations: np.ndarray  # power steps run
    converged: np.ndarray  # the bracket closed to within tol in max_iter power steps
    values: np.ndarray


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


def _dense(n: int, support, values) -> np.ndarray:
    """The length-n vector that holds ``values`` at ``support`` and 0 elsewhere."""
    x = np.zeros(n)
    x[np.asarray(support, dtype=np.int64)] = values
    return x


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
    support = np.flatnonzero(v)
    return EigenPair(float(value), support, v[support], residual, cls, v.size)


def _ratio_bracket(
    edges: np.ndarray, x: np.ndarray, starts: np.ndarray, c: np.ndarray, shift: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, lo, hi) at an x whose segments begin at ``starts``, and whose edges are
    the rows ``edges`` of places in x: y = A x^{k-1} + (c + shift) x^{[k-1]}, and
    per segment the least and largest y_i / x_i^{k-1} over its places, less the
    shift."""
    xkm1 = x ** (edges.shape[1] - 1)
    y = adjacency_products(edges, x) + (c + shift) * xkm1
    ratios = y / xkm1
    return y, np.minimum.reduceat(ratios, starts) - shift, np.maximum.reduceat(ratios, starts) - shift


def _polish(
    edges: np.ndarray, c: np.ndarray, shift: float, starts: np.ndarray,
    want: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
) -> None:
    """Newton-polish together every segment of x of at most FINISH_CAP vertices
    where ``want`` holds, from the midpoint of its bracket [lo, hi]; the
    segment's x, lo and hi take the polished ones in place when the polish
    succeeds and narrows its bracket.

    x, c and ``edges`` are a chunk's place arrays, as ``perron_rows`` plans
    them.  No edge joins two segments, so each wanted segment's floats are
    those of a polish on its own hypergraph, and every other segment takes
    no Newton step.
    """
    want = want & (np.diff(starts, append=x.size) <= FINISH_CAP)
    if not want.any():
        return
    ok, _, xe = _newton(edges, c, x, starts, 0.5 * (lo + hi), want)
    seg = np.repeat(np.arange(starts.size), np.diff(starts, append=x.size))
    xe = xe / np.maximum.reduceat(xe, starts)[seg]
    _, plo, phi = _ratio_bracket(edges, xe, starts, c, shift)
    better = ok & (phi - plo < hi - lo)
    lo[better], hi[better] = plo[better], phi[better]
    x[better[seg]] = xe[better[seg]]


def _chunk(h: Hypergraph, removed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(entries, starts, edges): the segment table of the rows h - removed[r], as one
    chunk numbers it.

    Place p is the vertex at flat index entries[p] (row * n + vertex), and the
    places run row after row, by label within a row, and by vertex within a
    segment, which begins at ``starts``.  ``edges`` holds the rows' edges as
    rows of places, each segment's edges one run in row order.
    """
    keep = np.arange(h.n) != removed[:, None]
    cells = row_edges(h, removed)
    label = component_labels(cells, keep.size)
    order, starts = sorted_runs(label[keep.ravel()])
    entries = np.flatnonzero(keep)[order]
    place = np.empty(keep.size, dtype=np.int64)
    place[entries] = np.arange(entries.size)
    # segments run in label order, and the stable sort keeps each one's edge order
    return entries, starts, place[cells[np.argsort(label[cells[:, 0]], kind="stable")]]


def perron_rows(
    h: Hypergraph,
    removed: np.ndarray,
    c: np.ndarray,
    tol: float,
    max_iter: int,
) -> Iterator[PerronRows]:
    """Perron root of A + diag(c) on every component of h - removed[r].

    ``removed`` holds vertex ids, -1 for none.  Row r is h - removed[r], and
    each of its components is a segment, labelled by ``component_labels``
    with its smallest vertex.  ``c`` is a length-n vector, at least -d.
    Rows run in fixed chunks of ROW_ENTRY_CAP // (m k), and each chunk's
    ``PerronRows`` is yielded once its polish ends, so no state outlives
    its chunk: a caller that folds each chunk as it comes holds one chunk's
    table at a time.  Each chunk is planned once, by ``_chunk``: its
    vertices are numbered once, as places, and its edges are listed once,
    from ``row_edges``, as rows of places.  The vector, the
    products and the ratios of a chunk are flat arrays over its places, so
    a reduction over its segments is one ``reduceat``, and its steps,
    brackets and outcomes are one value per segment.  No edge through a
    removed vertex enters any sum, and no edge joins two segments, so a
    vertex's floats do not depend on the other segments of its row.  (They
    are the floats of a step over all of h with the removed vertex held at
    0, whose edges would add only exact +0.0 terms; each segment's edges
    keep their order in h, so each place adds its terms in that step's
    order.)  With shift = max
    degree + 1, shift + c is positive, which makes the block on a segment
    primitive.  Each segment then runs the shifted power iteration (NQZ)

        x <- (A x^{k-1} + (c + shift) x^{[k-1]})^{1/(k-1)}, at sup-norm 1 per segment

    from the all-ones vector, one ``adjacency_products`` over the chunk's
    edges per step.  The root has exactly one positive eigenvector, so
    neither the shift nor the start changes the answer, only the path to
    it.  At every positive x the least and largest ratio (A x^{k-1} + c
    x^{[k-1]})_i / x_i^{k-1} over the segment bracket its root
    (Collatz-Wielandt).  A segment stops when its bracket is at most
    ``tol`` wide (converged) or after ``max_iter`` power steps, and keeps
    its x from then on; ``iterations`` counts the steps, not the bracket at
    the start.  One ``gate`` per segment decides its Newton finish.  It
    starts at POLISH_GAP, and a segment is frozen while tol < gap <= gate,
    gap being its bracket's width: it takes no steps.  Once no segment of
    the chunk is going, one ``_polish`` finishes every frozen segment
    together, and each one's gate drops to a tenth of the gap it had before
    that polish.  So a segment whose finish fails or leaves it wider than
    ``tol`` steps on, and is finished again once its bracket has narrowed
    tenfold.  A frozen segment needs gate > tol, so it is attempted at most
    ceil(log10(POLISH_GAP / tol)) times.  A segment never attempted (a loose
    ``tol`` or a small ``max_iter`` stopped it first) is polished, if hi >
    lo, in one more ``_polish`` at the end of the chunk, which leaves
    ``converged`` as it was.  The bracket at the polished vector replaces
    the power iterate's when it is narrower.  A frozen segment's floats
    depend on its own x alone, so the polish gives the floats it gave when
    it ran on freezing.  ``_polish`` skips every segment of more than
    FINISH_CAP vertices, which keeps its power bracket: there ``converged``
    means that the power iteration closed it to ``tol``.
    """
    k, n = h.k, h.n
    capacity = max(1, ROW_ENTRY_CAP // (h.m * k))
    shift = float(h.degree_vector.max() + 1.0)
    floor = (1e-300) ** (1.0 / (k - 1))  # keeps x^{k-1} above underflow
    for first in range(0, removed.size, capacity):
        entries, starts, edges = _chunk(h, removed[first : first + capacity])
        seg = np.repeat(np.arange(starts.size), np.diff(starts, append=entries.size))
        cp = c[entries % n]
        x = np.ones(entries.size)  # every segment starts at all-ones
        steps = np.zeros(starts.size, dtype=np.int64)
        gate = np.full(starts.size, POLISH_GAP)
        while True:
            y, lo, hi = _ratio_bracket(edges, x, starts, cp, shift)
            gap = hi - lo
            frozen = (gap > tol) & (gap <= gate)
            going = (gap > tol) & (steps < max_iter) & ~frozen
            if not going.any():
                if not frozen.any():
                    break
                # a frozen segment's floats depend on its own x alone, so
                # polishing it now gives what polishing it on freezing gave
                _polish(edges, cp, shift, starts, frozen, x, lo, hi)
                gate[frozen] = 0.1 * gap[frozen]
                continue  # to read y at the polished x
            step = y ** (1.0 / (k - 1))
            move = going[seg]
            top = np.maximum.reduceat(step, starts)[seg[move]]
            x[move] = np.maximum(step[move] / top, floor)
            steps += going
        converged = hi - lo <= tol
        _polish(edges, cp, shift, starts, (gate == POLISH_GAP) & (hi > lo), x, lo, hi)
        yield PerronRows(entries + first * n, starts, lo, hi, steps, converged, x)


def spectral_radius(
    kind: TensorKind,
    h: Hypergraph,
    opts: PowerOptions | None = None,
) -> SpectralRadiusResult:
    """Largest H-eigenvalue of A or Q, computed per connected component.

    Each component is a segment of one ``perron_rows`` row, with c = 0 for
    A and c = d for Q, run to ``opts.tol`` or for at most ``opts.max_iter``
    power steps.  The radius of the whole graph is the maximum over
    components; each component carries its positive witness as ``values``
    on its ``vertices``, and only the result's ``vector``, the witness of the
    largest, is of length n.  The Laplacian is rejected because its largest
    H-eigenvalue is not a Perron root.
    """
    if kind is TensorKind.LAPLACIAN:
        raise ValueError("spectral_radius supports only the adjacency and signless Laplacian tensors")
    opts = opts or PowerOptions()
    c = h.degree_vector if kind is TensorKind.SIGNLESS_LAPLACIAN else np.zeros(h.n)
    (rows,) = perron_rows(h, np.array([-1]), c, opts.tol, opts.max_iter)
    cuts = rows.starts[1:]  # row 0's entries are its vertices, ascending in each segment
    vertices, values = np.split(rows.entries, cuts), np.split(rows.values, cuts)
    segments = zip(vertices, values, rows.lo, rows.hi, rows.iterations, rows.converged)
    results = [
        ComponentRadius(
            vertices=tuple(g.tolist()),
            value=float(0.5 * (lo + hi)),
            bracket=(float(lo), float(hi)),
            iterations=int(steps),
            converged=bool(converged),
            values=x,
        )
        for g, x, lo, hi, steps, converged in segments
    ]
    best = max(results, key=lambda r: r.value)
    return SpectralRadiusResult(
        value=best.value,
        vector=_dense(h.n, best.vertices, best.values),
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
    result improves on its input.  This is the one-segment call of the
    batched polish that ``perron_rows`` runs, on the edges of all of h.
    """
    x = as_vector(h, x)
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (h.n,))
    one = np.zeros(1, dtype=np.int64)
    ok, lam, x = _newton(h.edge_index, c, x, one, np.array([lam], dtype=np.float64), np.ones(1, dtype=bool))
    return (float(lam[0]), x) if ok[0] else None


def _newton(
    edges: np.ndarray, c: np.ndarray, x: np.ndarray, starts: np.ndarray, lam: np.ndarray, want: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``newton_polish`` for every segment of x where ``want`` holds, at once, on
    their own values.

    x and c hold the segments' values one after another: segment j begins
    at x[starts[j]] and starts from lam[j].  ``edges`` holds the segments'
    edges as rows of places in x, each segment's edges one run in its own
    edge order, which is its Jacobian's; no edge joins two segments, so no
    segment's floats depend on another's.  Each Newton step is one
    ``adjacency_products`` call over those edges for every residual, and
    one stacked Jacobian and one ``np.linalg.solve`` per stack of at most
    ROW_ENTRY_CAP // z^2 (and at least one) wanted segments of equal size
    z, taken by size, whose edges are picked by per-segment offsets into
    their runs; a stack whose solve fails is solved matrix by matrix, and
    only the singular ones fail.  A segment not wanted takes no step.  Returns, per segment,
    whether it was wanted and succeeded and its lam, and the values of its
    vector (the start's, scaled, where it failed).
    """
    k = edges.shape[1]
    size = np.diff(starts, append=x.size)
    seg = np.repeat(np.arange(starts.size), size)  # each value's segment
    local = np.arange(x.size) - starts[seg]  # and its place in the segment
    top = np.maximum.reduceat(x, starts)
    pivot = np.minimum.reduceat(np.where(x == top[seg], np.arange(x.size), x.size), starts)
    ok = want & (top > 0.0)
    xe = start = x / np.where(ok, top, 1.0)[seg]
    count = np.bincount(seg[edges[:, 0]], minlength=starts.size)
    first = np.cumsum(count) - count  # where each segment's edges begin
    by_size = np.argsort(size, kind="stable")
    active, last = ok.copy(), np.full(starts.size, np.inf)
    for _ in range(20):
        xkm1 = xe ** (k - 1)
        F = adjacency_products(edges, xe) + (c - lam[seg]) * xkm1
        defect = np.maximum.reduceat(np.abs(F), starts)
        # no longer falling once small: the defect is at its rounding floor;
        # far from the root Newton may rise before it falls
        active &= ~((defect < 1e-14) | ((defect >= last) & (defect <= 1e-10)))
        if not active.any():
            break
        last = np.where(active, defect, last)
        diagonal = (c - lam[seg]) * ((k - 1) * xe ** (k - 2))
        delta = np.zeros(x.size)
        todo = by_size[active[by_size]]
        sizes = size[todo]
        while todo.size:
            z = int(sizes[0])
            cut = min(max(1, ROW_ENTRY_CAP // z**2), int(np.searchsorted(sizes, z, side="right")))
            ids, todo, sizes = todo[:cut], todo[cut:], sizes[cut:]
            span = count[ids]
            these = edges[np.repeat(first[ids] - (np.cumsum(span) - span), span) + np.arange(span.sum())]
            J = adjacency_jacobian(local[these], xe[these], np.repeat(np.arange(cut), span), cut, z)
            at = (starts[ids][:, None] + np.arange(z)).ravel()
            J[:, np.arange(z), np.arange(z)] += diagonal[at].reshape(cut, z)
            # x_p is fixed, so its column solves for lam
            J[np.arange(cut), :, local[pivot[ids]]] = -xkm1[at].reshape(cut, z)
            rhs = -F[at].reshape(cut, z, 1)
            try:
                delta[at] = np.linalg.solve(J, rhs).ravel()
            except np.linalg.LinAlgError:
                for j, Jj, bj in zip(ids, J, rhs):
                    try:
                        delta[starts[j] : starts[j] + z] = np.linalg.solve(Jj, bj).ravel()
                    except np.linalg.LinAlgError:
                        active[j] = ok[j] = False
        lam = np.where(active, lam + delta[pivot], lam)
        delta[pivot] = 0.0
        xe = xe + delta
        fine = np.logical_and.reduceat(np.isfinite(xe) & (xe > 0.0), starts) & np.isfinite(lam)
        ok &= fine | ~active
        active &= fine
        xe = np.where(ok[seg], xe, start)
    return ok, lam, xe


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

    Every pair holds its vector as ``support`` and ``values``: an indicator
    pair as [j] and [1.0], a radius pair as its component.  Only the check
    of a radius pair builds a length-n vector, and keeps none of it.
    """
    if h.k < 3:
        raise ValueError(f"structural eigenpairs need k >= 3, got k={h.k}")
    strict = Classification.H_PLUS_STRICT  # an indicator has n - 1 >= 2 zero entries
    # row j of each (n, 1) array is e_j's support and its value there
    ids, ones = np.arange(h.n)[:, None], np.ones((h.n, 1))
    if kind is TensorKind.ADJACENCY:
        pairs = [EigenPair(0.0, ids[0], ones[0], 0.0, strict, h.n)]
    else:
        pairs = [EigenPair(float(d), j, one, 0.0, strict, h.n) for d, j, one in zip(h.degree_vector, ids, ones)]
    if kind is TensorKind.LAPLACIAN:
        pairs.append(EigenPair(0.0, ids.ravel(), ones.ravel(), 0.0, Classification.H_PLUS_PLUS, h.n))
    else:
        sr = radius if radius is not None else spectral_radius(kind, h)
        pairs += [verify_eigenpair(kind, h, c.value, _dense(h.n, c.vertices, c.values)) for c in sr.components]
    return tuple(pairs)


def minimal_binary_eigenvectors(h: Hypergraph) -> tuple[np.ndarray, ...]:
    """The support-minimal 0/1 Laplacian eigenvectors for eigenvalue 0.

    These are exactly the component indicators; any linear combination of
    them is again an eigenvector for 0.
    """
    label = component_labels(h.edge_index, h.n)
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


@dataclass(frozen=True)
class DefinitenessResult:
    status: Definiteness
    witness: np.ndarray | None  # a 0/+-1 vector with Q x^{k-1} = 0 when found


def q_definiteness_probe(h: Hypergraph) -> DefinitenessResult:
    """Decide whether the signless Laplacian (even k) has a zero H-eigenvalue.

    For even k, each edge adds sum_{i in e} x_i^k + k * prod_{i in e} x_i >= 0
    to Q x^k, by AM-GM, so Q is positive semidefinite.  Q x^{k-1} = 0
    forces Q x^k = 0, so every edge term is 0: on each edge the |x_i| are
    equal, and either an odd number of them are negative or all are 0.
    Equal moduli spread through a connected component, so x is +-c on some
    components and 0 on the rest.  Conversely, on such a component
    (Q x^{k-1})_i = d_i * (x_i^k - c^k) / x_i = 0.  Flipping every sign
    keeps each edge's parity, because k is even.  So Q has a zero
    H-eigenvalue exactly when some component is odd-bipartite: some sign
    vector puts an odd number of -1 on each of its edges.

    With s_i = 1 where x_i = -1, that is sum_{i in e} s_i = 1 (mod 2) for
    each edge: one GF(2) elimination over all edges, row by row, with
    vertex i at bit i + 1 and the right-hand side at bit 0.  Only rows that
    share a vertex are ever added, so each component is eliminated on its
    own, and it is odd-bipartite exactly when none of its rows ends as
    0 = 1.  Back substitution, with every free vertex at 0, gives s.  The
    witness is 1 - 2s on the first such component, in the order of the
    smallest vertex, and 0 elsewhere.  Every row holds an even number of
    vertices, as each edge does, so a component's smallest vertex is never
    a row's highest: it stays free, and the witness is +1 there.
    """
    if h.k % 2 != 0:
        raise ValueError(f"definiteness probe needs even k, got k={h.k}")
    pivots: dict[int, int] = {}  # a row's highest bit -> the row
    label = component_labels(h.edge_index, h.n)
    odd = label == np.arange(h.n)  # per component, at its smallest vertex
    for e in h.edges:
        row = 1 + sum(2 << v for v in e)  # vertex v at bit v + 1, the right-hand side at bit 0
        while row > 1 and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row > 1:
            pivots[row.bit_length()] = row
        elif row:
            odd[label[e[0]]] = False
    if not odd.any():
        return DefinitenessResult(Definiteness.POSITIVE_DEFINITE, None)
    s = 0
    for top, row in sorted(pivots.items()):
        if (row + (row & s).bit_count()) % 2:
            s |= 1 << (top - 1)
    root = int(np.argmax(odd))
    x = 1.0 - 2.0 * np.array([(s >> v) & 1 for v in range(1, h.n + 1)])
    return DefinitenessResult(Definiteness.HAS_ZERO_EIGENVALUE, np.where(label == root, x, 0.0))
