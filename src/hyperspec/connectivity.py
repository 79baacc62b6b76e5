"""Analytic connectivity, brute-force cut numbers, and the bounds relating them.

The analytic connectivity alpha(G) is, for each pinned vertex j, the minimum
of the Laplacian form L x^k over the slice {x >= 0, sum x_i^k = 1, x_j = 0},
minimized over j.  On that slice L x^k = sigma - T_j x^k with T_j =
diag(sigma - d) + A(G - j), where G - j drops j and every edge through it.
T_j is a symmetric nonnegative tensor once sigma >= max degree, and the
maximum of T_j x^k over the slice is its Perron root (Qi 2013).  So each
pin's slice minimum is exactly sigma minus the largest Perron root of T_j
over the connected components C of G - j: a global minimum, not a local
one.

Pin j is row G - j of ``eigen.perron_rows``, which removes each vertex in
turn, with c = -d; each component C of G - j is a segment of that row, whose
root is that of T_j on C less sigma.  So all slices run through one
row-batched shifted power iteration with a Newton finish (see there), and
each segment returns a Collatz-Wielandt bracket.  The reported alpha is the
form at a feasible point, the pin's best Perron vector scaled to sum x^k =
1, so it is an upper bound; the brackets give the certified ``lower_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eigen import BoundCheck, BoundReport, check_iteration_cap, make_check, perron_rows
from .hypergraph import Hypergraph, degree_stats, is_connected
from .tensor_ops import TensorKind, apply, form

# every slice bracket must close to this width for the solve to count as converged
BRACKET_TOL = 1e-10
# alpha values at or below this count as zero (disconnected graph)
ALPHA_ZERO_TOL = 1e-6
# per-pin values within this of the least count as tied; pins that a symmetry
# of G maps onto each other differ by rounding only
TIE_TOL = 1e-12


@dataclass(frozen=True)
class AlphaOptions:
    starts: int = 32  # echoed only: the Perron solve has no random starts
    seed: int = 0  # echoed only
    max_iter: int = 1500  # power iterations per component of each G - j

    def __post_init__(self) -> None:
        check_iteration_cap(self.max_iter)


@dataclass(frozen=True)
class AlphaCertificate:
    """Outcome of the analytic-connectivity solve.

    ``alpha`` equals the Laplacian form at ``minimizer`` (a feasible point of
    the pinned slice), so it is always an upper bound on the true analytic
    connectivity; ``is_upper_bound`` records that one-sidedness.
    ``lower_bound`` is certified by the Collatz-Wielandt brackets, so the
    true value lies in [lower_bound, alpha]; ``per_vertex_lower_bounds``
    does the same for each entry of ``per_vertex_values``.
    ``kkt_residual`` measures first-order optimality at the winner: the
    stationarity defect on the support and the multiplier-sign defect on the
    inactive coordinates, with the pinned vertex excluded.  ``converged``
    says that every bracket closed to BRACKET_TOL within the iteration cap.
    """

    alpha: float
    pinned_vertex: int
    minimizer: np.ndarray
    kkt_residual: float
    per_vertex_values: tuple[float, ...]
    converged: bool
    lower_bound: float
    per_vertex_lower_bounds: tuple[float, ...]
    is_upper_bound: bool = True


def _kkt_residual(h: Hypergraph, pinned: int, x: np.ndarray, mu: float) -> float:
    """First-order optimality defect at a feasible slice point (pinned j excluded).

    Support coordinates must satisfy (L x^{k-1})_i = mu x_i^{k-1}; zero
    coordinates must not offer a first-order decrease, i.e.
    (L x^{k-1})_i >= mu x_i^{k-1}.
    """
    r = apply(TensorKind.LAPLACIAN, h, x) - mu * x ** (h.k - 1)
    defect = np.where(x > 0.0, np.abs(r), -r)
    defect[pinned] = 0.0
    return max(0.0, float(defect.max()))


def analytic_connectivity(
    h: Hypergraph, opts: AlphaOptions | None = None
) -> AlphaCertificate:
    """Minimize the Laplacian form over every pinned nonnegative slice.

    Each component C of G - j is a segment of pin j's row, the Perron
    problem of A + diag(-d) on C, whose root is minus the slice minimum on
    C, run for at most ``opts.max_iter`` power steps.  A pin's value is the
    form at its segment of largest root, scaled to sum x^k = 1; its lower
    bound is minus the largest upper bracket end over its segments.  alpha
    is the value of the lowest pin within TIE_TOL of the least value.
    ``opts.starts`` and ``opts.seed`` are not read.

    The rows come one chunk at a time, and each chunk is folded as it
    comes: one ``form`` over its (chunk rows, n) best segments gives its
    pins' values, the row-by-row floats of a 1-D call.  Of those rows only
    the records are kept, the pins whose value is below every earlier
    pin's, and only while they lie within TIE_TOL of the least value so
    far.  The lowest pin within TIE_TOL of the least value lies below every
    earlier pin, so it is the first record left at the end.  Memory is one
    chunk, O(ROW_ENTRY_CAP + capacity n), plus O(n) and the records' rows.
    """
    opts = opts or AlphaOptions()
    n, k = h.n, h.k
    values, lower, records, least, converged = [], [], [], np.inf, True
    for rows in perron_rows(h, np.arange(n), -h.degree_vector, BRACKET_TOL, opts.max_iter):
        size = np.diff(rows.starts, append=rows.entries.size)
        seg = np.arange(size.size)
        pin = rows.entries[rows.starts] // n
        runs = np.flatnonzero(np.diff(pin, prepend=-1))  # G - j keeps n - 1 >= 1 vertices
        first = int(pin[0])
        mid = 0.5 * (rows.lo + rows.hi)
        # of a pin's tied segments the first, of least label, wins
        best = np.minimum.reduceat(np.where(mid == np.maximum.reduceat(mid, runs)[pin - first], seg, seg.size), runs)
        x = np.zeros((runs.size, n))  # per pin of the chunk: its best segment, 0 elsewhere
        keep = np.repeat(np.isin(seg, best), size)
        x.flat[rows.entries[keep] - first * n] = rows.values[keep]
        converged &= bool(rows.converged.all())
        # the form is >= 0 on the slice (AM-GM per edge); dips below are rounding
        v = np.maximum(form(TensorKind.LAPLACIAN, h, x) / (x**k).sum(axis=1), 0.0)
        values.append(v)
        # a lower bound may drop to the value it bounds where rounding lifts it past
        lower.append(np.clip(-np.maximum.reduceat(rows.hi, runs), 0.0, v))
        # the records, pins below every earlier value, hold the lowest pin within
        # TIE_TOL of the least value: keep those that may still be within it
        new = v < np.minimum.accumulate(np.append(least, v[:-1]))
        records += [(float(v[b]), first + int(b), x[b].copy()) for b in np.flatnonzero(new)]
        least = min(least, v.min())
        records = [r for r in records if r[0] <= least + TIE_TOL]
    values, lower = np.concatenate(values), np.concatenate(lower)
    alpha, pinned, x = records[0]  # ties resolve to the lowest vertex id
    minimizer = x / float((x**k).sum()) ** (1.0 / k)
    return AlphaCertificate(
        alpha=alpha,
        pinned_vertex=pinned,
        minimizer=minimizer,
        kkt_residual=_kkt_residual(h, pinned, minimizer, alpha),
        per_vertex_values=tuple(float(v) for v in values),
        converged=converged,
        lower_bound=float(lower.min()),
        per_vertex_lower_bounds=tuple(float(v) for v in lower),
    )


@dataclass(frozen=True)
class CutNumbers:
    edge_connectivity: int
    min_witness: tuple[int, ...]
    max_cut: int
    max_witness: tuple[int, ...]
    connected: bool


MAX_BRUTE_N = 20


def _crossing_counts(h: Hypergraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(subsets, crossing, t) for every proper nonempty subset S, as bitmasks.

    ``crossing`` counts the edges that meet both S and its complement, and
    ``t`` sums |e & S| over those edges.
    """
    if h.n > MAX_BRUTE_N:
        raise ValueError(f"brute-force cut enumeration caps at n={MAX_BRUTE_N}, got n={h.n}")
    masks = np.arange(1, (1 << h.n) - 1, dtype=np.uint32)
    sizes = np.zeros(masks.size, dtype=np.int32)
    inside = np.zeros(masks.size, dtype=np.int32)
    for e in h.edges:
        em = np.uint32(0)
        for v in e:
            em |= np.uint32(1 << v)
        inter = masks & em
        full = inter == em
        sizes += (inter != 0) & ~full
        inside += full
    # the degrees over S count each edge inside S k times and a crossing edge |e & S| times
    return masks, sizes, _subset_sums(h.degrees) - h.k * inside


def _subset_sums(weights) -> np.ndarray:
    """Sum of ``weights[v]`` over the bits v of every proper nonempty subset, by bitmask."""
    sums = np.zeros(1, dtype=np.int64)
    for w in weights:
        sums = np.concatenate([sums, sums + w])
    return sums[1:-1]


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _extreme_witness(masks: np.ndarray, sizes: np.ndarray, target: int) -> tuple[int, ...]:
    """The lexicographically least subset that ``target`` edges cross."""
    return min(_mask_to_subset(int(mask)) for mask in masks[sizes == target])


def cut_numbers(h: Hypergraph) -> CutNumbers:
    """Edge connectivity and max cut with witnesses, by one shared enumeration."""
    masks, sizes, _ = _crossing_counts(h)
    lo = int(sizes.min())
    hi = int(sizes.max())
    return CutNumbers(
        edge_connectivity=lo,
        min_witness=_extreme_witness(masks, sizes, lo),
        max_cut=hi,
        max_witness=_extreme_witness(masks, sizes, hi),
        connected=lo > 0,
    )


def connectivity_bound_report(
    h: Hypergraph,
    alpha_cert: AlphaCertificate,
    cuts: CutNumbers | None = None,
) -> BoundReport:
    """Consistency checks tying alpha to the degrees and the cut numbers.

    The solver's alpha lies within its certified bracket, so a failed
    (n/k) * alpha <= e(G) check is a defect; it is reported once, with a
    note saying so.
    """
    dmax, dmin, davg = degree_stats(h)
    checks: list[BoundCheck] = []
    alpha = alpha_cert.alpha
    checks.append(make_check("alpha_nonnegative", 0.0, alpha))
    checks.append(make_check("alpha_at_most_min_degree", alpha, float(dmin)))
    if is_connected(h):
        lhs, rhs, note = ALPHA_ZERO_TOL, alpha, "connected graph must have alpha > 1e-6"
    else:
        lhs, rhs, note = alpha, ALPHA_ZERO_TOL, "disconnected graph must have alpha <= 1e-6"
    checks.append(make_check("alpha_positive_iff_connected", lhs, rhs, note=note))
    if cuts is not None:
        e_val = cuts.edge_connectivity
        checks.append(make_check("edge_connectivity_at_most_min_degree", float(e_val), float(dmin)))
        scaled = (h.n / h.k) * alpha - 1e-6
        chk = make_check("edge_connectivity_at_least_scaled_alpha", scaled, float(e_val))
        if not chk.holds:
            chk = replace(chk, note="(n/k) * alpha exceeds e(G) although alpha is certified: a defect")
        checks.append(chk)
        bound_c = (h.n / h.k) * (2 * float(davg) - dmin)
        checks.append(make_check("max_cut_at_most_degree_bound", float(cuts.max_cut), bound_c))
        if h.n <= 2 * h.k - 1:
            checks.append(
                make_check(
                    "edge_connectivity_equals_min_degree_small_n",
                    abs(float(e_val) - float(dmin)),
                    0.0,
                    note="n <= 2k - 1 forces e(G) = min degree",
                )
            )
    return BoundReport(checks=tuple(checks))


def summation_law_check(h: Hypergraph, alpha: float) -> list[str]:
    """Violations of |S| * alpha <= t(S) * |E(S, S-bar)| over all proper subsets.

    t(S) * |E(S, S-bar)| is the integer sum of |e & S| over the crossing
    edges.  The test is meaningful when ``alpha`` is at (or below) the true
    analytic connectivity.  Returns human-readable descriptions of any
    violating subsets in bitmask order (empty means the law holds
    everywhere).  Capped like the brute-force enumerations.
    """
    if h.n > MAX_BRUTE_N:
        raise ValueError(f"summation-law sweep caps at n={MAX_BRUTE_N}, got n={h.n}")
    masks, crossing, t_sum = _crossing_counts(h)
    rhs = t_sum.astype(np.float64)
    violated = _subset_sums([1] * h.n) * alpha > rhs + 1e-7 * (1 + np.abs(rhs))
    violations: list[str] = []
    for mask, t, cross in zip(masks[violated], rhs[violated], crossing[violated]):
        subset = _mask_to_subset(int(mask))
        violations.append(f"S={subset}: {len(subset) * alpha} > {float(t)} (crossing={int(cross)})")
    return violations
