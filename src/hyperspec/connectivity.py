"""Analytic connectivity, brute-force cut numbers, and the bounds relating them.

The analytic connectivity alpha(G) is, for each pinned vertex j, the minimum
of the Laplacian form L x^k over the slice {x >= 0, sum x_i^k = 1, x_j = 0},
minimized over j.  The substitution u_i = x_i^k turns each slice into the
probability simplex over the free coordinates; the solver runs projected
gradient descent there from several starts and then polishes the winner with
a Newton step on the first-order optimality system.  Because the method only
descends, the reported value is an upper bound on the true minimum; the
certificate says so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eigen import BoundCheck, BoundReport, make_check
from .hypergraph import Hypergraph, components, degree_stats, is_connected
from .tensor_ops import TensorKind, adjacency_jacobian, apply, form

# clamp for free coordinates inside gradient evaluation
EPS_U = 1e-14
# projected-gradient stationarity tolerance (unit-step gradient mapping)
PG_TOL = 1e-9
# stop when accepted steps change the value by no more than this
VALUE_TOL = 1e-13
ARMIJO_FACTOR = 0.5
ARMIJO_C = 1e-4
# gradient entries are capped here; the k-th root makes true slopes unbounded
# near the simplex boundary
RATIO_CAP = 1e6
# coordinates below this are snapped to exact zero between runs
ZERO_SNAP = 1e-12
# alpha values at or below this count as zero (disconnected graph)
ALPHA_ZERO_TOL = 1e-6


@dataclass(frozen=True)
class AlphaOptions:
    starts: int = 32  # random Dirichlet starts per pinned vertex
    seed: int = 0
    max_iter: int = 1500  # projected-gradient iterations per start


@dataclass(frozen=True)
class AlphaCertificate:
    """Outcome of the analytic-connectivity minimization.

    ``alpha`` equals the Laplacian form at ``minimizer`` (a feasible point of
    the pinned slice), so it is always a certified upper bound on the true
    analytic connectivity; ``is_upper_bound`` records that one-sidedness.
    ``kkt_residual`` measures first-order optimality at the winner: the
    stationarity defect on the support and the multiplier-sign defect on the
    inactive coordinates, with the pinned vertex excluded.
    """

    alpha: float
    pinned_vertex: int
    minimizer: np.ndarray
    kkt_residual: float
    per_vertex_values: tuple[float, ...]
    converged: bool
    is_upper_bound: bool = True


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {u >= 0, sum u = 1} (sort and threshold)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    rho = ks[u - css / ks > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def _embed(n: int, free: np.ndarray, u_free: np.ndarray) -> np.ndarray:
    u = np.zeros(n)
    u[free] = u_free
    return u


def _slice_value(h: Hypergraph, u_full: np.ndarray) -> float:
    x = np.maximum(u_full, 0.0) ** (1.0 / h.k)
    return form(TensorKind.LAPLACIAN, h, x)


def _slice_gradient(h: Hypergraph, u_full: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Gradient of u -> L x(u)^k on the free coordinates.

    For u_i > 0 the derivative is d(i) - (A x^{k-1})_i / x_i^{k-1}.  At
    u_i = 0 the one-sided slope is d(i) unless some edge through i has all
    its other vertices positive, in which case the k-th root gives an
    unbounded descent direction; such coordinates get a large negative
    entry (capped) so the line search can bring them back in.
    """
    k = h.k
    u = np.maximum(u_full, 0.0)
    x = u ** (1.0 / k)
    a = apply(TensorKind.ADJACENCY, h, x)
    xkm1 = x ** (k - 1)
    active = u > EPS_U
    ratio = np.zeros(h.n)
    ratio[active] = a[active] / xkm1[active]
    # release test for zero coordinates: largest over edges through i of the
    # smallest u among the other vertices of that edge
    idx = h.edge_index
    ue = u[idx]
    part = np.partition(ue, 1, axis=1)
    min1, min2 = part[:, 0], part[:, 1]
    amin = np.argmin(ue, axis=1)
    others_min = np.repeat(min1[:, None], k, axis=1)
    others_min[np.arange(idx.shape[0]), amin] = min2
    release = np.zeros(h.n)
    np.maximum.at(release, idx, others_min)
    pulled = (~active) & (release > 1e-9)
    ratio[pulled] = RATIO_CAP
    np.minimum(ratio, RATIO_CAP, out=ratio)
    return (h.degree_vector - ratio)[free]


def _minimize_pinned(
    h: Hypergraph, pinned: int, u0_full: np.ndarray, max_iter: int
) -> tuple[float, np.ndarray, bool]:
    """Projected gradient descent on one pinned slice; returns (value, u, converged)."""
    free = np.array([i for i in range(h.n) if i != pinned])
    u_free = project_simplex(u0_full[free])
    u = _embed(h.n, free, u_free)
    f = _slice_value(h, u)
    t = 1.0
    converged = False
    for _ in range(max_iter):
        g = _slice_gradient(h, u, free)
        pg = float(np.abs(u_free - project_simplex(u_free - g)).max())
        if pg <= PG_TOL:
            converged = True
            break
        accepted = False
        t_try = min(t * 2.0, 1e3)
        while t_try >= 1e-18:
            cand_free = project_simplex(u_free - t_try * g)
            cand = _embed(h.n, free, cand_free)
            fc = _slice_value(h, cand)
            step = cand_free - u_free
            if fc <= f - (ARMIJO_C / t_try) * float(step @ step):
                accepted = True
                break
            t_try *= ARMIJO_FACTOR
        if not accepted:
            break
        moved = float(np.abs(f - fc))
        u_free, u, t = cand_free, cand, t_try
        f = fc
        if moved <= VALUE_TOL:
            converged = True
            break
    u_free = np.where(u_free < ZERO_SNAP, 0.0, u_free)
    s = u_free.sum()
    if s > 0:
        u_free = u_free / s
    u = _embed(h.n, free, u_free)
    return _slice_value(h, u), u, converged


def _kkt_residual(h: Hypergraph, pinned: int, x: np.ndarray, mu: float) -> float:
    """First-order optimality defect at a feasible slice point (pinned j excluded).

    Support coordinates must satisfy (L x^{k-1})_i = mu x_i^{k-1}; zero
    coordinates must not offer a first-order decrease, i.e.
    (L x^{k-1})_i >= mu x_i^{k-1}.
    """
    r = apply(TensorKind.LAPLACIAN, h, x) - mu * x ** (h.k - 1)
    worst = 0.0
    for i in range(h.n):
        if i == pinned:
            continue
        if x[i] > 0.0:
            worst = max(worst, abs(float(r[i])))
        else:
            worst = max(worst, max(0.0, -float(r[i])))
    return worst


def _polish_support(
    h: Hypergraph, pinned: int, u_full: np.ndarray
) -> tuple[float, np.ndarray] | None:
    """Newton refinement of the stationarity system on the support of u.

    Solves (L x^{k-1})_i = mu x_i^{k-1} on the support together with
    sum x_i^k = 1, then renormalizes.  Returns None when the step fails or
    leaves the feasible cone.
    """
    k = h.k
    supp = np.flatnonzero(u_full > 0.0)
    if supp.size == 0 or pinned in supp:
        return None
    x = np.maximum(u_full, 0.0) ** (1.0 / k)
    mu = form(TensorKind.LAPLACIAN, h, x)
    d = h.degree_vector
    for _ in range(20):
        lx = apply(TensorKind.LAPLACIAN, h, x)
        xkm1 = x ** (k - 1)
        F = np.append(lx[supp] - mu * xkm1[supp], (x ** k).sum() - 1.0)
        if np.abs(F).max() < 1e-14:
            break
        # Jacobian over (x_supp, mu)
        JA = adjacency_jacobian(h, x)[np.ix_(supp, supp)]
        diag = (k - 1) * x[supp] ** (k - 2)
        J = np.zeros((supp.size + 1, supp.size + 1))
        J[: supp.size, : supp.size] = np.diag((d[supp] - mu) * diag) - JA
        J[: supp.size, -1] = -xkm1[supp]
        J[-1, : supp.size] = k * xkm1[supp]
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        x = x.copy()
        x[supp] += delta[:-1]
        mu += float(delta[-1])
        if np.any(x[supp] <= 0.0) or not np.all(np.isfinite(x)):
            return None
    norm = float((x ** k).sum())
    if not math.isfinite(norm) or norm <= 0:
        return None
    x = x / norm ** (1.0 / k)
    return form(TensorKind.LAPLACIAN, h, x), x


def analytic_connectivity(
    h: Hypergraph, opts: AlphaOptions | None = None
) -> AlphaCertificate:
    """Minimize the Laplacian form over every pinned nonnegative slice.

    Starts per pinned vertex: the uniform point, one uniform point per
    connected component not containing the pin (these reach the exact zero
    minimizers of disconnected graphs), and ``opts.starts`` Dirichlet(1)
    draws.  The run for a pin stops early once it reaches the global lower
    bound 0.
    """
    opts = opts or AlphaOptions()
    comps = components(h)
    per_vertex: list[float] = []
    winners: list[tuple[float, np.ndarray, float, bool]] = []
    for j in range(h.n):
        rng = np.random.default_rng((opts.seed, j))
        starts: list[np.ndarray] = [np.full(h.n, 1.0 / (h.n - 1))]
        for comp in comps:
            if j not in comp:
                u = np.zeros(h.n)
                u[list(comp)] = 1.0 / len(comp)
                starts.append(u)
        for _ in range(opts.starts):
            u = np.zeros(h.n)
            free = [i for i in range(h.n) if i != j]
            u[free] = rng.dirichlet(np.ones(h.n - 1))
            starts.append(u)
        best: tuple[float, np.ndarray, bool] | None = None
        for u0 in starts:
            val, u, conv = _minimize_pinned(h, j, u0, opts.max_iter)
            if best is None or val < best[0]:
                best = (val, u, conv)
            if best[0] <= 1e-15:
                break
        assert best is not None
        val, u, conv = best
        polished = _polish_support(h, j, u)
        if polished is not None and polished[0] <= val + 1e-12:
            val = polished[0]
            x = polished[1]
        else:
            x = np.maximum(u, 0.0) ** (1.0 / h.k)
        # the form is >= 0 on the slice (AM-GM per edge); dips below are rounding
        val = max(val, 0.0)
        kkt = _kkt_residual(h, j, x, val)
        per_vertex.append(val)
        winners.append((val, x, kkt, conv))
    alpha = min(per_vertex)
    pinned = per_vertex.index(alpha)  # ties resolve to the lowest vertex id
    val, x, kkt, conv = winners[pinned]
    return AlphaCertificate(
        alpha=float(val),
        pinned_vertex=pinned,
        minimizer=x,
        kkt_residual=float(kkt),
        per_vertex_values=tuple(float(v) for v in per_vertex),
        converged=all(w[3] for w in winners),
    )


@dataclass(frozen=True)
class CutExtremum:
    value: int
    witness: tuple[int, ...]  # lexicographically smallest attaining subset
    connected: bool


@dataclass(frozen=True)
class CutNumbers:
    edge_connectivity: int
    min_witness: tuple[int, ...]
    max_cut: int
    max_witness: tuple[int, ...]
    connected: bool


MAX_BRUTE_N = 20


def _crossing_counts(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Crossing-edge count for every proper nonempty subset, subsets as bitmasks."""
    if h.n > MAX_BRUTE_N:
        raise ValueError(f"brute-force cut enumeration caps at n={MAX_BRUTE_N}, got n={h.n}")
    masks = np.arange(1, (1 << h.n) - 1, dtype=np.uint32)
    sizes = np.zeros(masks.size, dtype=np.int32)
    for e in h.edges:
        em = np.uint32(0)
        for v in e:
            em |= np.uint32(1 << v)
        inter = masks & em
        sizes += ((inter != 0) & (inter != em)).astype(np.int32)
    return masks, sizes


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _extreme_witness(masks: np.ndarray, sizes: np.ndarray, target: int) -> tuple[int, ...]:
    best: tuple[int, ...] | None = None
    for mask in masks[sizes == target]:
        subset = _mask_to_subset(int(mask))
        if best is None or subset < best:
            best = subset
    assert best is not None
    return best


def edge_connectivity_bruteforce(h: Hypergraph) -> CutExtremum:
    """Minimum number of crossing edges over all proper vertex subsets.

    A disconnected graph yields 0 with a component as witness; the flag
    records that degenerate case.
    """
    masks, sizes = _crossing_counts(h)
    value = int(sizes.min())
    return CutExtremum(
        value=value,
        witness=_extreme_witness(masks, sizes, value),
        connected=value > 0,
    )


def max_cut_bruteforce(h: Hypergraph) -> CutExtremum:
    """Maximum number of crossing edges over all proper vertex subsets."""
    masks, sizes = _crossing_counts(h)
    value = int(sizes.max())
    return CutExtremum(
        value=value,
        witness=_extreme_witness(masks, sizes, value),
        connected=is_connected(h),
    )


def cut_numbers(h: Hypergraph) -> CutNumbers:
    """Edge connectivity and max cut with witnesses, by one shared enumeration."""
    masks, sizes = _crossing_counts(h)
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
    re_solve: bool = True,
) -> BoundReport:
    """Consistency checks tying alpha to the degrees and the cut numbers.

    When the lower bound (n/k) * alpha <= e(G) fails, the solver value (an
    upper bound on the true alpha) may simply be loose; in that case the
    slice is re-solved with four times the starts and the check is retried,
    with the outcome recorded in the note.
    """
    dmax, dmin, davg = degree_stats(h)
    checks: list[BoundCheck] = []
    alpha = alpha_cert.alpha
    checks.append(make_check("alpha_nonnegative", 0.0, alpha))
    checks.append(make_check("alpha_at_most_min_degree", alpha, float(dmin)))
    connected = is_connected(h)
    if connected:
        checks.append(
            make_check(
                "alpha_positive_iff_connected",
                ALPHA_ZERO_TOL,
                alpha,
                note="connected graph must have alpha > 1e-6",
            )
        )
    else:
        checks.append(
            make_check(
                "alpha_positive_iff_connected",
                alpha,
                ALPHA_ZERO_TOL,
                note="disconnected graph must have alpha <= 1e-6",
            )
        )
    if cuts is not None:
        e_val = cuts.edge_connectivity
        checks.append(make_check("edge_connectivity_at_most_min_degree", float(e_val), float(dmin)))
        scaled = (h.n / h.k) * alpha - 1e-6
        chk = make_check("edge_connectivity_at_least_scaled_alpha", scaled, float(e_val))
        if not chk.holds and re_solve:
            retry = analytic_connectivity(
                h, AlphaOptions(starts=128, seed=1, max_iter=3000)
            )
            scaled_retry = (h.n / h.k) * retry.alpha - 1e-6
            chk2 = make_check(
                "edge_connectivity_at_least_scaled_alpha",
                scaled_retry,
                float(e_val),
                note=(
                    "initial solver value was a loose upper bound; re-solve with more starts passed"
                    if make_check("", scaled_retry, float(e_val)).holds
                    else "bound still violated after re-solving with more starts"
                ),
            )
            checks.append(chk2)
        else:
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

    Exact rational arithmetic on the right-hand side; the test is meaningful
    when ``alpha`` is at (or below) the true analytic connectivity.  Returns
    human-readable descriptions of any violating subsets (empty means the law
    holds everywhere).  Capped like the brute-force enumerations.
    """
    if h.n > MAX_BRUTE_N:
        raise ValueError(f"summation-law sweep caps at n={MAX_BRUTE_N}, got n={h.n}")
    violations: list[str] = []
    for mask in range(1, (1 << h.n) - 1):
        subset = _mask_to_subset(mask)
        sset = set(subset)
        t_total = 0
        crossing = 0
        for e in h.edges:
            t = sum(1 for v in e if v in sset)
            if 0 < t < h.k:
                crossing += 1
                t_total += t
        lhs = len(subset) * alpha
        rhs = Fraction(t_total)  # t(S) * |crossing| collapses to the integer sum
        if lhs > float(rhs) + 1e-7 * (1 + abs(float(rhs))):
            violations.append(f"S={subset}: {lhs} > {float(rhs)} (crossing={crossing})")
    return violations
