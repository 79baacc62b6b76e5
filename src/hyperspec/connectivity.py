"""Analytic connectivity, brute-force cut numbers, and the bounds relating them.

The analytic connectivity alpha(G) is, for each pinned vertex j, the minimum
of the Laplacian form L x^k over the slice {x >= 0, sum x_i^k = 1, x_j = 0},
minimized over j.  The substitution u_i = x_i^k turns each slice into the
probability simplex over the free coordinates; the solver runs projected
gradient descent there from several starts per pin and then polishes each
pin's winner with ``eigen.newton_polish``: on its support a slice minimizer
is an H+ eigenvector of L whose eigenvalue is the form value.
Because the method only descends, the reported value is an upper bound on
the true minimum; the certificate says so explicitly.

Every (pin j, start s) pair is one run, and all runs descend as the rows of
one working set.  An iteration projects every live row onto its simplex in
one row-wise ``project_simplex``, evaluates all slice values and gradients
through (rows, n) calls of ``apply`` and ``form``, and backtracks each row's
Armijo step under an active mask; every row counts its own iterations
against ``max_iter``.

- Memory: the working set holds at most ROW_ENTRY_CAP // (m k) rows, so each
  (rows, m, k) array of an iteration has at most ROW_ENTRY_CAP entries.  When
  a row ends it is snapped, renormalized and valued, and its slot goes to the
  next pending row.
- Order: pending rows are taken pin by pin, and within a pin in start order:
  the uniform point, one uniform point per connected component without j,
  then ``starts`` Dirichlet(1) draws from ``default_rng((seed, j))``.
- Early drop: a row of pin j that ends at or below ZERO_VALUE has met the
  lower bound 0, so the pin's later rows, live or pending, are dropped.
  Each pin's winner is the first strict minimum in start order, stopping at
  the first value at or below ZERO_VALUE.  That is the run that trying the
  starts one after another picks, with the same floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eigen import BoundCheck, BoundReport, make_check, newton_polish
from .hypergraph import Hypergraph, components, degree_stats, is_connected
from .tensor_ops import TensorKind, apply, form

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
# a run ending at or below this value has met the global lower bound 0
ZERO_VALUE = 1e-15
# the descent working set holds at most this many rows * m * k edge entries,
# which bounds every (rows, m, k) array of one iteration
ROW_ENTRY_CAP = 2**15
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
    """Euclidean projection onto {u >= 0, sum u = 1} (sort and threshold).

    Works row-wise: each row along the last axis of ``v`` is projected on
    its own, to the same floats a 1-D call on that row returns.
    """
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    ks = np.arange(1, v.shape[-1] + 1)
    # the leading entry always passes the test, so every row has a last one that does
    rho = v.shape[-1] - np.argmax((u - css / ks > 0)[..., ::-1], axis=-1)
    css_rows = css.reshape(-1, v.shape[-1])
    tau = css_rows[np.arange(css_rows.shape[0]), rho.ravel() - 1].reshape(rho.shape) / rho
    return np.maximum(v - tau[..., None], 0.0)


def _slice_values(h: Hypergraph, u: np.ndarray) -> np.ndarray:
    """L x^k at x = u^{1/k} for every row of u."""
    return form(TensorKind.LAPLACIAN, h, np.maximum(u, 0.0) ** (1.0 / h.k))


def _slice_gradients(h: Hypergraph, u: np.ndarray) -> np.ndarray:
    """Gradient of u -> L x(u)^k at every row of u, on all n coordinates.

    For u_i > 0 the derivative is d(i) - (A x^{k-1})_i / x_i^{k-1}.  At
    u_i = 0 the one-sided slope is d(i) unless some edge through i has all
    its other vertices positive, in which case the k-th root gives an
    unbounded descent direction; such coordinates get a large negative
    entry (capped) so the line search can bring them back in.
    """
    k = h.k
    rows, n = u.shape
    u = np.maximum(u, 0.0)
    x = u ** (1.0 / k)
    a = apply(TensorKind.ADJACENCY, h, x)
    xkm1 = x ** (k - 1)
    active = u > EPS_U
    ratio = np.zeros_like(u)
    ratio[active] = a[active] / xkm1[active]
    # release test for zero coordinates: some edge through i has all its k-1
    # other vertices above 1e-9
    idx = h.edge_index
    high = np.take(u > 1e-9, idx.T, axis=1)
    others_high = high.sum(axis=1)[:, None, :] - high == k - 1
    cells = np.arange(rows)[:, None, None] * n + idx.T
    pulled = ~active & (np.bincount(cells[others_high], minlength=u.size).reshape(rows, n) > 0)
    ratio[pulled] = RATIO_CAP
    np.minimum(ratio, RATIO_CAP, out=ratio)
    return h.degree_vector - ratio


def _start_points(
    h: Hypergraph, comps: list[tuple[int, ...]], j: int, opts: AlphaOptions
) -> list[np.ndarray]:
    """Start points for pin j in run order: uniform, one per component without j, Dirichlet."""
    rng = np.random.default_rng((opts.seed, j))
    starts = [np.full(h.n, 1.0 / (h.n - 1))]
    for comp in comps:
        if j not in comp:
            u = np.zeros(h.n)
            u[list(comp)] = 1.0 / len(comp)
            starts.append(u)
    free = [i for i in range(h.n) if i != j]
    for _ in range(opts.starts):
        u = np.zeros(h.n)
        u[free] = rng.dirichlet(np.ones(h.n - 1))
        starts.append(u)
    return starts


@dataclass
class _Runs:
    """Live descent runs, one per row, over the free coordinates of their pin."""

    pin: np.ndarray
    start: np.ndarray  # index among the pin's start points
    u: np.ndarray  # (rows, n - 1) point of the simplex
    f: np.ndarray  # slice value at u
    t: np.ndarray  # last accepted step
    it: np.ndarray  # iterations run
    done: np.ndarray  # the run ended in its last iteration
    conv: np.ndarray  # ... and ended converged

    def select(self, keep: np.ndarray) -> _Runs:
        return _Runs(*(a[keep] for a in vars(self).values()))

    def extend(self, other: _Runs) -> _Runs:
        return _Runs(*(np.concatenate(p) for p in zip(vars(self).values(), vars(other).values())))


def _free_mask(n: int, pin: np.ndarray) -> np.ndarray:
    """(rows, n) mask of the vertices other than each row's pin."""
    return np.arange(n) != pin[:, None]


def _embed_rows(n: int, pin: np.ndarray, u_free: np.ndarray) -> np.ndarray:
    """Full rows of length n: each row of u_free with a 0 put in at its pin."""
    u = np.zeros((pin.size, n))
    u[_free_mask(n, pin)] = u_free.ravel()
    return u


def _descent_step(h: Hypergraph, runs: _Runs) -> None:
    """One projected-gradient iteration of every run, with per-row Armijo steps.

    Updates ``runs`` in place and flags the runs that ended in ``done``, and
    those that ended converged also in ``conv``.
    """
    n = h.n
    u, f = runs.u, runs.f
    g = _slice_gradients(h, _embed_rows(n, runs.pin, u))[_free_mask(n, runs.pin)].reshape(u.shape)
    pg = np.abs(u - project_simplex(u - g)).max(axis=1)
    search = pg > PG_TOL
    t_try = np.minimum(runs.t * 2.0, 1e3)
    u_new, f_new = u.copy(), f.copy()
    accepted = np.zeros_like(search)
    trying = search & (t_try >= 1e-18)
    while trying.any():
        a = np.flatnonzero(trying)
        cand = project_simplex(u[a] - t_try[a, None] * g[a])
        fc = _slice_values(h, _embed_rows(n, runs.pin[a], cand))
        step = cand - u[a]
        # row-by-row matmul makes the same BLAS dot as a 1-D ``step @ step``
        sq = (step[:, None, :] @ step[:, :, None])[:, 0, 0]
        ok = fc <= f[a] - (ARMIJO_C / t_try[a]) * sq
        took = a[ok]
        u_new[took], f_new[took] = cand[ok], fc[ok]
        accepted[took] = True
        trying[took] = False
        t_try[a[~ok]] *= ARMIJO_FACTOR
        trying &= t_try >= 1e-18
    flat = accepted & (np.abs(f - f_new) <= VALUE_TOL)
    runs.u, runs.f = u_new, f_new
    runs.t = np.where(accepted, t_try, runs.t)
    runs.it += 1
    runs.conv = ~search | flat
    runs.done = runs.conv | ~accepted


def _pinned_minima(h: Hypergraph, opts: AlphaOptions) -> list[tuple[float, np.ndarray, bool]]:
    """(value, u, converged) of each pin's winning run, pins in vertex order.

    Runs the rows of every (pin, start) pair through one working set; see
    the module docstring for the capacity, the row order and the drop rule.
    """
    n = h.n
    comps = components(h)
    capacity = max(1, ROW_ENTRY_CAP // (h.m * h.k))
    # rows of pin j after start cutoff[j] are dropped: that start already reached 0
    cutoff = np.full(n, np.inf)
    pending = (
        (j, s, np.delete(u0, j))
        for j in range(n)
        for s, u0 in enumerate(_start_points(h, comps, j, opts))
        if s <= cutoff[j]
    )
    # (key, run) of each pin's best run so far; the smallest key is the run
    # that walking the starts in order picks: the first start at or below
    # ZERO_VALUE, else the first strict minimum
    best: list[tuple[tuple, tuple[float, np.ndarray, bool]] | None] = [None] * n

    def retire(ended: _Runs) -> None:
        u_free = np.where(ended.u < ZERO_SNAP, 0.0, ended.u)
        total = u_free.sum(axis=1)
        pos = total > 0
        u_free[pos] /= total[pos, None]
        u = _embed_rows(n, ended.pin, u_free)
        values = _slice_values(h, u)
        for j, s, val, row, conv in zip(
            ended.pin.tolist(), ended.start.tolist(), values.tolist(), u, ended.conv.tolist()
        ):
            if val <= ZERO_VALUE:
                cutoff[j] = min(cutoff[j], s)
            key = (0, s) if val <= ZERO_VALUE else (1, val, s)
            if best[j] is None or key < best[j][0]:
                best[j] = (key, (val, row.copy(), conv))

    def enter(rows: list[tuple[int, int, np.ndarray]]) -> _Runs:
        pin = np.array([r[0] for r in rows], dtype=np.int64)
        u = project_simplex(np.array([r[2] for r in rows]))
        fresh = np.zeros(len(rows), dtype=np.int64)
        return _Runs(
            pin=pin,
            start=np.array([r[1] for r in rows], dtype=np.int64),
            u=u,
            f=_slice_values(h, _embed_rows(n, pin, u)),
            t=np.ones(len(rows)),
            it=fresh,
            done=fresh.astype(bool),
            conv=fresh.astype(bool),
        )

    # pin 0 always has its uniform start, so the first fill is never empty
    runs = enter(list(itertools.islice(pending, capacity)))
    while runs.pin.size:
        ended = runs.done | (runs.it >= opts.max_iter)
        if ended.any():
            retire(runs.select(ended))
            runs = runs.select(~ended & (runs.start <= cutoff[runs.pin]))
            fresh = list(itertools.islice(pending, capacity - runs.pin.size))
            if fresh:
                runs = runs.extend(enter(fresh))
            continue
        _descent_step(h, runs)
    return [b[1] for b in best]  # type: ignore[index]


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

    Starts per pinned vertex, in this order: the uniform point, one uniform
    point per connected component not containing the pin (these reach the
    exact zero minimizers of disconnected graphs), and ``opts.starts``
    Dirichlet(1) draws.  All (pin, start) runs descend together as rows of a
    working set of at most ROW_ENTRY_CAP // (m k) rows.  Once a run of a pin
    reaches the global lower bound 0 (ZERO_VALUE), the pin's later runs are
    dropped.  Each pin keeps its first strictly smallest run in start order,
    which is then Newton-polished on its support (kept only when that does
    not raise the value by more than 1e-12) and checked for first-order
    optimality on its own.
    """
    opts = opts or AlphaOptions()
    per_vertex: list[float] = []
    winners: list[tuple[float, np.ndarray, float, bool]] = []
    for j, (val, u, conv) in enumerate(_pinned_minima(h, opts)):
        x = np.maximum(u, 0.0) ** (1.0 / h.k)
        polished = newton_polish(TensorKind.LAPLACIAN, h, val, x, np.flatnonzero(u > 0.0))
        if polished is not None:
            polished_val = form(TensorKind.LAPLACIAN, h, polished[1])
            if polished_val <= val + 1e-12:
                val, x = polished_val, polished[1]
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


def edge_connectivity_bruteforce(h: Hypergraph) -> CutExtremum:
    """Minimum number of crossing edges over all proper vertex subsets.

    A disconnected graph yields 0 with a component as witness; the flag
    records that degenerate case.
    """
    cuts = cut_numbers(h)
    return CutExtremum(cuts.edge_connectivity, cuts.min_witness, cuts.connected)


def max_cut_bruteforce(h: Hypergraph) -> CutExtremum:
    """Maximum number of crossing edges over all proper vertex subsets."""
    cuts = cut_numbers(h)
    return CutExtremum(cuts.max_cut, cuts.max_witness, cuts.connected)


def connectivity_bound_report(
    h: Hypergraph,
    alpha_cert: AlphaCertificate,
    cuts: CutNumbers | None = None,
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
        if not chk.holds:
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
