"""Independent brute-force checks for the solvers in this package.

Nothing here shares iteration machinery with the production paths: the
eigenpair enumerator is a damped Newton root finder over random starts, the
form extremizer is a refining simplex grid, and the subset enumerator walks
every cut explicitly.  Deliberately simple, deliberately slow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .connectivity import project_simplex
from .eigen import Classification, EigenPair, normalize_eigenvector, verify_eigenpair
from .hypergraph import Hypergraph
from .tensor_ops import TensorKind, apply, form

DEDUP_RADIUS = 1e-6
NEWTON_RESIDUAL_TOL = 1e-13
ORACLE_VERIFY_TOL = 1e-10


def solve_beta() -> float:
    """The unique real root of t**3 + t = 1, bisected to 1e-12.

    The analytic connectivity of the 4-vertex, 2-edge, 3-uniform path equals
    1 - beta**2 with this beta, which makes it a handy closed-form anchor.
    """
    g = lambda t: t * t * t + t - 1.0
    lo, hi = 0.5, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SearchMeta:
    starts_per_pivot: int
    pivots: int
    attempts: int
    converged: int
    dedup_radius: float


@dataclass(frozen=True)
class OracleResult:
    eigenpairs: tuple[EigenPair, ...]
    meta: SearchMeta


def _pair_jacobian(
    kind: TensorKind, h: Hypergraph, x: np.ndarray, lam: float, pivot: int
) -> np.ndarray:
    """Jacobian of F(x, lam) = T x^{k-1} - lam x^{[k-1]} with x[pivot] frozen."""
    n, k = h.n, h.k
    JA = np.zeros((n, n))
    for e in h.edges:
        for i in e:
            for l in e:
                if l == i:
                    continue
                p = 1.0
                for r in e:
                    if r != i and r != l:
                        p *= x[r]
                JA[i, l] += p
    deg = np.array(h.degrees, dtype=float)
    diag = (k - 1) * x ** (k - 2)
    if kind is TensorKind.ADJACENCY:
        JT = JA
    elif kind is TensorKind.LAPLACIAN:
        JT = np.diag(deg * diag) - JA
    else:
        JT = np.diag(deg * diag) + JA
    JF = JT - lam * np.diag(diag)
    keep = [c for c in range(n) if c != pivot]
    return np.hstack([JF[:, keep], -(x ** (k - 1))[:, None]])


def _newton_solve(
    kind: TensorKind, h: Hypergraph, x0: np.ndarray, pivot: int, max_iter: int = 100
) -> tuple[float, np.ndarray] | None:
    """Damped Newton iteration for one eigenpair; None when it fails to land."""
    k = h.k
    x = x0.copy()
    tx = apply(kind, h, x)
    xkm1 = x ** (k - 1)
    lam = float(xkm1 @ tx) / float(xkm1 @ xkm1)
    free = [c for c in range(h.n) if c != pivot]
    for _ in range(max_iter):
        F = apply(kind, h, x) - lam * x ** (k - 1)
        r = float(np.abs(F).max())
        if r <= NEWTON_RESIDUAL_TOL:
            return lam, x
        try:
            step = np.linalg.solve(_pair_jacobian(kind, h, x, lam, pivot), -F)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        improved = False
        for _ in range(60):
            xt = x.copy()
            xt[free] += t * step[:-1]
            lt = lam + t * float(step[-1])
            Ft = apply(kind, h, xt) - lt * xt ** (k - 1)
            if np.all(np.isfinite(Ft)) and float(np.abs(Ft).max()) < r:
                x, lam = xt, lt
                improved = True
                break
            t *= 0.5
        if not improved:
            return None
        if not np.isfinite(lam) or float(np.abs(x).max()) > 1e8:
            return None
    return None


SNAP_THRESHOLD = 1e-2


def _snap_sparse(
    kind: TensorKind, h: Hypergraph, lam: float, xc: np.ndarray
) -> tuple[float, np.ndarray]:
    """Try zeroing near-zero entries of a converged pair.

    Sparse eigenvectors are degenerate roots (the Jacobian loses rank off
    the support), so Newton reaches the residual tolerance while the small
    entries still carry O(tol^{1/(k-1)}) dirt.  The candidate is snapped to
    the nearby support, polished by Newton restricted to that support, and
    re-verified directly; it replaces the original only when its residual
    is at least as good, so genuine dense pairs survive untouched.
    """
    k = h.k
    tiny = (np.abs(xc) > 0.0) & (np.abs(xc) < SNAP_THRESHOLD)
    if not tiny.any() or tiny.all():
        return lam, xc

    def residual(l: float, v: np.ndarray) -> float:
        return float(np.abs(apply(kind, h, v) - l * v ** (k - 1)).max())

    xs = normalize_eigenvector(np.where(tiny, 0.0, xc))
    supp = np.flatnonzero(xs != 0.0)
    pivot = int(np.argmax(np.abs(xs)))
    free = [int(v) for v in supp if v != pivot]
    lam_s = lam
    for _ in range(8):
        F = apply(kind, h, xs) - lam_s * xs ** (k - 1)
        if float(np.abs(F[supp]).max()) < 1e-14:
            break
        Jfull = _pair_jacobian(kind, h, xs, lam_s, pivot)
        cols = [v - (1 if v > pivot else 0) for v in free] + [h.n - 1]
        J = Jfull[np.ix_(supp, cols)]
        try:
            delta = np.linalg.solve(J, -F[supp])
        except np.linalg.LinAlgError:
            return lam, xc
        xs = xs.copy()
        xs[free] += delta[:-1]
        lam_s += float(delta[-1])
        if not np.all(np.isfinite(xs)) or not np.isfinite(lam_s):
            return lam, xc
    if residual(lam_s, xs) <= max(residual(lam, xc), 1e-12):
        return lam_s, normalize_eigenvector(xs)
    return lam, xc


def newton_eigen_enumerate(
    kind: TensorKind,
    h: Hypergraph,
    starts: int = 200,
    seed: int = 0,
) -> OracleResult:
    """Hunt H-eigenpairs by Newton iteration from random starts.

    Every vertex takes a turn as the frozen pivot (x[pivot] = 1), which
    reaches eigenvectors regardless of which entries vanish.  Each pivot
    begins with two canonical probes, the pivot's corner of the positive
    cone and the cone's center (both are frequently exact roots, so Newton
    accepts them immediately), then cycles through four random strata:
    signed uniform on [-1, 1]^n, nonnegative uniform on [0, 1]^n, a cloud
    around the cone center, and a cloud near the pivot's corner (sparse
    eigenvectors make the Jacobian nearly singular off-support, so only
    nearby starts reach them).  Converged pairs are canonicalized (sup-norm
    1, leading entry positive), re-verified at 1e-10, and deduplicated at
    radius 1e-6 in (lambda, x).  No completeness is claimed; the output is
    a set of certified pairs.
    """
    rng = np.random.default_rng(seed)
    kept: list[tuple[float, np.ndarray]] = []
    attempts = 0
    converged = 0
    for pivot in range(h.n):
        corner = np.zeros(h.n)
        corner[pivot] = 1.0
        probes: list[np.ndarray] = [corner, np.ones(h.n)]
        for i in range(starts):
            if i % 4 == 0:
                x0 = rng.uniform(-1.0, 1.0, h.n)
            elif i % 4 == 1:
                x0 = rng.uniform(0.0, 1.0, h.n)
            elif i % 4 == 2:
                x0 = 1.0 + rng.uniform(-0.5, 0.5, h.n)
            else:
                x0 = rng.uniform(0.0, 0.3, h.n)
            x0[pivot] = 1.0
            probes.append(x0)
        for x0 in probes:
            attempts += 1
            sol = _newton_solve(kind, h, x0, pivot)
            if sol is None:
                continue
            converged += 1
            lam, x = sol
            xc = normalize_eigenvector(x)
            lam, xc = _snap_sparse(kind, h, lam, xc)
            if any(
                abs(lam - l2) <= DEDUP_RADIUS and float(np.abs(xc - x2).max()) <= DEDUP_RADIUS
                for l2, x2 in kept
            ):
                continue
            kept.append((lam, xc))
    pairs = []
    for lam, xc in kept:
        pair = verify_eigenpair(kind, h, lam, xc, tol=ORACLE_VERIFY_TOL)
        if pair.classification is not Classification.NOT_EIGENPAIR:
            pairs.append(pair)
    pairs.sort(key=lambda p: (p.value, tuple(np.round(p.vector, 12))))
    return OracleResult(
        eigenpairs=tuple(pairs),
        meta=SearchMeta(
            starts_per_pivot=starts,
            pivots=h.n,
            attempts=attempts,
            converged=converged,
            dedup_radius=DEDUP_RADIUS,
        ),
    )


@dataclass(frozen=True)
class GridExtremum:
    value: float
    point: np.ndarray  # feasible x on the (possibly pinned) slice
    error_estimate: float
    evaluations: int


MAX_GRID_N = 6


def _compositions(parts: int, total: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(parts - 1, total - first):
            yield (first,) + rest


def grid_extremize_form(
    kind: TensorKind,
    h: Hypergraph,
    objective: str = "max",
    pinned: int | None = None,
    resolution: int = 8,
    levels: int = 40,
    incumbents: int = 6,
) -> GridExtremum:
    """Extremize T x^k over {x >= 0, sum x_i^k = 1} (optionally x[pinned] = 0).

    A full composition grid at the given resolution seeds a top-few set of
    incumbents; each level re-centers a shrunken copy of the grid (scale
    2^-level) on every incumbent, and a projected-gradient polish on the
    mass simplex (u = x^k) tightens the final incumbent.  Every sampled
    point is feasible, so the returned value is a certified one-sided bound
    (lower for max, upper for min); ``error_estimate`` adds a local
    Lipschitz bound over the final sampling neighborhood to the last
    observed improvements, which estimates but does not certify the
    distance to the true extremum.
    """
    if h.n > MAX_GRID_N:
        raise ValueError(f"grid extremizer caps at n={MAX_GRID_N}, got n={h.n}")
    if objective not in ("max", "min"):
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")
    if pinned is not None and not (0 <= pinned < h.n):
        raise ValueError(f"pinned vertex {pinned} outside [0, {h.n})")
    sign = 1.0 if objective == "max" else -1.0
    free = [i for i in range(h.n) if i != pinned]
    q = len(free)
    if q < 1:
        raise ValueError("no free coordinates to place mass on")
    grid = np.array(list(_compositions(q, resolution)), dtype=float) / resolution

    def embed(U: np.ndarray) -> np.ndarray:
        full = np.zeros((U.shape[0], h.n))
        full[:, free] = U
        return full

    def evaluate(U: np.ndarray) -> np.ndarray:
        return form(kind, h, embed(U) ** (1.0 / h.k))

    def select(U: np.ndarray, scores: np.ndarray, count: int, min_dist: float) -> np.ndarray:
        chosen: list[int] = []
        for idx in np.argsort(-scores, kind="stable"):
            if all(float(np.abs(U[idx] - U[c]).max()) > min_dist for c in chosen):
                chosen.append(int(idx))
                if len(chosen) == count:
                    break
        return U[chosen]

    vals = evaluate(grid)
    evals = grid.shape[0]
    scores = sign * vals
    best_i = int(np.argmax(scores))
    best_u, best_score = grid[best_i].copy(), float(scores[best_i])
    centers = select(grid, scores, incumbents, 0.5 / resolution)
    s = 1.0
    last_gain = float("inf")
    for _ in range(levels):
        s *= 0.5
        pool = np.vstack([(1.0 - s) * c + s * grid for c in centers] + [centers, best_u[None, :]])
        scores = sign * evaluate(pool)
        evals += pool.shape[0]
        top = int(np.argmax(scores))
        gain = float(scores[top]) - best_score
        if gain > 0:
            best_u, best_score = pool[top].copy(), float(scores[top])
        last_gain = max(gain, 0.0)
        centers = select(pool, scores, incumbents, 0.5 * s / resolution)
    best_u, polish_gain, polish_evals = _slice_polish(kind, h, sign, free, best_u)
    best_score += polish_gain
    evals += polish_evals
    x_best = embed(best_u[None, :])[0] ** (1.0 / h.k)
    cloud = (1.0 - s) * best_u + s * grid
    x_cloud = embed(cloud) ** (1.0 / h.k)
    spread = float(np.abs(x_cloud - x_best[None, :]).max())
    lip = (1.0 if kind is TensorKind.ADJACENCY else 2.0) * h.k ** 2 * h.m
    return GridExtremum(
        value=sign * best_score,
        point=x_best,
        error_estimate=lip * spread + 2.0 * (last_gain + polish_gain) + 1e-12,
        evaluations=evals,
    )


def _slice_polish(
    kind: TensorKind,
    h: Hypergraph,
    sign: float,
    free: list[int],
    u0: np.ndarray,
    max_iter: int = 300,
) -> tuple[np.ndarray, float, int]:
    """Projected-gradient ascent/descent on the mass simplex u = x^k.

    The chain rule gives df/du_i = (T x^{k-1})_i / x_i^{k-1}, the same
    ratio the Collatz-Wielandt bracket reads; it is clipped near the
    boundary where x_i -> 0.  Armijo backtracking keeps every iterate
    feasible, so grid values only ever improve.  Returns the polished
    point, the total improvement in the signed score, and the number of
    extra form evaluations.
    """
    k = h.k
    u = u0.copy()

    def embed_x(u_free: np.ndarray) -> np.ndarray:
        full = np.zeros(h.n)
        full[free] = np.maximum(u_free, 0.0)
        return full ** (1.0 / k)

    def score(u_free: np.ndarray) -> float:
        return sign * form(kind, h, embed_x(u_free))

    current = score(u)
    start = current
    evals = 1
    step = 1.0
    for _ in range(max_iter):
        x = embed_x(u)
        ratios = apply(kind, h, x)[free] / np.maximum(x[free] ** (k - 1), 1e-12)
        grad = sign * np.clip(ratios, -1e6, 1e6)
        moved = False
        for _ in range(40):
            cand = project_simplex(u + step * grad)
            delta = cand - u
            norm = float(np.abs(delta).max())
            if norm <= 1e-15:
                break
            cand_score = score(cand)
            evals += 1
            if cand_score >= current + (1e-4 / step) * float(delta @ delta):
                u, current = cand, cand_score
                moved = True
                step = min(step * 2.0, 1e6)
                break
            step *= 0.5
        if not moved:
            break
    return u, current - start, evals


@dataclass(frozen=True)
class SubsetEnumeration:
    min_cut: int
    min_witness: tuple[int, ...]
    max_cut: int
    max_witness: tuple[int, ...]
    identities_checked: int
    identity_failures: tuple[str, ...]


MAX_SUBSET_N = 20


def subset_enumerate(h: Hypergraph, statistic: str = "allCutChecks") -> SubsetEnumeration:
    """Walk every proper nonempty vertex subset and tally its cut.

    The reference the fast enumerators are tested against, so it stays
    naive: plain sets, plain loops.  With ``statistic='allCutChecks'`` it
    also verifies, for every subset S with scaled indicator
    x = |S|^{-1/k} 1_S, the exact identities

        Q x^k  = (2k |E(S)| + sum_p t(e_p)) / |S|      (rational arithmetic)
        L x^k  = (sum_p t(e_p)) / |S|
        |S| * dmin  <= 2k |E(S)| + sum_p t(e_p)

    and the complement-side versions.
    """
    if statistic not in ("minCut", "maxCut", "allCutChecks"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if h.n > MAX_SUBSET_N:
        raise ValueError(f"subset enumeration caps at n={MAX_SUBSET_N}, got n={h.n}")
    dmin = min(h.degrees)
    best_min: tuple[int, tuple[int, ...]] | None = None
    best_max: tuple[int, tuple[int, ...]] | None = None
    checked = 0
    failures: list[str] = []
    for size in range(1, h.n):
        for subset in itertools.combinations(range(h.n), size):
            sset = set(subset)
            inside = 0
            outside = 0
            crossing = 0
            t_sum = 0
            for e in h.edges:
                t = sum(1 for v in e if v in sset)
                if t == h.k:
                    inside += 1
                elif t == 0:
                    outside += 1
                else:
                    crossing += 1
                    t_sum += t
            if best_min is None or crossing < best_min[0] or (
                crossing == best_min[0] and subset < best_min[1]
            ):
                best_min = (crossing, subset)
            if best_max is None or crossing > best_max[0] or (
                crossing == best_max[0] and subset < best_max[1]
            ):
                best_max = (crossing, subset)
            if statistic == "allCutChecks":
                checked += 1
                failures.extend(
                    _identity_failures(h, subset, inside, outside, crossing, t_sum, dmin)
                )
    assert best_min is not None and best_max is not None
    return SubsetEnumeration(
        min_cut=best_min[0],
        min_witness=best_min[1],
        max_cut=best_max[0],
        max_witness=best_max[1],
        identities_checked=checked,
        identity_failures=tuple(failures),
    )


def _identity_failures(
    h: Hypergraph,
    subset: tuple[int, ...],
    inside: int,
    outside: int,
    crossing: int,
    t_sum: int,
    dmin: int,
) -> list[str]:
    k = h.k
    out: list[str] = []
    comp = tuple(v for v in range(h.n) if v not in set(subset))
    t_sum_comp = crossing * k - t_sum  # each crossing edge has k - t vertices outside
    for name, side, e_inside, t_side in (
        ("subset", subset, inside, t_sum),
        ("complement", comp, outside, t_sum_comp),
    ):
        size = len(side)
        x = np.zeros(h.n)
        x[list(side)] = size ** (-1.0 / k)
        q_exact = Fraction(2 * k * e_inside + t_side, size)
        l_exact = Fraction(t_side, size)
        q_val = form(TensorKind.SIGNLESS_LAPLACIAN, h, x)
        l_val = form(TensorKind.LAPLACIAN, h, x)
        if abs(q_val - float(q_exact)) > 1e-12 * (1 + abs(float(q_exact))):
            out.append(f"S({name})={side}: Q form {q_val} != {q_exact}")
        if abs(l_val - float(l_exact)) > 1e-12 * (1 + abs(float(l_exact))):
            out.append(f"S({name})={side}: L form {l_val} != {l_exact}")
        if size * dmin > 2 * k * e_inside + t_side:
            out.append(
                f"S({name})={side}: degree inequality {size * dmin} > {2 * k * e_inside + t_side}"
            )
    return out
