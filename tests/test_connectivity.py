"""Analytic connectivity, brute-force cut numbers, and the bounds tying them."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from hyperspec import (
    AlphaOptions,
    Hypergraph,
    PowerOptions,
    TensorKind,
    analytic_connectivity,
    apply,
    connectivity_bound_report,
    cut_numbers,
    degree_stats,
    disjoint_union,
    form,
    solve_beta,
    spectral_radius,
    summation_law_check,
)

from hyperspec import connectivity, eigen

from conftest import random_connected, single_edge

FAST = AlphaOptions(starts=8, seed=0)


def naive_cut_extremes(h: Hypergraph) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
    """Reference enumeration over all proper subsets using plain Python.

    Ties on the crossing count are broken by plain lexicographic order of
    the witness tuples, matching the library convention.
    """
    from itertools import combinations

    subsets = []
    for size in range(1, h.n):
        for sub in combinations(range(h.n), size):
            sset = set(sub)
            crossing = sum(1 for e in h.edges if 0 < sum(v in sset for v in e) < h.k)
            subsets.append((crossing, sub))
    best_min, wit_min = min(subsets, key=lambda t: (t[0], t[1]))
    neg_max, wit_max = min(((-c, s) for c, s in subsets), key=lambda t: (t[0], t[1]))
    return best_min, wit_min, -neg_max, wit_max


# ---------------------------------------------------------------------------
# analytic connectivity


def test_single_edge_alpha_is_min_degree():
    for k in (3, 4, 6):
        cert = analytic_connectivity(single_edge(k), FAST)
        assert cert.converged
        assert cert.alpha == pytest.approx(1.0, abs=1e-6)


def test_two_edge_path_alpha_closed_form(two_edge_path):
    beta = solve_beta()
    cert = analytic_connectivity(two_edge_path, AlphaOptions(starts=16, seed=0))
    assert cert.converged
    assert cert.alpha == pytest.approx(1 - beta**2, abs=1e-6)
    assert cert.alpha < 2.0 / 3.0
    # pinning either shared vertex keeps the slice minimum at 1; pinning an
    # endpoint attains the global value
    per_vertex = np.asarray(cert.per_vertex_values)
    assert per_vertex[1] == pytest.approx(1.0, abs=1e-6)
    assert per_vertex[2] == pytest.approx(1.0, abs=1e-6)
    assert per_vertex[0] == pytest.approx(1 - beta**2, abs=1e-6)
    assert per_vertex[3] == pytest.approx(1 - beta**2, abs=1e-6)
    assert cert.pinned_vertex in (0, 3)
    assert cert.kkt_residual <= 1e-6


def test_alpha_certificate_minimizer_is_feasible(two_edge_path):
    cert = analytic_connectivity(two_edge_path, FAST)
    x = np.asarray(cert.minimizer)
    assert np.all(x >= -1e-12)
    assert x[cert.pinned_vertex] == 0.0
    assert float(np.sum(x**two_edge_path.k)) == pytest.approx(1.0, abs=1e-9)
    # the reported alpha is the Laplacian form at the minimizer
    assert form(TensorKind.LAPLACIAN, two_edge_path, x) == pytest.approx(
        cert.alpha, abs=1e-9
    )


def test_alpha_zero_on_disconnected_graphs(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    cert = analytic_connectivity(u, FAST)
    assert cert.converged
    assert cert.alpha <= 1e-6
    # the all-ones start on the unpinned component is exactly its Perron vector
    assert cert.alpha == 0.0
    assert cert.lower_bound == 0.0
    rng = np.random.default_rng(165)
    for _ in range(6):
        k = int(rng.integers(3, 5))
        parts = [random_connected(rng, k, int(rng.integers(k + 1, 9))) for _ in range(2)]
        cert = analytic_connectivity(disjoint_union(*parts))
        assert cert.converged
        assert cert.alpha == cert.lower_bound == 0.0


def test_alpha_is_deterministic(two_edge_path):
    a = analytic_connectivity(two_edge_path, AlphaOptions(starts=8, seed=3))
    b = analytic_connectivity(two_edge_path, AlphaOptions(starts=8, seed=3))
    assert a.alpha == b.alpha
    assert a.pinned_vertex == b.pinned_vertex
    assert np.array_equal(np.asarray(a.minimizer), np.asarray(b.minimizer))


def test_alpha_is_an_upper_bound_certificate(hub_graph):
    cert = analytic_connectivity(hub_graph, FAST)
    assert cert.is_upper_bound
    # any feasible point evaluates at or above the true minimum, so the
    # certificate value must dominate a fresh local solve with more starts
    richer = analytic_connectivity(hub_graph, AlphaOptions(starts=32, seed=5))
    assert cert.alpha >= richer.alpha - 1e-9


def test_alpha_at_most_min_degree_on_random_graphs():
    rng = np.random.default_rng(15)
    for _ in range(8):
        k = int(rng.integers(3, 5))
        n = int(rng.integers(k + 1, 8))
        h = random_connected(rng, k, n)
        _, dmin, _ = degree_stats(h)
        cert = analytic_connectivity(h, AlphaOptions(starts=4, seed=1))
        assert cert.alpha <= dmin + 1e-9
        assert cert.alpha >= -1e-12


def deleted_laplacian_minima(h: Hypergraph) -> list[float]:
    """Per pin j, the smallest eigenvalue of the k = 2 Laplacian without row and column j."""
    lap = np.diag(h.degree_vector)
    for a, b in h.edges:
        lap[a, b] = lap[b, a] = -1.0
    return [np.linalg.eigvalsh(np.delete(np.delete(lap, j, 0), j, 1))[0] for j in range(h.n)]


def test_k2_per_pin_values_match_deleted_laplacian_eigenvalues():
    # at k = 2 the slice pinned at j minimizes x^T L_j x over the nonnegative
    # unit sphere, with L_j the Laplacian minus row and column j; L_j is a
    # Z-matrix, so a nonnegative eigenvector attains its smallest eigenvalue
    rng = np.random.default_rng(45)
    for _ in range(8):
        n = int(rng.integers(3, 13))
        h = random_connected(rng, 2, n, max_extra=int(rng.integers(0, 2 * n)))
        cert = analytic_connectivity(h, FAST)
        assert cert.converged, h.edges
        assert cert.per_vertex_values == pytest.approx(deleted_laplacian_minima(h), abs=1e-8), h.edges


def test_k2_alpha_bracket_contains_the_matrix_minimum():
    # eigvalsh and the brackets each round at about n * max degree * 2**-53,
    # far below this allowance
    slack = 1e-12
    rng = np.random.default_rng(135)
    for n in (5, 10, 15, 20, 25, 30):
        for _ in range(2):
            h = random_connected(rng, 2, n, max_extra=int(rng.integers(0, 2 * n)))
            cert = analytic_connectivity(h)
            exact = min(deleted_laplacian_minima(h))
            assert cert.converged, h.edges
            assert cert.lower_bound - slack <= exact <= cert.alpha + slack, h.edges
            assert cert.alpha - cert.lower_bound <= 1e-10


def test_alpha_bracket_closes_on_random_graphs():
    rng = np.random.default_rng(145)
    for _ in range(12):
        k = int(rng.integers(3, 6))
        h = random_connected(rng, k, int(rng.integers(k + 1, 12)))
        cert = analytic_connectivity(h)
        assert cert.converged
        assert 0.0 <= cert.lower_bound <= cert.alpha <= cert.lower_bound + 1e-10
        for lo, value in zip(cert.per_vertex_lower_bounds, cert.per_vertex_values):
            assert lo <= value <= lo + 1e-10


def test_relabelling_gives_overlapping_alpha_brackets():
    rng = np.random.default_rng(175)
    for _ in range(6):
        k = int(rng.integers(3, 5))
        h = random_connected(rng, k, int(rng.integers(k + 1, 10)))
        perm = rng.permutation(h.n)
        relabelled = Hypergraph.from_edges(k, h.n, [[int(perm[v]) for v in e] for e in h.edges])
        a, b = analytic_connectivity(h), analytic_connectivity(relabelled)
        assert max(a.lower_bound, b.lower_bound) <= min(a.alpha, b.alpha)


def golden_graph(request, name: str) -> Hypergraph:
    """A conftest fixture by name, or one of the seeded graphs below."""
    seeded = {
        "k3": lambda: random_connected(np.random.default_rng(31), 3, 7),
        "k4": lambda: random_connected(np.random.default_rng(41), 4, 7),
        "union": lambda: disjoint_union(
            random_connected(np.random.default_rng(51), 3, 5),
            random_connected(np.random.default_rng(52), 3, 4),
        ),
        "parts": lambda: disjoint_union(
            disjoint_union(
                random_connected(np.random.default_rng(53), 3, 6),
                random_connected(np.random.default_rng(54), 3, 4),
            ),
            disjoint_union(
                random_connected(np.random.default_rng(55), 3, 5),
                random_connected(np.random.default_rng(56), 3, 3),
            ),
        ),
    }
    return seeded[name]() if name in seeded else request.getfixturevalue(name)


# (per_vertex_values, pinned_vertex, converged) under FAST, as recorded from
# the solver that ran one (pin, start) pair at a time
GOLDEN_PER_PIN = {
    "two_edge_path": ((0.5344287681232319, 1.0000000000000002, 1.0, 0.5344287681232319), 0, True),
    "hub_graph": (
        (
            0.43004588548866324,
            0.4300458854886635,
            0.4300458854886633,
            1.0,
            1.0,
            0.43004588548866324,
            0.4300458854886634,
            0.43004588548866346,
        ),
        0,
        True,
    ),
    "k3": (
        (
            0.540722736015907,
            1.0,
            0.5233502414144724,
            0.9309770039598858,
            0.7014321150905568,
            0.288023417897906,
            0.5407227360159075,
        ),
        5,
        True,
    ),
    "k4": (
        (
            1.300722474474469,
            0.914960279889127,
            1.2561816512613138,
            2.000000000000001,
            1.8261310712457852,
            0.8626111352247159,
            1.262796899816483,
        ),
        5,
        True,
    ),
    "union": ((0.0,) * 9, 0, True),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PER_PIN))
def test_batched_solver_matches_recorded_per_pin_values(name, request):
    cert = analytic_connectivity(golden_graph(request, name), FAST)
    values, pinned, converged = GOLDEN_PER_PIN[name]
    assert cert.per_vertex_values == pytest.approx(values, abs=1e-12)
    assert cert.pinned_vertex == pinned
    assert cert.converged is converged
    # the recorded values lie in the certified per-pin brackets, and no
    # value rose above its record, both up to the same 1e-12
    for lo, value, recorded in zip(cert.per_vertex_lower_bounds, cert.per_vertex_values, values):
        assert lo - 1e-12 <= recorded
        assert value <= recorded + 1e-12


def _alpha_floats(h: Hypergraph) -> tuple:
    cert = analytic_connectivity(h, FAST)
    return (
        cert.per_vertex_values,
        cert.per_vertex_lower_bounds,
        cert.lower_bound,
        cert.minimizer.tolist(),
        cert.converged,
    )


def _radius_floats(h: Hypergraph) -> list:
    res = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, h)
    return [(c.bracket, c.vector.tolist(), c.iterations, c.converged) for c in res.components]


@pytest.mark.parametrize(
    "name, rows, solve",
    [
        pytest.param("hub_graph", 2, _alpha_floats, id="hub_graph-2"),
        pytest.param("hub_graph", 3, _alpha_floats, id="hub_graph-3"),
        pytest.param("union", 1, _alpha_floats, id="union-1"),
        pytest.param("union", 3, _alpha_floats, id="union-3"),
        pytest.param("union", 1, _radius_floats, id="union-1-radius"),
        pytest.param("parts", 1, _alpha_floats, id="parts-1"),
        pytest.param("parts", 3, _alpha_floats, id="parts-3"),
        pytest.param("parts", 1, _radius_floats, id="parts-1-radius"),
    ],
)
def test_working_set_capacity_does_not_change_the_answer(name, rows, solve, request, monkeypatch):
    # chunks of one row, or of a few rows that need not divide the row count
    # (hub_graph-3 runs chunks of 3, 3 and 2 pins), give the same floats and
    # brackets as one chunk that holds every row
    h = golden_graph(request, name)
    want = solve(h)
    monkeypatch.setattr(eigen, "ROW_ENTRY_CAP", rows * h.m * h.k)
    assert solve(h) == want


def test_kkt_residual_matches_loop_reference():
    def loop_residual(h, pinned, x, mu):
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

    rng = np.random.default_rng(95)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        h = random_connected(rng, k, int(rng.integers(k + 1, 10)))
        x = rng.random(h.n) * (rng.random(h.n) < 0.7)
        pinned = int(rng.integers(h.n))
        x[pinned] = 0.0
        mu = float(rng.random())
        assert connectivity._kkt_residual(h, pinned, x, mu) == loop_residual(h, pinned, x, mu)


# ---------------------------------------------------------------------------
# brute-force cuts


def test_cut_numbers_on_hub_graph(hub_graph):
    cn = cut_numbers(hub_graph)
    assert cn.connected
    assert cn.edge_connectivity == 2
    assert cn.min_witness == (0,)
    assert cn.max_cut == 8
    assert cn.max_witness == (0, 1, 3, 5)


def test_brute_force_matches_naive_reference():
    rng = np.random.default_rng(25)
    for _ in range(12):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 10))
        h = random_connected(rng, k, n)
        want_min, wit_min, want_max, wit_max = naive_cut_extremes(h)
        cn = cut_numbers(h)
        assert cn.edge_connectivity == want_min
        assert cn.max_cut == want_max
        assert cn.min_witness == wit_min  # first witness in subset-size-then-lex order
        assert cn.max_witness == wit_max


def test_disconnected_graph_has_zero_edge_connectivity(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    cn = cut_numbers(u)
    assert cn.edge_connectivity == 0
    assert not cn.connected


def test_single_edge_cuts():
    h = single_edge(3)
    cn = cut_numbers(h)
    assert cn.edge_connectivity == 1
    assert cn.max_cut == 1


@pytest.mark.parametrize("options", [PowerOptions, AlphaOptions])
def test_options_take_only_an_integer_iteration_cap_of_at_least_one(options):
    # a cap below 1 would run no power step and still polish, and 2.5 would
    # run 3 steps; numpy integers, as from an array, are integers
    for bad in (0, -5, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="max_iter"):
            options(max_iter=bad)
    for good in (1, 7, np.int64(3), np.int32(1)):
        assert options(max_iter=good).max_iter == good


def test_brute_force_caps_at_twenty_vertices():
    rng = np.random.default_rng(35)
    h = random_connected(rng, 3, 21, max_extra=0)
    with pytest.raises(ValueError):
        cut_numbers(h)
    with pytest.raises(ValueError):
        summation_law_check(h, 0.1)


# ---------------------------------------------------------------------------
# laws connecting alpha and the cuts


def loop_summation_law(h: Hypergraph, alpha: float) -> list[str]:
    """Reference sweep: every subset and every edge in plain Python, with sets."""
    violations = []
    for mask in range(1, (1 << h.n) - 1):
        subset = tuple(v for v in range(h.n) if mask >> v & 1)
        sset = set(subset)
        t_total = crossing = 0
        for e in h.edges:
            t = sum(1 for v in e if v in sset)
            if 0 < t < h.k:
                crossing += 1
                t_total += t
        lhs = len(subset) * alpha
        if lhs > float(t_total) + 1e-7 * (1 + abs(float(t_total))):
            violations.append(f"S={subset}: {lhs} > {float(t_total)} (crossing={crossing})")
    return violations


def test_summation_law_matches_loop_reference():
    rng = np.random.default_rng(65)
    violated = 0
    for _ in range(12):
        k = int(rng.integers(2, 6))
        h = random_connected(rng, k, int(rng.integers(k + 1, 10)))
        alpha = analytic_connectivity(h, FAST).alpha
        for a in (0.0, alpha, 1.0, 2.5, 7.0, float(rng.uniform(0.0, 10.0))):
            want = loop_summation_law(h, a)
            assert summation_law_check(h, a) == want, (h.edges, a)
            violated += len(want) > 0
    assert violated > 0  # the sweep sees laws that fail as well as ones that hold


def test_summation_law_on_hub_graph(hub_graph):
    cert = analytic_connectivity(hub_graph, FAST)
    assert summation_law_check(hub_graph, cert.alpha) == []
    # an impossibly large alpha violates the law somewhere
    assert summation_law_check(hub_graph, 50.0) != []


def test_connectivity_bound_report_on_connected_graphs():
    rng = np.random.default_rng(45)
    for _ in range(6):
        k = int(rng.integers(3, 5))
        n = int(rng.integers(k + 1, 9))
        h = random_connected(rng, k, n)
        cert = analytic_connectivity(h, AlphaOptions(starts=8, seed=2))
        rep = connectivity_bound_report(h, cert, cut_numbers(h))
        assert rep.all_hold, [c for c in rep.checks if not c.holds]


def test_bound_report_flags_a_violated_cut_bound_once(hub_graph, monkeypatch):
    # (n/k) * alpha = 4 > e(G) = 2 while alpha = 1.5 stays below delta = 2
    cert = replace(analytic_connectivity(hub_graph), alpha=1.5)

    def no_resolve(*args, **kwargs):
        raise AssertionError("the bound report must not re-solve alpha")

    monkeypatch.setattr(connectivity, "analytic_connectivity", no_resolve)
    rep = connectivity_bound_report(hub_graph, cert, cut_numbers(hub_graph))
    failed = [c for c in rep.checks if not c.holds]
    assert [c.bound_id for c in failed] == ["edge_connectivity_at_least_scaled_alpha"]
    assert failed[0].lhs == pytest.approx(4.0 - 1e-6)
    assert "defect" in failed[0].note
    assert [c.bound_id for c in rep.checks].count(failed[0].bound_id) == 1


def test_connectivity_bound_report_on_disconnected_graph(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    cert = analytic_connectivity(u, FAST)
    rep = connectivity_bound_report(u, cert, cut_numbers(u))
    assert rep.all_hold
    by_id = {c.bound_id: c for c in rep.checks}
    assert "disconnected" in by_id["alpha_positive_iff_connected"].note


def test_small_vertex_count_forces_edge_connectivity_to_min_degree():
    # with n <= 2k - 1 every bipartition is crossed by every edge it splits
    rng = np.random.default_rng(55)
    for k in (3, 4, 5):
        for _ in range(4):
            n = int(rng.integers(k + 1, 2 * k))
            h = random_connected(rng, k, n)
            _, dmin, _ = degree_stats(h)
            assert cut_numbers(h).edge_connectivity == dmin


def test_scaled_alpha_lower_bounds_edge_connectivity():
    rng = np.random.default_rng(65)
    for _ in range(8):
        k = int(rng.integers(3, 5))
        n = int(rng.integers(k + 1, 9))
        h = random_connected(rng, k, n)
        cert = analytic_connectivity(h, AlphaOptions(starts=8, seed=4))
        e_g = cut_numbers(h).edge_connectivity
        assert (n / k) * cert.alpha <= e_g + 1e-6


def test_max_cut_degree_bound():
    rng = np.random.default_rng(75)
    for _ in range(8):
        k = int(rng.integers(3, 5))
        n = int(rng.integers(k + 1, 10))
        h = random_connected(rng, k, n)
        dmax, dmin, davg = degree_stats(h)
        c_g = cut_numbers(h).max_cut
        assert c_g <= (n / k) * (2 * float(davg) - dmin) + 1e-9
