"""Analytic connectivity, brute-force cut numbers, and the bounds tying them."""

from __future__ import annotations

import numpy as np
import pytest

from hyperspec import (
    AlphaOptions,
    Hypergraph,
    TensorKind,
    analytic_connectivity,
    apply,
    connectivity_bound_report,
    cut_numbers,
    degree_stats,
    disjoint_union,
    edge_connectivity_bruteforce,
    form,
    max_cut_bruteforce,
    solve_beta,
    summation_law_check,
)

from hyperspec import connectivity
from hyperspec.connectivity import project_simplex

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
    assert cert.alpha == 0.0  # the component indicator start lands exactly on zero


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


def test_k2_per_pin_values_match_deleted_laplacian_eigenvalues():
    # at k = 2 the slice pinned at j minimizes x^T L_j x over the nonnegative
    # unit sphere, with L_j the Laplacian minus row and column j; L_j is a
    # Z-matrix, so a nonnegative eigenvector attains its smallest eigenvalue
    rng = np.random.default_rng(45)
    for _ in range(8):
        n = int(rng.integers(3, 13))
        h = random_connected(rng, 2, n, max_extra=int(rng.integers(0, 2 * n)))
        lap = np.diag(h.degree_vector)
        for a, b in h.edges:
            lap[a, b] = lap[b, a] = -1.0
        cert = analytic_connectivity(h, FAST)
        for j in range(n):
            keep = [i for i in range(n) if i != j]
            exact = np.linalg.eigvalsh(lap[np.ix_(keep, keep)])[0]
            assert cert.per_vertex_values[j] == pytest.approx(exact, abs=1e-8), (h.edges, j)


def golden_graph(request, name: str) -> Hypergraph:
    """A conftest fixture by name, or one of the seeded graphs below."""
    seeded = {
        "k3": lambda: random_connected(np.random.default_rng(31), 3, 7),
        "k4": lambda: random_connected(np.random.default_rng(41), 4, 7),
        "union": lambda: disjoint_union(
            random_connected(np.random.default_rng(51), 3, 5),
            random_connected(np.random.default_rng(52), 3, 4),
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


@pytest.mark.parametrize("name, rows", [("hub_graph", 2), ("union", 1), ("union", 3)])
def test_working_set_capacity_does_not_change_the_answer(name, rows, request, monkeypatch):
    # one live row at a time is the start-by-start order; a few rows force
    # refills and, on the union, drops of rows after a start that reached 0
    h = golden_graph(request, name)
    want = analytic_connectivity(h, FAST)
    monkeypatch.setattr(connectivity, "ROW_ENTRY_CAP", rows * h.m * h.k)
    got = analytic_connectivity(h, FAST)
    assert got.per_vertex_values == want.per_vertex_values
    assert np.array_equal(got.minimizer, want.minimizer)
    assert got.converged == want.converged


def test_project_simplex_rows_match_one_dimensional_calls():
    rng = np.random.default_rng(85)
    v = rng.normal(size=(40, 9)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
    rows = project_simplex(v)
    for r in range(v.shape[0]):
        assert np.array_equal(rows[r], project_simplex(v[r]))
        assert rows[r].min() >= 0.0
        assert rows[r].sum() == pytest.approx(1.0, abs=1e-12)


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


def test_slice_gradient_release_matches_maximum_at_reference():
    def reference_gradients(h, u):
        # the release test as the largest, over edges through i, of the
        # smallest u among the other vertices, scattered by np.maximum.at
        k, (rows, n) = h.k, u.shape
        u = np.maximum(u, 0.0)
        x = u ** (1.0 / k)
        a = apply(TensorKind.ADJACENCY, h, x)
        active = u > connectivity.EPS_U
        ratio = np.zeros_like(u)
        ratio[active] = a[active] / (x ** (k - 1))[active]
        ue = np.take(u, h.edge_index, axis=1)
        others = np.stack([np.delete(ue, j, axis=-1).min(axis=-1) for j in range(k)], axis=-1)
        release = np.zeros(u.size)
        np.maximum.at(release, np.arange(rows)[:, None, None] * n + h.edge_index, others)
        ratio[~active & (release.reshape(rows, n) > 1e-9)] = connectivity.RATIO_CAP
        return h.degree_vector - np.minimum(ratio, connectivity.RATIO_CAP)

    rng = np.random.default_rng(115)
    released = held = 0
    for k in range(2, 9):
        for _ in range(4):
            h = random_connected(rng, k, int(rng.integers(k + 1, k + 9)), max_extra=30)
            u = rng.random((6, h.n))
            # exact zeros, the 1e-9 release threshold itself, and values either side of it
            for value, share in ((0.0, 0.3), (1e-9, 0.15), (np.nextafter(1e-9, 1), 0.1), (1e-14, 0.1)):
                u[rng.random(u.shape) < share] = value
            want = reference_gradients(h, u)
            assert np.array_equal(connectivity._slice_gradients(h, u), want)
            pulled = want == h.degree_vector - connectivity.RATIO_CAP
            released += pulled.sum()
            held += (~pulled & (u <= connectivity.EPS_U)).sum()
    assert released > 0 and held > 0


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
        emin = edge_connectivity_bruteforce(h)
        emax = max_cut_bruteforce(h)
        assert emin.value == want_min
        assert emax.value == want_max
        assert emin.witness == wit_min  # first witness in subset-size-then-lex order
        assert emax.witness == wit_max


def test_disconnected_graph_has_zero_edge_connectivity(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    res = edge_connectivity_bruteforce(u)
    assert res.value == 0
    assert not res.connected
    cn = cut_numbers(u)
    assert cn.edge_connectivity == 0
    assert not cn.connected


def test_single_edge_cuts():
    h = single_edge(3)
    assert edge_connectivity_bruteforce(h).value == 1
    assert max_cut_bruteforce(h).value == 1


def test_brute_force_caps_at_twenty_vertices():
    rng = np.random.default_rng(35)
    h = random_connected(rng, 3, 21, max_extra=0)
    with pytest.raises(ValueError):
        edge_connectivity_bruteforce(h)
    with pytest.raises(ValueError):
        max_cut_bruteforce(h)
    with pytest.raises(ValueError):
        summation_law_check(h, 0.1)


# ---------------------------------------------------------------------------
# laws connecting alpha and the cuts


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
            assert edge_connectivity_bruteforce(h).value == dmin


def test_scaled_alpha_lower_bounds_edge_connectivity():
    rng = np.random.default_rng(65)
    for _ in range(8):
        k = int(rng.integers(3, 5))
        n = int(rng.integers(k + 1, 9))
        h = random_connected(rng, k, n)
        cert = analytic_connectivity(h, AlphaOptions(starts=8, seed=4))
        e_g = edge_connectivity_bruteforce(h).value
        assert (n / k) * cert.alpha <= e_g + 1e-6


def test_max_cut_degree_bound():
    rng = np.random.default_rng(75)
    for _ in range(8):
        k = int(rng.integers(3, 5))
        n = int(rng.integers(k + 1, 10))
        h = random_connected(rng, k, n)
        dmax, dmin, davg = degree_stats(h)
        c_g = max_cut_bruteforce(h).value
        assert c_g <= (n / k) * (2 * float(davg) - dmin) + 1e-9
