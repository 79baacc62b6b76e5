"""Independent cross-checks: Newton eigenpair hunting, grid extremization,
subset enumeration, and the cubic root used by the two-edge closed form."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hyperspec import (
    AlphaOptions,
    Classification,
    Hypergraph,
    TensorKind,
    analytic_connectivity,
    cut_numbers,
    form,
    grid_extremize_form,
    newton_eigen_enumerate,
    solve_beta,
    spectral_radius,
    structural_eigenpairs,
    subset_enumerate,
)
from hyperspec.eigen import normalize_eigenvector
from hyperspec.oracle import project_simplex

from conftest import random_connected, single_edge


def pair_found(result, value: float, vector: np.ndarray, tol: float = 1e-6) -> bool:
    """Does the enumeration contain (value, vector) up to sign and tol?"""
    target = normalize_eigenvector(np.asarray(vector, dtype=float))
    for p in result.eigenpairs:
        if abs(p.value - value) > tol:
            continue
        v = np.asarray(p.vector)
        if min(np.abs(v - target).max(), np.abs(v + target).max()) <= tol:
            return True
    return False


# ---------------------------------------------------------------------------
# cubic root


def test_beta_solves_its_cubic():
    beta = solve_beta()
    assert abs(beta**3 + beta - 1) <= 1e-12
    assert 0.68 < beta < 0.69


# ---------------------------------------------------------------------------
# Newton enumeration


def test_newton_enumeration_recovers_structural_pairs(hub_graph, k6_edge):
    for h in (hub_graph, k6_edge):
        for kind in TensorKind:
            want = structural_eigenpairs(kind, h)
            got = newton_eigen_enumerate(kind, h, starts=24, seed=0)
            for pair in want:
                assert pair_found(got, pair.value, np.asarray(pair.vector)), (
                    h.k,
                    kind.name,
                    pair.value,
                )


def test_newton_enumeration_pairs_are_verified(hub_graph):
    got = newton_eigen_enumerate(TensorKind.LAPLACIAN, hub_graph, starts=8, seed=0)
    assert got.eigenpairs
    for p in got.eigenpairs:
        assert p.classification is not Classification.NOT_EIGENPAIR
        assert p.residual <= 1e-10


def test_newton_enumeration_deduplicates(two_edge_path):
    got = newton_eigen_enumerate(TensorKind.ADJACENCY, two_edge_path, starts=16, seed=0)
    pairs = got.eigenpairs
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            same_value = abs(pairs[i].value - pairs[j].value) <= 1e-6
            same_vector = (
                np.abs(np.asarray(pairs[i].vector) - np.asarray(pairs[j].vector)).max() <= 1e-6
            )
            assert not (same_value and same_vector)


def test_newton_enumeration_is_deterministic(two_edge_path):
    a = newton_eigen_enumerate(TensorKind.LAPLACIAN, two_edge_path, starts=12, seed=7)
    b = newton_eigen_enumerate(TensorKind.LAPLACIAN, two_edge_path, starts=12, seed=7)
    assert len(a.eigenpairs) == len(b.eigenpairs)
    for pa, pb in zip(a.eigenpairs, b.eigenpairs):
        assert pa.value == pb.value
        assert np.array_equal(np.asarray(pa.vector), np.asarray(pb.vector))


def test_newton_enumeration_reports_search_metadata(two_edge_path):
    got = newton_eigen_enumerate(TensorKind.ADJACENCY, two_edge_path, starts=10, seed=0)
    meta = got.meta
    assert meta.starts_per_pivot == 10
    assert meta.pivots == 4
    assert meta.attempts == 4 * (10 + 2)  # two canonical probes per pivot
    assert 0 < meta.converged <= meta.attempts
    assert meta.dedup_radius == 1e-6


def test_even_k_signless_eigenvalues_are_nonnegative():
    # for even k the signless form is a sum of even powers, so every
    # H-eigenvalue the hunter finds must be >= 0
    rng = np.random.default_rng(14)
    for _ in range(3):
        h = random_connected(rng, 4, 5, max_extra=2)
        got = newton_eigen_enumerate(TensorKind.SIGNLESS_LAPLACIAN, h, starts=12, seed=1)
        assert got.eigenpairs
        for p in got.eigenpairs:
            assert p.value >= -1e-9


# ---------------------------------------------------------------------------
# grid extremization


def test_grid_max_laplacian_single_edge_attains_max_degree():
    h = single_edge(3)
    res = grid_extremize_form(TensorKind.LAPLACIAN, h, objective="max", resolution=9)
    # the maximum sits at a corner of the simplex, which the grid contains
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.error_estimate >= 0.0


def test_grid_min_signless_single_edge_attains_min_degree():
    h = single_edge(3)
    res = grid_extremize_form(TensorKind.SIGNLESS_LAPLACIAN, h, objective="min", resolution=9)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_grid_max_signless_single_edge_attains_radius():
    # the maximizer is the uniform point, on-grid when 3 divides the resolution
    h = single_edge(3)
    res = grid_extremize_form(TensorKind.SIGNLESS_LAPLACIAN, h, objective="max", resolution=9)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    nu1 = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, h).value
    assert nu1 - res.value <= res.error_estimate + 1e-9


def test_grid_min_laplacian_is_near_zero_on_connected_graphs(two_edge_path):
    res = grid_extremize_form(TensorKind.LAPLACIAN, two_edge_path, objective="min")
    assert abs(res.value) <= 1e-9


def test_grid_point_reproduces_reported_value(two_edge_path):
    res = grid_extremize_form(TensorKind.SIGNLESS_LAPLACIAN, two_edge_path, objective="max")
    x = np.asarray(res.point)
    assert np.all(x >= 0)
    assert float(np.sum(x**two_edge_path.k)) == pytest.approx(1.0, abs=1e-12)
    assert form(TensorKind.SIGNLESS_LAPLACIAN, two_edge_path, x) == pytest.approx(
        res.value, abs=1e-12
    )


def test_grid_pinned_minimum_cross_checks_alpha(two_edge_path):
    cert = analytic_connectivity(two_edge_path, AlphaOptions(starts=8, seed=0))
    res = grid_extremize_form(
        TensorKind.LAPLACIAN, two_edge_path, objective="min", pinned=0, resolution=8
    )
    assert np.asarray(res.point)[0] == 0.0
    # the grid value upper-bounds the slice minimum and lands within its
    # error estimate of the solver's certificate
    assert res.value >= cert.alpha - 1e-9
    assert abs(res.value - cert.alpha) <= max(res.error_estimate, 1e-6)


def test_alpha_per_pin_brackets_agree_with_the_grid_minimum(two_edge_path):
    # the grid samples feasible points of the pinned slice, so its value is at
    # least the slice minimum, which the certified bracket contains; the slack
    # covers the grid rounding about 2e-16 below a tight lower bound
    rng = np.random.default_rng(215)
    for h in (two_edge_path, random_connected(rng, 3, 5), random_connected(rng, 4, 6)):
        cert = analytic_connectivity(h)
        for j in range(h.n):
            grid = grid_extremize_form(TensorKind.LAPLACIAN, h, "min", pinned=j).value
            assert cert.per_vertex_lower_bounds[j] - 1e-12 <= grid, (h.edges, j)
            assert cert.per_vertex_values[j] <= grid + 1e-12, (h.edges, j)


def test_project_simplex_is_the_nearest_simplex_point():
    rng = np.random.default_rng(85)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(20):
            v = rng.normal(size=9) * scale
            p = project_simplex(v)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            # no other simplex point is closer to v
            others = rng.dirichlet(np.ones(9), size=50)
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - others, axis=1).min() + 1e-12


def test_grid_rejects_large_graphs_and_bad_objectives(hub_graph, two_edge_path):
    with pytest.raises(ValueError):
        grid_extremize_form(TensorKind.LAPLACIAN, hub_graph, objective="max")  # n = 8 > 6
    with pytest.raises(ValueError):
        grid_extremize_form(TensorKind.LAPLACIAN, two_edge_path, objective="extreme")
    with pytest.raises(ValueError):
        grid_extremize_form(TensorKind.LAPLACIAN, two_edge_path, pinned=7)


def test_grid_radius_agreement_on_tiny_graphs():
    # every 3-uniform edge set on up to 5 vertices (no isolated vertices,
    # connected), up to relabeling: the grid maximum of the signless form
    # must match the power-iteration radius within the error estimate
    seen = set()
    all_edges = list(combinations(range(5), 3))
    for mask in range(1, 1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if mask >> i & 1]
        used = sorted({v for e in edges for v in e})
        remap = {v: i for i, v in enumerate(used)}
        canon = min(
            tuple(sorted(tuple(sorted(perm[remap[v]] for v in e)) for e in edges))
            for perm in _permutations(len(used))
        )
        if canon in seen:
            continue
        seen.add(canon)
        h = Hypergraph.from_edges(3, len(used), [tuple(remap[v] for v in e) for e in edges])
        if len(_components_of(h)) != 1:
            continue
        nu1 = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, h).value
        res = grid_extremize_form(TensorKind.SIGNLESS_LAPLACIAN, h, objective="max")
        assert res.value <= nu1 + 1e-9  # grid evaluations are feasible
        assert nu1 - res.value <= res.error_estimate + 1e-9


def _permutations(n: int):
    from itertools import permutations

    return [dict(enumerate(p)) for p in permutations(range(n))]


def _components_of(h: Hypergraph):
    from hyperspec import components

    return components(h)


# ---------------------------------------------------------------------------
# subset enumeration


def test_subset_enumeration_on_hub_graph(hub_graph):
    res = subset_enumerate(hub_graph)
    assert res.min_cut == 2
    assert res.min_witness == (0,)
    assert res.max_cut == 8
    assert res.max_witness == (0, 1, 3, 5)
    assert res.identities_checked == 2**8 - 2
    assert res.identity_failures == ()


def test_subset_enumeration_agrees_with_bitmask_bruteforce():
    rng = np.random.default_rng(24)
    for _ in range(8):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 10))
        h = random_connected(rng, k, n)
        res = subset_enumerate(h)
        cn = cut_numbers(h)
        assert res.min_cut == cn.edge_connectivity
        assert res.max_cut == cn.max_cut
        assert res.min_witness == cn.min_witness
        assert res.max_witness == cn.max_witness
        assert res.identity_failures == ()


def test_subset_enumeration_statistics_filter(two_edge_path):
    # both extremes always come back; the statistic gates the identity sweep
    mins = subset_enumerate(two_edge_path, statistic="minCut")
    assert mins.min_cut == 1 and mins.max_cut == 2
    assert mins.identities_checked == 0
    full = subset_enumerate(two_edge_path, statistic="allCutChecks")
    assert full.identities_checked == 2**4 - 2
    with pytest.raises(ValueError):
        subset_enumerate(two_edge_path, statistic="median")


def test_form_identities_hold_exactly_on_random_graphs():
    # the rational identities relating subset forms to edge counts are
    # checked inside subset_enumerate; any failure would be reported
    rng = np.random.default_rng(34)
    for _ in range(6):
        k = int(rng.integers(3, 5))
        n = int(rng.integers(k + 1, 9))
        h = random_connected(rng, k, n)
        res = subset_enumerate(h, statistic="allCutChecks")
        assert res.identities_checked == 2**h.n - 2
        assert res.identity_failures == ()


def test_indicator_forms_match_rational_identities(hub_graph):
    # spot check the identity behind the sweep: for S = {0,1,2} the signless
    # form of the indicator equals 2k|E(S)| + sum of crossing t, here 9
    x = np.array([1.0, 1, 1, 0, 0, 0, 0, 0])
    q = form(TensorKind.SIGNLESS_LAPLACIAN, hub_graph, x)
    lap = form(TensorKind.LAPLACIAN, hub_graph, x)
    assert Fraction(int(round(q))) == 2 * 3 * 1 + 3
    assert Fraction(int(round(lap))) == 3  # sum of crossing t values
