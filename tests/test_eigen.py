"""Eigenpair verification, spectral radii, structural pairs, and degree bounds."""

from __future__ import annotations

import numpy as np
import pytest

from hyperspec import (
    Classification,
    Definiteness,
    Hypergraph,
    PowerOptions,
    TensorKind,
    bound_report,
    degree_stats,
    disjoint_union,
    minimal_binary_eigenvectors,
    q_definiteness_probe,
    spectral_radius,
    structural_eigenpairs,
    verify_eigenpair,
)

from hyperspec.eigen import _restrict, newton_polish

from conftest import random_connected, single_edge

# Frozen anchors for the hub graph, obtained from the Collatz-Wielandt
# bracket of the shifted power iteration (width < 1e-10) and confirmed
# independently by the multistart Newton hunter finding the same H++ pair.
HUB_ADJ_RADIUS = 3.671149911001594
HUB_SIGNLESS_RADIUS = 8.54744467355454


def support(x) -> list[int]:
    return np.flatnonzero(np.abs(np.asarray(x)) > 1e-9).tolist()


# ---------------------------------------------------------------------------
# verification and classification


def test_triangle_indicator_is_strict_hplus_for_all_kinds(hub_graph):
    x = np.array([1.0, 1, 1, 0, 0, 0, 0, 0])
    for kind, lam in (
        (TensorKind.LAPLACIAN, 1.0),
        (TensorKind.SIGNLESS_LAPLACIAN, 3.0),
        (TensorKind.ADJACENCY, 1.0),
    ):
        pair = verify_eigenpair(kind, hub_graph, lam, x)
        assert pair.classification is Classification.H_PLUS_STRICT
        assert pair.residual <= 1e-12


def test_signed_vector_on_single_k6_edge_is_plain_h(k6_edge):
    x = np.array([1.0, 1, 1, -1, -1, -1])
    for kind, lam in ((TensorKind.LAPLACIAN, 2.0), (TensorKind.SIGNLESS_LAPLACIAN, 0.0)):
        pair = verify_eigenpair(kind, k6_edge, lam, x)
        assert pair.classification is Classification.H
        assert pair.residual <= 1e-12


def test_wrong_lambda_is_not_an_eigenpair(hub_graph):
    x = np.array([1.0, 1, 1, 0, 0, 0, 0, 0])
    pair = verify_eigenpair(TensorKind.LAPLACIAN, hub_graph, 2.5, x)
    assert pair.classification is Classification.NOT_EIGENPAIR
    assert pair.residual > 1e-8


def test_verify_rejects_zero_vector(hub_graph):
    with pytest.raises(ValueError):
        verify_eigenpair(TensorKind.LAPLACIAN, hub_graph, 0.0, np.zeros(8))


def test_classification_tolerates_sub_threshold_negative_entries(hub_graph):
    # an entry at -5e-10 counts as zero: still strict H+
    x = np.array([0.0, 0, 0, 0, 0, 1.0, 0, -5e-10])
    pair = verify_eigenpair(TensorKind.LAPLACIAN, hub_graph, 2.0, x)
    assert pair.classification is Classification.H_PLUS_STRICT
    # past the threshold the same construction classifies as plain H
    x = np.array([0.0, 0, 0, 0, 0, 1.0, 0, -5e-9])
    pair = verify_eigenpair(TensorKind.LAPLACIAN, hub_graph, 2.0, x)
    assert pair.classification is Classification.H


def test_verification_is_scale_invariant(hub_graph):
    x = np.array([1.0, 1, 1, 0, 0, 0, 0, 0])
    for scale in (0.01, 7.3, 1e6):
        pair = verify_eigenpair(TensorKind.SIGNLESS_LAPLACIAN, hub_graph, 3.0, scale * x)
        assert pair.classification is Classification.H_PLUS_STRICT
        assert np.abs(np.asarray(pair.vector)).max() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spectral radii


def test_hub_graph_radii_match_frozen_anchors(hub_graph):
    adj = spectral_radius(TensorKind.ADJACENCY, hub_graph)
    sig = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, hub_graph)
    assert adj.converged and sig.converged
    assert adj.value == pytest.approx(HUB_ADJ_RADIUS, abs=1e-8)
    assert sig.value == pytest.approx(HUB_SIGNLESS_RADIUS, abs=1e-8)
    assert np.all(np.asarray(adj.vector) > 0)
    assert np.all(np.asarray(sig.vector) > 0)
    # the Perron witness reproduces the radius as an eigenpair
    pair = verify_eigenpair(TensorKind.ADJACENCY, hub_graph, adj.value, np.asarray(adj.vector))
    assert pair.classification is Classification.H_PLUS_PLUS


def test_single_k6_edge_signless_radius_is_two(k6_edge):
    res = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, k6_edge)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert np.all(np.asarray(res.vector) > 0)


def test_single_edge_adjacency_radius_is_one():
    for k in (3, 4, 6):
        res = spectral_radius(TensorKind.ADJACENCY, single_edge(k))
        assert res.value == pytest.approx(1.0, abs=1e-10)


def test_spectral_radius_rejects_laplacian(hub_graph):
    with pytest.raises(ValueError):
        spectral_radius(TensorKind.LAPLACIAN, hub_graph)


def test_collatz_wielandt_bracket_contains_value(hub_graph):
    res = spectral_radius(TensorKind.ADJACENCY, hub_graph)
    comp = res.components[0]
    lo, hi = comp.bracket
    assert lo <= res.value <= hi
    assert hi - lo <= 2e-10


def test_power_iteration_start_independence(hub_graph):
    rng = np.random.default_rng(2)
    base = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, hub_graph)
    for _ in range(3):
        start = rng.uniform(0.5, 2.0, size=8)
        res = spectral_radius(
            TensorKind.SIGNLESS_LAPLACIAN, hub_graph, PowerOptions(start=start)
        )
        assert abs(res.value - base.value) <= 2e-10


def test_explicit_shift_matches_default(hub_graph):
    base = spectral_radius(TensorKind.ADJACENCY, hub_graph)
    shifted = spectral_radius(TensorKind.ADJACENCY, hub_graph, PowerOptions(shift=11.0))
    assert abs(base.value - shifted.value) <= 2e-10


def test_radius_bounds_on_random_graphs():
    rng = np.random.default_rng(19)
    for _ in range(15):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 10))
        h = random_connected(rng, k, n)
        dmax, _, davg = degree_stats(h)
        lam1 = spectral_radius(TensorKind.ADJACENCY, h).value
        nu1 = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, h).value
        assert float(davg) - 1e-8 <= lam1 <= dmax + 1e-8
        assert max(float(dmax), 2 * float(davg)) - 1e-8 <= nu1 <= 2 * dmax + 1e-8
        assert nu1 >= lam1 - 1e-8


def test_disjoint_union_radius_is_componentwise_max(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    for kind in (TensorKind.ADJACENCY, TensorKind.SIGNLESS_LAPLACIAN):
        parts = [spectral_radius(kind, hub_graph).value, spectral_radius(kind, two_edge_path).value]
        whole = spectral_radius(kind, u)
        assert whole.value == pytest.approx(max(parts), abs=2e-10)
        assert len(whole.components) == 2
        got = sorted(c.value for c in whole.components)
        assert got == pytest.approx(sorted(parts), abs=2e-10)


def test_connected_graph_is_its_own_component_subgraph(hub_graph, two_edge_path):
    assert _restrict(hub_graph, tuple(range(hub_graph.n))) is hub_graph
    u = disjoint_union(hub_graph, two_edge_path)
    part = _restrict(u, tuple(range(hub_graph.n, u.n)))
    assert part.edges == two_edge_path.edges


def test_nonconvergence_is_reported_not_raised(hub_graph):
    res = spectral_radius(TensorKind.ADJACENCY, hub_graph, PowerOptions(max_iter=2))
    assert not res.converged


# ---------------------------------------------------------------------------
# structural eigenpairs


def test_structural_laplacian_pairs_on_hub_graph(hub_graph):
    pairs = structural_eigenpairs(TensorKind.LAPLACIAN, hub_graph)
    got = {(round(p.value, 9), tuple(support(p.vector))) for p in pairs}
    want = {(float(hub_graph.degrees[j]), (j,)) for j in range(8)}
    want.add((0.0, tuple(range(8))))
    assert got == want
    for p in pairs:
        assert p.residual <= 1e-12
        if len(support(p.vector)) == 1:
            assert p.classification is Classification.H_PLUS_STRICT
        else:
            assert p.classification is Classification.H_PLUS_PLUS


def test_structural_signless_pairs_on_hub_graph(hub_graph):
    pairs = structural_eigenpairs(TensorKind.SIGNLESS_LAPLACIAN, hub_graph)
    indicators = [p for p in pairs if len(support(p.vector)) == 1]
    full = [p for p in pairs if len(support(p.vector)) == 8]
    assert {round(p.value, 9) for p in indicators} == {2.0, 6.0}
    assert len(indicators) == 8
    assert len(full) == 1
    assert full[0].value == pytest.approx(HUB_SIGNLESS_RADIUS, abs=1e-8)
    assert full[0].classification is Classification.H_PLUS_PLUS
    for p in pairs:
        assert p.residual <= 1e-12


def test_structural_adjacency_pairs_on_hub_graph(hub_graph):
    pairs = structural_eigenpairs(TensorKind.ADJACENCY, hub_graph)
    values = sorted(round(p.value, 9) for p in pairs)
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(HUB_ADJ_RADIUS, abs=1e-8)
    zero = [p for p in pairs if p.value == 0.0]
    assert zero and all(p.classification is Classification.H_PLUS_STRICT for p in zero)
    for p in pairs:
        assert p.residual <= 1e-12


def test_structural_pairs_on_k6_edge(k6_edge):
    lap = structural_eigenpairs(TensorKind.LAPLACIAN, k6_edge)
    got = {(round(p.value, 9), tuple(support(p.vector))) for p in lap}
    want = {(1.0, (j,)) for j in range(6)} | {(0.0, tuple(range(6)))}
    assert got == want
    sig = structural_eigenpairs(TensorKind.SIGNLESS_LAPLACIAN, k6_edge)
    radii = [p for p in sig if len(support(p.vector)) == 6]
    assert len(radii) == 1 and radii[0].value == pytest.approx(2.0, abs=1e-10)


def test_structural_pairs_per_component(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    pairs = structural_eigenpairs(TensorKind.SIGNLESS_LAPLACIAN, u)
    full_supports = {tuple(support(p.vector)) for p in pairs if len(support(p.vector)) > 1}
    assert tuple(range(8)) in full_supports
    assert tuple(range(8, 12)) in full_supports
    for p in pairs:
        assert p.residual <= 1e-12


def test_newton_polish_lands_on_matrix_eigenvalue_at_k2():
    rng = np.random.default_rng(7)
    for _ in range(6):
        h = random_connected(rng, 2, int(rng.integers(4, 13)))
        adj = np.zeros((h.n, h.n))
        for i, j in h.edges:
            adj[i, j] = adj[j, i] = 1.0
        for kind, matrix in (
            (TensorKind.ADJACENCY, adj),
            (TensorKind.SIGNLESS_LAPLACIAN, np.diag(h.degree_vector) + adj),
        ):
            values, vectors = np.linalg.eigh(matrix)
            start = np.abs(vectors[:, -1]) * (1.0 + 0.05 * rng.random(h.n))
            lam, x = newton_polish(kind, h, values[-1] + 0.05, start, range(h.n))
            assert lam == pytest.approx(values[-1], abs=1e-12)
            assert verify_eigenpair(kind, h, lam, x).residual <= 1e-12


@pytest.mark.parametrize("k, sizes", [(3, (7, 6)), (4, (8, 6))])
def test_newton_polish_each_component_on_the_full_graph(k, sizes):
    rng = np.random.default_rng(k)
    u = disjoint_union(*(random_connected(rng, k, n) for n in sizes))
    for kind in (TensorKind.ADJACENCY, TensorKind.SIGNLESS_LAPLACIAN):
        loose = spectral_radius(kind, u, PowerOptions(tol=1e-4))
        assert len(loose.components) == 2
        for comp in loose.components:
            assert verify_eigenpair(kind, u, comp.value, comp.vector).residual > 1e-8
            lam, x = newton_polish(kind, u, comp.value, comp.vector, comp.vertices)
            assert support(x) == list(comp.vertices)
            assert verify_eigenpair(kind, u, lam, x).residual <= 1e-12


def test_structural_pairs_reject_k2():
    h = Hypergraph.from_edges(2, 3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        structural_eigenpairs(TensorKind.LAPLACIAN, h)


# ---------------------------------------------------------------------------
# binary zero-eigenvectors of L


def test_minimal_binary_eigenvectors_are_component_indicators(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    vecs = minimal_binary_eigenvectors(u)
    assert len(vecs) == 2
    assert [support(v) for v in vecs] == [list(range(8)), list(range(8, 12))]
    for v in vecs:
        pair = verify_eigenpair(TensorKind.LAPLACIAN, u, 0.0, v)
        assert pair.classification is not Classification.NOT_EIGENPAIR
        assert pair.residual <= 1e-12


def test_combinations_of_component_indicators_stay_eigenvectors(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    vecs = minimal_binary_eigenvectors(u)
    rng = np.random.default_rng(4)
    for _ in range(10):
        coeffs = rng.uniform(0.2, 2.0, size=len(vecs))
        x = sum(c * v for c, v in zip(coeffs, vecs))
        pair = verify_eigenpair(TensorKind.LAPLACIAN, u, 0.0, x)
        assert pair.classification is Classification.H_PLUS_PLUS
        assert pair.residual <= 1e-12


# ---------------------------------------------------------------------------
# degree-bound report


def test_bound_report_holds_with_computed_radii(hub_graph):
    lam1 = spectral_radius(TensorKind.ADJACENCY, hub_graph).value
    nu1 = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, hub_graph).value
    rep = bound_report(hub_graph, lambda1=lam1, nu1=nu1)
    assert rep.all_hold
    ids = [c.bound_id for c in rep.checks]
    assert ids == [
        "adjacency_radius_lower",
        "adjacency_radius_upper",
        "signless_radius_lower",
        "signless_radius_upper",
        "signless_gershgorin_band",
        "signless_dominates_adjacency",
    ]


def test_bound_report_flags_impossible_values(hub_graph):
    rep = bound_report(hub_graph, lambda1=100.0)
    failed = {c.bound_id for c in rep.checks if not c.holds}
    assert failed == {"adjacency_radius_upper"}
    assert not rep.all_hold
    rep = bound_report(hub_graph, lambda1=5.0, nu1=4.0)
    assert "signless_dominates_adjacency" in {c.bound_id for c in rep.checks if not c.holds}


def test_bound_report_without_values_is_empty(hub_graph):
    rep = bound_report(hub_graph)
    assert rep.checks == ()
    assert rep.all_hold  # vacuously


# ---------------------------------------------------------------------------
# signless Laplacian definiteness (even k)


def test_definiteness_rejects_odd_k(hub_graph):
    with pytest.raises(ValueError):
        q_definiteness_probe(hub_graph)


def test_k4_is_always_positive_definite():
    rng = np.random.default_rng(6)
    for _ in range(5):
        h = random_connected(rng, 4, int(rng.integers(5, 9)))
        res = q_definiteness_probe(h)
        assert res.status is Definiteness.POSITIVE_DEFINITE
        assert res.witness is None


def test_k6_single_edge_has_balanced_zero_witness(k6_edge):
    res = q_definiteness_probe(k6_edge)
    assert res.status is Definiteness.HAS_ZERO_EIGENVALUE
    w = np.asarray(res.witness)
    assert set(np.unique(w)) == {-1.0, 1.0}
    assert w[0] == 1.0
    pair = verify_eigenpair(TensorKind.SIGNLESS_LAPLACIAN, k6_edge, 0.0, w)
    assert pair.classification is Classification.H
    assert pair.residual <= 1e-12


def test_complete_6_uniform_on_7_vertices_is_positive_definite():
    # seven vertices cannot be split 3/3 by every edge simultaneously
    from itertools import combinations

    edges = list(combinations(range(7), 6))
    h = Hypergraph.from_edges(6, 7, edges)
    res = q_definiteness_probe(h)
    assert res.status is Definiteness.POSITIVE_DEFINITE


def test_large_k6_graph_is_inconclusive():
    rng = np.random.default_rng(8)
    h = random_connected(rng, 6, 30, max_extra=0)
    res = q_definiteness_probe(h)
    assert res.status is Definiteness.INCONCLUSIVE
    assert res.witness is None
