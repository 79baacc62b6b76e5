"""Eigenpair verification, spectral radii, structural pairs, and degree bounds."""

from __future__ import annotations

import dataclasses
import math
import time
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest

from hyperspec import (
    Classification,
    Definiteness,
    Hypergraph,
    PowerOptions,
    TensorKind,
    apply,
    bound_report,
    components,
    degree_stats,
    disjoint_union,
    minimal_binary_eigenvectors,
    q_definiteness_probe,
    spectral_radius,
    structural_eigenpairs,
    verify_eigenpair,
)

from hyperspec import eigen
from hyperspec.eigen import newton_polish
from hyperspec.hypergraph import component_labels, row_edges

from conftest import induced, random_connected, single_edge

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
    # the union's radius bracket overlaps that of its largest part
    rng = np.random.default_rng(165)
    for _ in range(6):
        k = int(rng.integers(3, 5))
        parts = [random_connected(rng, k, int(rng.integers(k + 1, 9))) for _ in range(2)]
        union = disjoint_union(*parts)
        for kind in (TensorKind.ADJACENCY, TensorKind.SIGNLESS_LAPLACIAN):
            whole = spectral_radius(kind, union)
            part = max((spectral_radius(kind, p) for p in parts), key=lambda r: r.value)
            lo, hi = max(whole.components, key=lambda c: c.value).bracket
            plo, phi = part.components[0].bracket
            assert max(lo, plo) <= min(hi, phi)
            assert whole.value == pytest.approx(part.value, abs=1e-13)


def test_radii_of_graphs_with_thousands_of_components(two_edge_path):
    # a component's floats do not depend on the other segments of its row
    n, copies = two_edge_path.n, 1001
    edges = [tuple(v + n * c for v in e) for c in range(copies) for e in two_edge_path.edges]
    union = Hypergraph.from_edges(3, n * copies, edges)
    for kind in (TensorKind.ADJACENCY, TensorKind.SIGNLESS_LAPLACIAN):
        (one,) = spectral_radius(kind, two_edge_path).components
        res = spectral_radius(kind, union)
        assert len(res.components) == copies
        for c, comp in enumerate(res.components):
            assert comp.vertices == tuple(range(n * c, n * c + n))
            assert (comp.bracket, comp.iterations, comp.converged) == (one.bracket, one.iterations, True)
            assert np.array_equal(comp.values, one.values)
    # a perfect matching's 5,000 edges each close their bracket at the start
    matching = Hypergraph.from_edges(2, 10_000, [(v, v + 1) for v in range(0, 10_000, 2)])
    for kind, radius in ((TensorKind.ADJACENCY, 1.0), (TensorKind.SIGNLESS_LAPLACIAN, 2.0)):
        res = spectral_radius(kind, matching)
        assert len(res.components) == 5_000 and res.value == radius
        assert all(c.bracket == (radius, radius) and c.iterations == 0 for c in res.components)


def test_radius_pair_residuals_of_a_mid_size_k4_graph():
    rng = np.random.default_rng(185)
    h = random_connected(rng, 4, 60, max_extra=1500)
    for kind in (TensorKind.ADJACENCY, TensorKind.SIGNLESS_LAPLACIAN):
        res = spectral_radius(kind, h)
        assert res.converged
        pair = structural_eigenpairs(kind, h, radius=res)[-1]
        assert pair.classification is Classification.H_PLUS_PLUS
        assert pair.residual <= 1e-12


def test_k2_radii_match_matrix_eigenvalues():
    # at k = 2 the adjacency tensor is the adjacency matrix, so rho(A) is its
    # largest eigenvalue and nu1 is that of D + A
    rng = np.random.default_rng(195)
    for n in (5, 10, 15, 20, 25, 30):
        for _ in range(2):
            h = random_connected(rng, 2, n, max_extra=int(rng.integers(0, 2 * n)))
            adj = np.zeros((n, n))
            for i, j in h.edges:
                adj[i, j] = adj[j, i] = 1.0
            for kind, matrix in (
                (TensorKind.ADJACENCY, adj),
                (TensorKind.SIGNLESS_LAPLACIAN, np.diag(h.degree_vector) + adj),
            ):
                value = spectral_radius(kind, h).value
                assert value == pytest.approx(np.linalg.eigvalsh(matrix)[-1], abs=1e-12), h.edges


def power_hypergraph(g: Hypergraph, k: int) -> Hypergraph:
    """G^k: each edge of the graph g gains k - 2 new vertices of its own."""
    new = g.n + (k - 2) * np.arange(g.m)[:, None] + np.arange(k - 2)
    return Hypergraph.from_edges(k, g.n + (k - 2) * g.m, np.hstack([g.edge_index, new]).tolist())


@pytest.mark.parametrize("k", [3, 4, 5])
def test_power_hypergraph_radius_is_the_graph_radius_to_the_power_2_over_k(k):
    # Zhou, Sun, Wang and Bu (Electron. J. Combin. 2014): rho(G^k) =
    # rho(G)^{2/k}; the hyperstar with d edges is the power of a star, d^{1/k}
    rng = np.random.default_rng(k)
    cases = []
    for n in rng.integers(4, 16, size=4):
        g = random_connected(rng, 2, int(n))
        matrix = np.zeros((g.n, g.n))
        matrix[g.edge_index[:, 0], g.edge_index[:, 1]] = matrix[g.edge_index[:, 1], g.edge_index[:, 0]] = 1.0
        cases.append((g, np.linalg.eigvalsh(matrix)[-1] ** (2 / k)))
    d = 40
    cases.append((Hypergraph.from_edges(2, d + 1, [(0, v) for v in range(1, d + 1)]), d ** (1 / k)))
    for g, anchor in cases:
        res = spectral_radius(TensorKind.ADJACENCY, power_hypergraph(g, k))
        (comp,) = res.components
        assert comp.bracket[0] - 1e-13 <= anchor <= comp.bracket[1] + 1e-13, g.edges
        assert res.value == pytest.approx(anchor, abs=1e-13), g.edges


def test_nonconvergence_is_reported_not_raised(hub_graph):
    res = spectral_radius(TensorKind.ADJACENCY, hub_graph, PowerOptions(max_iter=2))
    assert not res.converged


def test_only_a_polish_on_freezing_counts_toward_converged(hub_graph):
    # a default run takes 16 A steps and 18 Q steps on the hub graph.  A's
    # bracket first reaches POLISH_GAP on step 16, so with max_iter=16 it is
    # frozen and polished on its last allowed step, and that polish counts
    res = spectral_radius(TensorKind.ADJACENCY, hub_graph, PowerOptions(max_iter=16))
    (comp,) = res.components
    assert comp.iterations == 16
    assert res.converged
    # Q's bracket reaches POLISH_GAP only after step 17, so the cap stops it
    # first; the end-of-chunk polish closes it to a few ulps, which does not
    res = spectral_radius(TensorKind.SIGNLESS_LAPLACIAN, hub_graph, PowerOptions(max_iter=17))
    (comp,) = res.components
    assert comp.iterations == 17
    assert comp.bracket[1] - comp.bracket[0] <= 1e-14
    assert not res.converged


def test_failed_finishes_are_retried_a_bounded_number_of_times(hub_graph, monkeypatch):
    # with every Newton solve failing, the power iteration alone closes the
    # brackets; a segment is polished again each time its bracket narrows
    # tenfold, and only while it is wider than tol
    calls = []

    def failing_solve(a, b):
        if a.ndim == 3:  # a stack: count its segments; a failed stack is retried matrix by matrix
            calls.extend([None] * len(a))
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    opts = PowerOptions()
    attempts = math.ceil(math.log10(eigen.POLISH_GAP / opts.tol))
    anchors = {
        TensorKind.ADJACENCY: HUB_ADJ_RADIUS,
        TensorKind.SIGNLESS_LAPLACIAN: HUB_SIGNLESS_RADIUS,
    }
    for kind, anchor in anchors.items():
        calls.clear()
        res = spectral_radius(kind, hub_graph, opts)
        assert res.converged
        assert all(c.bracket[1] - c.bracket[0] <= opts.tol for c in res.components)
        assert res.value == pytest.approx(anchor, abs=1e-9)
        assert 1 <= len(calls) <= attempts * len(res.components)


def test_a_loose_path_is_finished_after_its_first_finish_fails():
    # the first finish of this slow-gap graph, at POLISH_GAP, fails, and the
    # power iteration alone would not close its bracket within max_iter
    h = power_hypergraph(Hypergraph.from_edges(2, 300, [(v, v + 1) for v in range(299)]), 3)
    res = spectral_radius(TensorKind.ADJACENCY, h)
    (comp,) = res.components
    anchor = (2.0 * math.cos(math.pi / 301)) ** (2 / 3)
    assert res.converged
    assert comp.bracket[0] - 1e-13 <= anchor <= comp.bracket[1] + 1e-13


def test_no_segment_above_the_finish_cap_is_solved(hub_graph, monkeypatch):
    def no_solve(a, b):
        raise AssertionError("a segment above FINISH_CAP was solved")

    monkeypatch.setattr(eigen, "FINISH_CAP", hub_graph.n - 1)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    opts = PowerOptions()
    for kind, anchor in ((TensorKind.ADJACENCY, HUB_ADJ_RADIUS), (TensorKind.SIGNLESS_LAPLACIAN, HUB_SIGNLESS_RADIUS)):
        res = spectral_radius(kind, hub_graph, opts)
        assert res.converged
        assert all(c.bracket[1] - c.bracket[0] <= opts.tol for c in res.components)
        assert res.value == pytest.approx(anchor, abs=1e-9)


def test_the_row_cap_does_not_change_which_segments_are_finished(hub_graph, monkeypatch):
    # the alpha rows of the hub graph and of a union hold segments of 1 to 9
    # vertices, with the cap between; chunks of one row change only the stacks
    union = reduce(disjoint_union, (random_connected(np.random.default_rng(2), 3, n) for n in (5, 7, 9)))
    finished, newton = [], eigen._newton

    def spy(edges, c, x, starts, lam, want):
        finished.extend(np.diff(starts, append=x.size)[want].tolist())
        return newton(edges, c, x, starts, lam, want)

    def finished_sizes():
        finished.clear()
        for h in (hub_graph, union):
            list(eigen.perron_rows(h, np.arange(h.n), -h.degree_vector, 1e-10, 100_000))
        return sorted(finished)

    monkeypatch.setattr(eigen, "FINISH_CAP", 6)
    monkeypatch.setattr(eigen, "_newton", spy)
    whole = finished_sizes()
    monkeypatch.setattr(eigen, "ROW_ENTRY_CAP", 1)
    assert finished_sizes() == whole
    assert 0 < max(whole) <= 6


def test_perron_rows_hold_one_value_per_segment(hub_graph, two_edge_path):
    n, copies = two_edge_path.n, 1001
    edges = [tuple(v + n * c for v in e) for c in range(copies) for e in two_edge_path.edges]
    union = Hypergraph.from_edges(3, n * copies, edges)
    (rows,) = eigen.perron_rows(union, np.array([-1]), np.zeros(union.n), 1e-10, 100_000)
    assert rows.starts.shape == rows.lo.shape == rows.hi.shape == (copies,)
    assert rows.iterations.shape == rows.converged.shape == (copies,)
    assert [tuple(g.tolist()) for g in np.split(rows.entries, rows.starts[1:])] == components(union)
    # the values sit at the places of entries: each copy holds the one graph's vector
    (one,) = spectral_radius(TensorKind.ADJACENCY, two_edge_path).components
    assert rows.values.shape == rows.entries.shape
    assert all(np.array_equal(g, one.values) for g in np.split(rows.values, rows.starts[1:]))
    # alpha's rows: G - j for every j, its segments row after row, by label within a row
    h = hub_graph
    removed = np.arange(h.n)
    (rows,) = eigen.perron_rows(h, removed, -h.degree_vector, 1e-10, 100_000)  # the rows fill one chunk
    segments = np.split(rows.entries, rows.starts[1:])
    row = rows.entries[rows.starts] // h.n
    assert np.array_equal(np.unique(row), removed)  # every row holds a segment
    assert np.all(np.diff(row) >= 0)
    labels = component_labels(row_edges(h, removed), removed.size * h.n).reshape(removed.size, h.n)
    labels -= np.arange(removed.size)[:, None] * h.n  # row r holds r * n plus the label
    for r in removed:
        mine = [g % h.n for g, i in zip(segments, row) if i == r]
        assert [g[0] for g in mine] == sorted(set(np.delete(labels[r], r).tolist()))
        for g in mine:
            assert np.all(np.diff(g) > 0) and np.all(labels[r, g] == g[0])
    assert rows.entries.shape == rows.values.shape == (h.n * (h.n - 1),)  # every vertex but the removed one
    for name in ("starts", "lo", "hi", "iterations", "converged"):
        assert getattr(rows, name).shape == (len(segments),), name
    assert all(getattr(rows, f.name).ndim == 1 for f in dataclasses.fields(rows))  # no (rows, n) field
    # each segment's values, put at its entries, are a Perron vector of its root
    for g, v, lo, hi in zip(segments, np.split(rows.values, rows.starts[1:]), rows.lo, rows.hi):
        x = np.zeros(h.n)
        x[g % h.n] = v
        y = apply(TensorKind.ADJACENCY, h, x) - h.degree_vector * x ** (h.k - 1)
        assert v.max() == 1.0 and np.abs(y[g % h.n] - 0.5 * (lo + hi) * v ** (h.k - 1)).max() <= 1e-9


def test_perron_rows_yield_one_table_per_chunk(hub_graph, monkeypatch):
    # chunks of 3, 3 and 2 rows: each is a whole table of its own rows, and
    # together they are the one-chunk table bit for bit
    h, removed = hub_graph, np.arange(hub_graph.n)
    (whole,) = eigen.perron_rows(h, removed, -h.degree_vector, 1e-10, 100_000)
    monkeypatch.setattr(eigen, "ROW_ENTRY_CAP", 3 * h.m * h.k)
    chunks = list(eigen.perron_rows(h, removed, -h.degree_vector, 1e-10, 100_000))
    assert [np.unique(rows.entries // h.n).tolist() for rows in chunks] == [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert all(rows.starts[0] == 0 for rows in chunks)
    offsets = np.cumsum([0] + [rows.entries.size for rows in chunks[:-1]])
    for f in dataclasses.fields(whole):
        parts = [getattr(rows, f.name) for rows in chunks]
        if f.name == "starts":
            parts = [p + o for p, o in zip(parts, offsets)]
        assert np.concatenate(parts).tobytes() == getattr(whole, f.name).tobytes(), f.name


def per_segment_polish(h, c, shift, entries, starts, want, x, lo, hi):
    """The Newton finish as it ran before it was batched: ``newton_polish`` on each
    wanted segment's own hypergraph, one segment after another, with x at the
    places of ``entries``."""
    for s, (cells, wanted) in enumerate(zip(np.split(entries, starts[1:]), want)):
        if not wanted:
            continue
        S = cells % h.n
        at = slice(starts[s], starts[s] + S.size)
        g = induced(h, S)
        out = newton_polish(g, c[S], 0.5 * (lo[s] + hi[s]), x[at])
        if out is None:
            continue
        xp = out[1] / out[1].max()
        one = np.zeros(1, dtype=np.int64)
        _, plo, phi = eigen._ratio_bracket(g.edge_index, xp, one, c[S], shift)
        if phi[0] - plo[0] < hi[s] - lo[s]:
            x[at], lo[s], hi[s] = xp, plo[0], phi[0]


def finish_cases(hub_graph):
    """(name, h, removed, c): unions with components of mixed and equal sizes, one of
    them relabelled at random with its edges shuffled, so that equal-size segments
    interleave in vertex and edge order, and the alpha rows of the hub graph."""
    rng = np.random.default_rng(17)
    for k, sizes in ((3, (5, 7, 7, 9)), (4, (6, 8, 8))):
        u = reduce(disjoint_union, (random_connected(rng, k, n) for n in sizes))
        relabel = rng.permutation(u.n)
        edges = [sorted(int(relabel[v]) for v in e) for e in rng.permutation(u.edge_index)]
        for name, g in ((f"k{k}-union", u), (f"k{k}-shuffled-union", Hypergraph.from_edges(k, u.n, edges))):
            for c in (np.zeros(g.n), g.degree_vector):
                yield name, g, np.array([-1]), c
    yield "hub-alpha-rows", hub_graph, np.arange(hub_graph.n), -hub_graph.degree_vector


def chunk_state(h, removed, c, x):
    """(edges, cp, entries, starts, shift, lo, hi): the segments of h - removed[r] as
    one chunk, with their edges as rows of places, c at each place, and their
    brackets at the place values x."""
    entries, starts, edges = eigen._chunk(h, removed)
    cp = c[entries % h.n]
    shift = float(h.degree_vector.max() + 1.0)
    _, lo, hi = eigen._ratio_bracket(edges, x, starts, cp, shift)
    return edges, cp, entries, starts, shift, lo, hi


def test_batched_finish_matches_the_per_segment_polish(hub_graph):
    # x, lo and hi are the polish's state; the products y follow from x
    rng = np.random.default_rng(5)
    for name, h, removed, c in finish_cases(hub_graph):
        (rows,) = eigen.perron_rows(h, removed, c, 1e-2, 100_000)
        x = rows.values * (1.0 + 1e-2 * rng.random((removed.size, h.n)).take(rows.entries))
        edges, cp, entries, starts, shift, lo, hi = chunk_state(h, removed, c, x)
        assert np.array_equal(entries, rows.entries), name  # the rows fill one chunk
        want = hi > lo
        got = [a.copy() for a in (x, lo, hi)]
        eigen._polish(edges, cp, shift, starts, want, *got)
        per_segment_polish(h, c, shift, entries, starts, want, x, lo, hi)
        for a, b in zip(got, (x, lo, hi)):
            assert np.array_equal(a, b), name
        assert (hi - lo)[want].max() <= 1e-10, name


def test_a_singular_segment_fails_alone(hub_graph, monkeypatch):
    # from the all-ones start at lam = 8 the Q Jacobian of the hub graph is
    # singular; a second copy of the graph starts near its Perron pair, so
    # both share one stack of equal-size matrices
    u = reduce(disjoint_union, (hub_graph, hub_graph, random_connected(np.random.default_rng(3), 3, 6)))
    c, removed = u.degree_vector, np.array([-1])
    (rows,) = eigen.perron_rows(u, removed, c, 1e-2, 100_000)
    x = rows.values
    x[:8] = 1.0
    edges, cp, entries, starts, shift, lo, hi = chunk_state(u, removed, c, x)
    assert starts.tolist() == [0, 8, 16]  # the segments labelled 0, 8 and 16
    lo[0], hi[0] = 7.0, 9.0
    want = hi > lo
    raised, solve = [], np.linalg.solve

    def solve_or_raise(a, b):
        # the matrix is singular in exact arithmetic, but whether LAPACK's LU meets
        # an exact zero pivot depends on its build; the rank test does not
        if np.any(np.linalg.matrix_rank(a) < a.shape[-1]):
            raised.append(a.shape)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve_or_raise)
    got = [a.copy() for a in (x, lo, hi)]
    eigen._polish(edges, cp, shift, starts, want, *got)
    assert raised[:2] == [(2, 8, 8), (8, 8)]  # the stack, then the singular matrix alone
    per_segment_polish(u, c, shift, entries, starts, want, x, lo, hi)
    for a, b in zip(got, (x, lo, hi)):
        assert np.array_equal(a, b)
    assert np.array_equal(got[0][:8], np.ones(8)) and (got[1][0], got[2][0]) == (7.0, 9.0)
    assert got[2][1] - got[1][1] <= 1e-10 and got[2][2] - got[1][2] <= 1e-10


@pytest.mark.parametrize("kind", [TensorKind.ADJACENCY, TensorKind.SIGNLESS_LAPLACIAN])
def test_the_finish_solves_equal_segments_in_bounded_stacks(kind, monkeypatch):
    part = random_connected(np.random.default_rng(11), 3, 16)
    n, copies = part.n, 200
    edges = [tuple(v + j * n for v in e) for j in range(copies) for e in part.edges]
    u = Hypergraph.from_edges(3, copies * n, edges)
    stacks, solve = [], np.linalg.solve

    def spy(a, b):
        stacks.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    res = spectral_radius(kind, u)
    one = spectral_radius(kind, part).components[0]
    assert all(c.bracket == one.bracket for c in res.components)
    # 200 segments of 16 vertices fill stacks of ROW_ENTRY_CAP // 16**2 = 128 and 72
    per_stack = eigen.ROW_ENTRY_CAP // n**2
    assert max(s[0] for s in stacks) == per_stack
    assert all(np.prod(s) <= eigen.ROW_ENTRY_CAP for s in stacks)
    assert len(stacks) <= 20 * -(-copies // per_stack) < copies


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


@pytest.mark.parametrize("k", range(3, 9))
def test_structural_pairs_equal_verify_eigenpair(k):
    # the indicator and all-ones pairs are built with residual 0.0; the
    # production apply, through verify_eigenpair, must give the same floats
    rng = np.random.default_rng(k)
    for trial in range(6):
        h = random_connected(rng, k, int(rng.integers(k + 1, 12)))
        if trial % 2:
            h = disjoint_union(h, random_connected(rng, k, int(rng.integers(k, 9))))
        for kind in TensorKind:
            for p in structural_eigenpairs(kind, h):
                want = verify_eigenpair(kind, h, p.value, p.vector)
                assert (p.value, p.residual, p.classification) == (
                    want.value,
                    want.residual,
                    want.classification,
                )
                assert np.array_equal(p.vector, want.vector)


@pytest.mark.parametrize(
    "opts", [PowerOptions(tol=1e-2), PowerOptions(max_iter=2), PowerOptions(max_iter=1)]
)
def test_structural_radius_pairs_are_polished_when_the_iteration_stops_early(hub_graph, opts):
    # the bracket is still wider than POLISH_GAP when the iteration stops, so
    # only the finishing polish makes these pairs eigenpairs
    u = disjoint_union(hub_graph, hub_graph)
    for kind in (TensorKind.ADJACENCY, TensorKind.SIGNLESS_LAPLACIAN):
        radius = spectral_radius(kind, u, opts)
        pairs = [p for p in structural_eigenpairs(kind, u, radius) if len(support(p.vector)) > 1]
        assert len(pairs) == 2
        for p in pairs:
            assert p.classification is Classification.H_PLUS_STRICT
            assert p.residual <= 1e-12
    for kind in (TensorKind.ADJACENCY, TensorKind.SIGNLESS_LAPLACIAN):
        pair = structural_eigenpairs(kind, hub_graph, spectral_radius(kind, hub_graph, opts))[-1]
        assert pair.classification is Classification.H_PLUS_PLUS
        assert pair.residual <= 1e-12


def test_newton_polish_lands_on_matrix_eigenvalue_at_k2():
    rng = np.random.default_rng(7)
    for _ in range(6):
        h = random_connected(rng, 2, int(rng.integers(4, 13)))
        adj = np.zeros((h.n, h.n))
        for i, j in h.edges:
            adj[i, j] = adj[j, i] = 1.0
        for kind, c in (
            (TensorKind.ADJACENCY, np.zeros(h.n)),
            (TensorKind.SIGNLESS_LAPLACIAN, h.degree_vector),
        ):
            values, vectors = np.linalg.eigh(np.diag(c) + adj)
            start = np.abs(vectors[:, -1]) * (1.0 + 0.05 * rng.random(h.n))
            lam, x = newton_polish(h, c, values[-1] + 0.05, start)
            assert lam == pytest.approx(values[-1], abs=1e-12)
            assert verify_eigenpair(kind, h, lam, x).residual <= 1e-12


def test_newton_polish_goes_on_while_the_defect_rises_far_from_the_root(hub_graph):
    # from the all-ones start the defect rises on the first step before it falls
    for lam in (3.0, 4.0, 5.0):
        value, x = newton_polish(hub_graph, 0.0, lam, np.ones(hub_graph.n))
        assert value == pytest.approx(HUB_ADJ_RADIUS, abs=1e-8)
        assert verify_eigenpair(TensorKind.ADJACENCY, hub_graph, value, x).residual <= 1e-12


@pytest.mark.parametrize("k, sizes", [(3, (7, 6)), (4, (8, 6))])
def test_newton_polish_each_component_on_the_full_graph(k, sizes):
    rng = np.random.default_rng(k)
    u = disjoint_union(*(random_connected(rng, k, n) for n in sizes))
    for kind, c in ((TensorKind.ADJACENCY, np.zeros(u.n)), (TensorKind.SIGNLESS_LAPLACIAN, u.degree_vector)):
        radius = spectral_radius(kind, u)
        assert len(radius.components) == 2
        for comp in radius.components:
            # the kernel returns polished pairs, so start from a perturbed one
            S = np.array(comp.vertices)
            start = np.zeros(u.n)
            start[S] = comp.values * (1.0 + 1e-3 * rng.random(u.n))[S]
            value = comp.value + 1e-3
            assert verify_eigenpair(kind, u, value, start).residual > 1e-8
            lam, xs = newton_polish(induced(u, S), c[S], value, start[S])
            x = np.zeros(u.n)
            x[S] = xs
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


def exact_zero_vectors(h: Hypergraph) -> np.ndarray:
    """Every x in {-1, 0, 1}^n less 0 with Q x^{k-1} = 0, found in int64 arithmetic."""
    x = np.array(list(product((-1, 0, 1), repeat=h.n)), dtype=np.int64)
    x = x[(x != 0).any(axis=1)]
    q = h.degree_vector.astype(np.int64) * x ** (h.k - 1)
    for e in h.edge_index:
        for i in range(h.k):
            q[:, e[i]] += x[:, np.delete(e, i)].prod(axis=1)
    return x[(q == 0).all(axis=1)]


def random_even_k_graph(rng: np.random.Generator) -> Hypergraph:
    """k in {2, 4, 6}, up to 6 random edges on at most 7 vertices, the
    uncovered ones dropped.  Where two edges fit side by side, which takes
    k = 2, the edges fall half the time in two disjoint blocks."""
    k = int(rng.choice([2, 4, 6]))
    n = int(rng.integers(k, 8))
    blocks = [np.arange(n)]
    if n >= 2 * k and rng.random() < 0.5:
        blocks = np.split(blocks[0], [rng.integers(k, n - k + 1)])
    edges = set()
    for _ in range(rng.integers(1, 7)):
        block = blocks[rng.integers(len(blocks))]
        edges.add(tuple(sorted(rng.choice(block, size=k, replace=False).tolist())))
    kept = np.unique(list(edges))
    return Hypergraph.from_edges(k, kept.size, [np.searchsorted(kept, e) for e in sorted(edges)])


def assert_exact_witness(h: Hypergraph, w: np.ndarray) -> None:
    """w certifies 0 exactly and is +1 at the smallest vertex of the one
    component it covers, wholly and with signs only."""
    pair = verify_eigenpair(TensorKind.SIGNLESS_LAPLACIAN, h, 0.0, w)
    assert pair.residual == 0.0
    (part,) = [c for c in components(h) if w[c[0]] != 0]
    assert support(w) == list(part)
    assert w[part[0]] == 1.0
    assert set(np.abs(w[list(part)])) == {1.0}


def test_probe_matches_an_exact_search_over_signs_and_zeros():
    rng = np.random.default_rng(1)
    answers = set()
    for _ in range(210):
        h = random_even_k_graph(rng)
        zeros = exact_zero_vectors(h)
        res = q_definiteness_probe(h)
        answers.add((h.k, res.status))
        if zeros.size == 0:
            assert res.status is Definiteness.POSITIVE_DEFINITE
            assert res.witness is None
            continue
        assert res.status is Definiteness.HAS_ZERO_EIGENVALUE
        assert_exact_witness(h, res.witness)
        # the first component, by smallest vertex, that holds a zero vector
        assert support(res.witness)[0] == (zeros != 0).argmax(axis=1).min()
    # k6 on at most 7 vertices is positive definite only as K_7^(6)
    assert answers == set(product((2, 4), Definiteness)) | {(6, Definiteness.HAS_ZERO_EIGENVALUE)}


@pytest.mark.parametrize(
    "k, n, edges, x",
    [
        # a single k4 edge: one negative entry is an odd count
        (4, 4, [(0, 1, 2, 3)], (-1, 1, 1, 1)),
        # K_7^(6) less one edge: every edge left holds vertex 0, a 1 : 5 split
        (6, 7, list(combinations(range(7), 6))[:-1], (-1, 1, 1, 1, 1, 1, 1)),
        # the k2 triangle cannot be split, the disjoint edge beside it can
        (2, 5, [(0, 1), (0, 2), (1, 2), (3, 4)], (0, 0, 0, 1, -1)),
    ],
    ids=["k4-edge", "k6-complete-less-one", "k2-triangle-and-edge"],
)
def test_zero_eigenvalues_off_the_balanced_splits(k, n, edges, x):
    h = Hypergraph.from_edges(k, n, edges)
    assert verify_eigenpair(TensorKind.SIGNLESS_LAPLACIAN, h, 0.0, np.array(x, dtype=float)).residual == 0.0
    res = q_definiteness_probe(h)
    assert res.status is Definiteness.HAS_ZERO_EIGENVALUE
    assert_exact_witness(h, res.witness)


def test_k6_single_edge_has_odd_zero_witness(k6_edge):
    res = q_definiteness_probe(k6_edge)
    assert res.status is Definiteness.HAS_ZERO_EIGENVALUE
    w = np.asarray(res.witness)
    assert set(np.unique(w)) == {-1.0, 1.0}
    assert w[0] == 1.0
    assert np.count_nonzero(w < 0) % 2 == 1
    pair = verify_eigenpair(TensorKind.SIGNLESS_LAPLACIAN, k6_edge, 0.0, w)
    assert pair.classification is Classification.H
    assert pair.residual <= 1e-12


def test_complete_6_uniform_on_7_vertices_is_positive_definite():
    # the parities of the seven edges, each all vertices but one, sum to
    # 6 * (the number of -1 entries), which is even, not 7 mod 2
    edges = list(combinations(range(7), 6))
    h = Hypergraph.from_edges(6, 7, edges)
    res = q_definiteness_probe(h)
    assert res.status is Definiteness.POSITIVE_DEFINITE


def test_large_graphs_are_decided_exactly():
    rng = np.random.default_rng(8)
    h = random_connected(rng, 6, 30, max_extra=0)
    res = q_definiteness_probe(h)
    assert res.status is Definiteness.HAS_ZERO_EIGENVALUE
    assert_exact_witness(h, res.witness)
    # 2,000 vertices take about 0.03 s
    h = random_connected(rng, 4, 2000)
    start = time.perf_counter()
    res = q_definiteness_probe(h)
    assert time.perf_counter() - start < 1.0
    assert res.status is Definiteness.HAS_ZERO_EIGENVALUE
    assert_exact_witness(h, res.witness)
