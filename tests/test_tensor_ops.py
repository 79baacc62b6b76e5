"""Matrix-free tensor products T x^{k-1}, forms x^T (T x^{k-1}), and gradients."""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest

from hyperspec import (
    Hypergraph,
    TensorKind,
    apply,
    edge_form,
    elementwise_power,
    form,
    form_gradient,
)

from hyperspec.hypergraph import disjoint_union, row_edges
from hyperspec.tensor_ops import adjacency_jacobian, adjacency_products

from conftest import induced, random_connected, single_edge

ALL_KINDS = (TensorKind.ADJACENCY, TensorKind.LAPLACIAN, TensorKind.SIGNLESS_LAPLACIAN)


def reference_apply(kind: TensorKind, h: Hypergraph, x: np.ndarray) -> np.ndarray:
    """Plain per-edge evaluation of (T x^{k-1})_i used as an independent check."""
    out = np.zeros(h.n)
    for e in h.edges:
        for i in e:
            p = 1.0
            for j in e:
                if j != i:
                    p *= x[j]
            if kind is TensorKind.ADJACENCY:
                out[i] += p
            elif kind is TensorKind.LAPLACIAN:
                out[i] += x[i] ** (h.k - 1) - p
            else:
                out[i] += x[i] ** (h.k - 1) + p
    return out


def small_axis_apply(kind: TensorKind, h: Hypergraph, x: np.ndarray) -> np.ndarray:
    """``apply`` as gathered (m, k) edge entries with prefix/suffix products along k."""
    idx = h.edge_index
    xe = np.take(x, idx, axis=-1)
    k = xe.shape[-1]
    pref = np.ones_like(xe)
    suff = np.ones_like(xe)
    for j in range(1, k):
        pref[..., j] = pref[..., j - 1] * xe[..., j - 1]
        suff[..., k - 1 - j] = suff[..., k - j] * xe[..., k - j]
    a = np.bincount(idx.ravel(), weights=(pref * suff).ravel(), minlength=x.size)
    dxk = h.degree_vector * x ** (k - 1)
    return {TensorKind.ADJACENCY: a, TensorKind.LAPLACIAN: dxk - a}.get(kind, dxk + a)


def small_axis_form(kind: TensorKind, h: Hypergraph, x: np.ndarray) -> float | np.ndarray:
    """``form`` as numpy product and sum reductions along the length-k axis of the edge entries."""
    xe = np.take(x, h.edge_index, axis=-1)
    prods = h.k * xe.prod(axis=-1)
    sums = (xe**h.k).sum(axis=-1)
    terms = {TensorKind.ADJACENCY: prods, TensorKind.LAPLACIAN: sums - prods}.get(kind, sums + prods)
    return terms.sum(axis=-1) if x.ndim == 2 else float(terms.sum())


def small_axis_jacobian(h: Hypergraph, x: np.ndarray) -> np.ndarray:
    """``adjacency_jacobian`` with the k-2 "others" of every vertex pair reduced by ``prod``."""
    n, k, idx = h.n, h.k, h.edge_index
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    first, second = np.array(pairs, dtype=np.int64).T
    others = np.array([[r for r in range(k) if r not in p] for p in pairs], dtype=np.int64)
    prods = x[idx][:, others].prod(axis=2)
    cells = idx[:, first] * n + idx[:, second]
    return np.bincount(cells.ravel(), weights=prods.ravel(), minlength=n * n).reshape(n, n)


def jacobian(h: Hypergraph, x: np.ndarray) -> np.ndarray:
    """``adjacency_jacobian`` of all of h as a stack of one matrix."""
    return adjacency_jacobian(h.edge_index, x[h.edge_index], np.zeros(h.m, dtype=np.int64), 1, h.n)[0]


def column_kernel_cases(k: int, seed: int):
    """Seeded graphs with one vector and a (4, n) stack, holding exact zeros and 1e-9 entries."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        h = random_connected(rng, k, int(rng.integers(k + 1, k + 9)), max_extra=30)
        rows = rng.normal(size=(4, h.n)) * rng.choice([1e-3, 1.0, 30.0], size=(4, 1))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[rng.random(rows.shape) < 0.2] = 1e-9
        yield h, rows[0], rows


@pytest.mark.parametrize("k", range(2, 8))
def test_column_kernels_match_small_axis_reductions(k):
    # below length 8 numpy reduces a length-k axis left to right, which is
    # the order the column kernels fold in, so the floats are the same
    for h, x, rows in column_kernel_cases(k, 200 + k):
        for kind in ALL_KINDS:
            assert np.array_equal(apply(kind, h, x), small_axis_apply(kind, h, x))
            for v in (x, rows):
                assert np.array_equal(form(kind, h, v), small_axis_form(kind, h, v))
            for e in h.edges[:3]:
                assert edge_form(kind, e, x) == small_axis_form(kind, single_edge(k), x[list(e)])
        assert np.array_equal(jacobian(h, x), small_axis_jacobian(h, x))
        # a stack of the four rows' Jacobians holds each row's own floats
        idx, m = h.edge_index, h.m
        matrix = np.repeat(np.arange(4), m)
        stack = adjacency_jacobian(np.tile(idx, (4, 1)), rows[:, idx].reshape(-1, k), matrix, 4, h.n)
        assert np.array_equal(stack, [small_axis_jacobian(h, row) for row in rows])
        # at an x that is 0 off S, the Jacobian of the edges inside S is the full one's block on
        # the vertices T of those edges (``induced`` needs every vertex on an edge), and the
        # full one's S x S block is 0 elsewhere: an edge leaving S adds an exact 0
        S = np.flatnonzero(rows[1] > 0)
        xs = np.where(np.isin(np.arange(h.n), S), x, 0.0)
        T = np.unique(h.edge_index[np.isin(h.edge_index, S).all(axis=1)])
        full = small_axis_jacobian(h, xs)
        assert np.array_equal(jacobian(induced(h, T), xs[T]), full[np.ix_(T, T)])
        off = np.setdiff1d(S, T)
        assert not full[np.ix_(S, off)].any() and not full[np.ix_(off, S)].any()


def test_column_kernels_at_k8_agree_within_4_ulp():
    # at length 8 numpy's pairwise blocking reorders the sum of the x_j^8,
    # so only ``form`` of L and Q may move, by a few units in the last place
    for h, x, rows in column_kernel_cases(8, 208):
        for kind in ALL_KINDS:
            assert np.array_equal(apply(kind, h, x), small_axis_apply(kind, h, x))
            for v in (x, rows):
                got, want = form(kind, h, v), small_axis_form(kind, h, v)
                assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
        assert np.array_equal(jacobian(h, x), small_axis_jacobian(h, x))


def test_forms_at_triangle_indicator(hub_graph):
    x = np.array([1.0, 1, 1, 0, 0, 0, 0, 0])
    # edge (0,1,2) sits inside the support; three hub edges cross it with one vertex
    assert form(TensorKind.ADJACENCY, hub_graph, x) == pytest.approx(3.0, abs=1e-14)
    assert form(TensorKind.LAPLACIAN, hub_graph, x) == pytest.approx(3.0, abs=1e-14)
    assert form(TensorKind.SIGNLESS_LAPLACIAN, hub_graph, x) == pytest.approx(9.0, abs=1e-14)


def test_apply_matches_reference_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        x = rng.normal(size=n)
        for kind in ALL_KINDS:
            got = apply(kind, h, x)
            want = reference_apply(kind, h, x)
            assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


def test_form_is_inner_product_with_apply():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        x = rng.normal(size=n)
        for kind in ALL_KINDS:
            lhs = form(kind, h, x)
            rhs = float(x @ apply(kind, h, x))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_signless_minus_laplacian_is_twice_adjacency():
    rng = np.random.default_rng(9)
    for _ in range(10):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        x = rng.normal(size=n)
        q = apply(TensorKind.SIGNLESS_LAPLACIAN, h, x)
        l = apply(TensorKind.LAPLACIAN, h, x)
        a = apply(TensorKind.ADJACENCY, h, x)
        assert np.abs((q - l) - 2 * a).max() <= 1e-12 * (1 + np.abs(a).max())


def test_apply_is_degree_k_minus_one_homogeneous():
    rng = np.random.default_rng(13)
    for _ in range(10):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        x = rng.normal(size=n)
        t = float(rng.uniform(0.2, 3.0))
        for kind in ALL_KINDS:
            scaled = apply(kind, h, t * x)
            want = t ** (k - 1) * apply(kind, h, x)
            assert np.abs(scaled - want).max() <= 1e-10 * (1 + np.abs(want).max())
            assert abs(form(kind, h, t * x) - t**k * form(kind, h, x)) <= 1e-10 * (
                1 + abs(form(kind, h, x))
            )


def test_apply_commutes_with_vertex_relabeling():
    rng = np.random.default_rng(17)
    for _ in range(10):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        perm = [int(v) for v in rng.permutation(n)]
        relabeled = Hypergraph.from_edges(
            k, n, [tuple(sorted(perm[v] for v in e)) for e in h.edges]
        )
        x = rng.normal(size=n)
        xp = np.empty(n)
        for v in range(n):
            xp[perm[v]] = x[v]
        for kind in ALL_KINDS:
            direct = apply(kind, relabeled, xp)
            routed = apply(kind, h, x)
            back = np.empty(n)
            for v in range(n):
                back[v] = direct[perm[v]]
            assert np.abs(back - routed).max() <= 1e-12 * (1 + np.abs(routed).max())


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    eps = 1e-5
    for _ in range(12):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        x = rng.uniform(0.3, 1.5, size=n)
        for kind in ALL_KINDS:
            grad = form_gradient(kind, h, x)
            for i in range(n):
                xp = x.copy()
                xp[i] += eps
                xm = x.copy()
                xm[i] -= eps
                fd = (form(kind, h, xp) - form(kind, h, xm)) / (2 * eps)
                denom = max(1.0, abs(fd))
                assert abs(grad[i] - fd) / denom <= 1e-6


def test_adjacency_jacobian_matches_central_differences():
    rng = np.random.default_rng(43)
    eps = 1e-6
    for k in (3, 4, 5):
        for _ in range(4):
            n = int(rng.integers(k + 1, 11))
            h = random_connected(rng, k, n)
            x = rng.uniform(0.3, 1.5, size=n)
            J = jacobian(h, x)
            assert J.shape == (n, n)
            assert np.all(np.diag(J) == 0.0)
            for l in range(n):
                xp = x.copy()
                xp[l] += eps
                xm = x.copy()
                xm[l] -= eps
                fd = (apply(TensorKind.ADJACENCY, h, xp) - apply(TensorKind.ADJACENCY, h, xm)) / (
                    2 * eps
                )
                assert np.abs(J[:, l] - fd).max() <= 1e-7 * (1 + np.abs(fd).max())


def test_gradient_is_k_times_apply():
    rng = np.random.default_rng(23)
    h = random_connected(rng, 4, 8)
    x = rng.normal(size=8)
    for kind in ALL_KINDS:
        assert np.allclose(form_gradient(kind, h, x), h.k * apply(kind, h, x), atol=1e-12)


def test_laplacian_form_nonnegative_on_nonnegative_vectors():
    rng = np.random.default_rng(29)
    for _ in range(20):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        for _ in range(10):
            x = rng.uniform(0.0, 2.0, size=n)
            assert form(TensorKind.LAPLACIAN, h, x) >= -1e-12


def test_edge_form_decomposes_total_form():
    rng = np.random.default_rng(31)
    h = random_connected(rng, 3, 9)
    x = rng.normal(size=9)
    for kind in ALL_KINDS:
        total = sum(edge_form(kind, e, x) for e in h.edges)
        assert abs(total - form(kind, h, x)) <= 1e-12 * (1 + abs(total))


def test_elementwise_power_matches_componentwise_definition():
    x = np.array([-2.0, 0.5, 3.0])
    assert np.array_equal(elementwise_power(x, 3), x**3)
    assert np.array_equal(elementwise_power(x, 1), x)


def test_apply_on_zero_vector_is_zero(hub_graph):
    z = np.zeros(8)
    for kind in ALL_KINDS:
        assert np.array_equal(apply(kind, hub_graph, z), z)
        assert form(kind, hub_graph, z) == 0.0


def test_apply_rejects_bad_vectors(hub_graph):
    for kind in ALL_KINDS:
        with pytest.raises(ValueError):
            apply(kind, hub_graph, np.ones(5))
        with pytest.raises(ValueError):
            apply(kind, hub_graph, np.array([1.0, np.nan, 1, 1, 1, 1, 1, 1]))
        with pytest.raises(ValueError):
            apply(kind, hub_graph, np.array([1.0, np.inf, 1, 1, 1, 1, 1, 1]))


def test_row_stacks_match_one_dimensional_calls():
    # each row's edge terms are contiguous, so every row of a (B, n) form
    # must reproduce the 1-D call on that row bit for bit
    rng = np.random.default_rng(105)
    for _ in range(12):
        k = int(rng.integers(2, 6))
        h = random_connected(rng, k, int(rng.integers(k + 1, 14)), max_extra=40)
        rows = rng.random((5, h.n)) * (rng.random((5, h.n)) < 0.8)
        for kind in ALL_KINDS:
            forms = form(kind, h, rows)
            assert forms.shape == (5,)
            for b in range(5):
                assert forms[b] == form(kind, h, rows[b])


def test_row_stacks_reject_bad_rows(hub_graph):
    with pytest.raises(ValueError):
        form(TensorKind.LAPLACIAN, hub_graph, np.ones((3, 7)))
    with pytest.raises(ValueError):
        form(TensorKind.LAPLACIAN, hub_graph, np.full((2, 8), np.nan))
    with pytest.raises(ValueError):
        form(TensorKind.LAPLACIAN, hub_graph, np.ones((2, 2, 8)))
    # apply takes one vector: a stack of rows is not one
    with pytest.raises(ValueError):
        apply(TensorKind.LAPLACIAN, hub_graph, np.ones((2, 8)))


def test_row_edges_keep_every_member_sum_bit_for_bit():
    # an edge through the removed vertex, held at 0, adds only +0.0 to its other
    # vertices, so the rows' own edges give every member the floats of the
    # 1-D apply on all of h, sign of zero included
    rng = np.random.default_rng(20)
    for trial in range(24):
        k = 2 + trial % 4
        parts = [random_connected(rng, k, int(rng.integers(k, 10))) for _ in range(1 + trial % 3)]
        h = reduce(disjoint_union, parts)
        removed = np.arange(h.n)  # the alpha rows
        edges = row_edges(h, removed)
        # row after row, and in edge order within a row
        expected = [e + r * h.n for r in removed for e in h.edge_index if r not in e]
        assert edges.dtype == np.int64 and np.array_equal(edges, np.reshape(expected, (-1, k)))
        member = np.arange(h.n) != removed[:, None]
        x = np.where(member, np.exp(rng.normal(0.0, 2.0, member.shape)), 0.0)
        got = adjacency_products(edges, x)
        want = np.array([apply(TensorKind.ADJACENCY, h, row) for row in x])
        assert got[member].tobytes() == want[member].tobytes()


def test_bincount_scatter_over_10000_edges_agrees_with_reference():
    # over 10,000 edges a vertex collects hundreds of terms in the one plain
    # bincount scatter; its sequential float64 sum must agree with the naive
    # reference
    rng = np.random.default_rng(37)
    n = 41
    edges = set()
    while len(edges) < 10_050:
        pick = rng.choice(n, size=3, replace=False)
        edges.add(tuple(sorted(int(v) for v in pick)))
    h = Hypergraph.from_edges(3, n, sorted(edges))
    assert h.m > 10_000
    x = rng.normal(size=n)
    for kind in ALL_KINDS:
        got = apply(kind, h, x)
        want = reference_apply(kind, h, x)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * (1 + scale)


def test_form_of_uniform_vector_counts_edges():
    rng = np.random.default_rng(41)
    for _ in range(10):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        ones = np.ones(n)
        # each edge contributes k once through the degree side and k via products
        assert form(TensorKind.ADJACENCY, h, ones) == pytest.approx(k * h.m, rel=1e-13)
        assert form(TensorKind.LAPLACIAN, h, ones) == pytest.approx(0.0, abs=1e-12)
        assert form(TensorKind.SIGNLESS_LAPLACIAN, h, ones) == pytest.approx(
            2 * k * h.m, rel=1e-13
        )
