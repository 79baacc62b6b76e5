"""Matrix-free evaluation of the adjacency, Laplacian, and signless Laplacian forms.

The order-k tensors are never materialized.  With d(i) the vertex degrees,
the symmetrized per-edge products collapse to

    (A x^{k-1})_i = sum over edges e containing i of prod_{j in e, j != i} x_j
    (L x^{k-1})_i = d(i) x_i^{k-1} - (A x^{k-1})_i
    (Q x^{k-1})_i = d(i) x_i^{k-1} + (A x^{k-1})_i

and a single edge e contributes to the homogeneous form T x^k

    A: k * prod_{j in e} x_j
    L: sum_{j in e} x_j^k - k * prod_{j in e} x_j
    Q: sum_{j in e} x_j^k + k * prod_{j in e} x_j

so every operation here costs O(m k), not O(n^k).

``form`` also takes a (B, n) stack of row vectors and evaluates every row
in the same calls, each with the floats of the 1-D call on that row.  The
scatter kernel ``adjacency_products`` takes its edges as rows of flat
indices into the array it reads: ``apply`` passes ``edge_index`` for its
one vector, and the Perron kernel in ``eigen`` numbers the vertices of
each chunk of rows once, as places, and passes the chunk's edges as rows
of places into one flat array of its values.

Every per-edge quantity comes from the k edge columns, contiguous (..., m)
gathers of the entries at one edge position, by elementwise operations.

Accuracy: an edge's product, and the sum of the x_j^k in ``form``, fold
its k entries left to right, which is the order of numpy's own reduction
over a length-k axis up to k = 7 (from k = 8 numpy sums pairwise); the
powers x_j^k are taken once per vertex and then gathered.  ``apply``
scatters the m*k leave-one-out products with one ``np.bincount`` in
edge-major order, which adds the d(i) terms of vertex i one after another
in float64, so its rounding error is at most (d(i) - 1) * u * sum |terms|
with u = 2**-53.  ``form`` adds the m edge contributions with numpy's
pairwise sum, whose error grows like log2(m) * u rather than m * u.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph


class TensorKind(Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    SIGNLESS_LAPLACIAN = "signless_laplacian"


def as_vector(h: Hypergraph, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a finite float64 vector of length h.n."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (h.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({h.n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def _as_rows(h: Hypergraph, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """``as_vector`` for one vector; a (B, h.n) stack of finite float64 rows otherwise."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2:
        return as_vector(h, v)
    if v.shape[1] != h.n or not np.all(np.isfinite(v)):
        raise ValueError(f"rows have shape {v.shape} or non-finite entries, expected finite (B, {h.n})")
    return v


def elementwise_power(x: np.ndarray, r: int) -> np.ndarray:
    """x^{[r]}: raise every entry to the integer power r >= 1."""
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"exponent must be a positive integer, got {r!r}")
    return np.asarray(x, dtype=np.float64) ** int(r)


def _columns(idx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Edge columns (k, ..., m): entry [j, ..., e] is v[..., idx[e, j]]."""
    return v.take(idx.T, axis=-1).swapaxes(0, -2)


def _leave_one_out_products(cols: np.ndarray) -> np.ndarray:
    """Products of all columns but the i-th, stacked edge-major as (..., m, k).

    Built from prefix and suffix products, with no division:
    pre[i] = c_0 ... c_{i-1} and suf[i] = c_{k-1} ... c_{i+1}.
    """
    k = len(cols)
    pre, suf = [None] * k, [None] * k
    pre[1], suf[k - 2] = cols[0], cols[k - 1]
    for j in range(2, k):
        pre[j] = pre[j - 1] * cols[j - 1]
        suf[k - 1 - j] = suf[k - j] * cols[k - j]
    return np.stack([suf[0], *(pre[i] * suf[i] for i in range(1, k - 1)), pre[k - 1]], axis=-1)


def adjacency_products(cells: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A x^{k-1} over the edges ``cells`` at the finite float64 array v, unchecked.

    Row e of ``cells`` holds the flat indices into v of edge e's vertices.
    The kernel behind ``apply``, for the solvers' own rows, whose shape,
    finiteness and edges they keep themselves.
    """
    loo = _leave_one_out_products(v.take(cells.T))
    return np.bincount(cells.ravel(), weights=loo.ravel(), minlength=v.size).reshape(v.shape)


def apply(kind: TensorKind, h: Hypergraph, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Evaluate T x^{k-1} for T in {A, L, Q} without forming the tensor."""
    v = as_vector(h, x)
    a = adjacency_products(h.edge_index, v)
    if kind is TensorKind.ADJACENCY:
        return a
    dxk = h.degree_vector * v ** (h.k - 1)
    if kind is TensorKind.LAPLACIAN:
        return dxk - a
    if kind is TensorKind.SIGNLESS_LAPLACIAN:
        return dxk + a
    raise ValueError(f"unknown tensor kind {kind!r}")


def adjacency_jacobian(
    local: np.ndarray, values: np.ndarray, matrix: np.ndarray, count: int, size: int
) -> np.ndarray:
    """A (count, size, size) stack of dense J[i, l] = d(A x^{k-1})_i / dx_l, 0 on the diagonal.

    Row e of ``local`` holds the sorted vertices of an edge, numbered within
    its matrix ``matrix[e]``, and row e of ``values`` holds x at them.  Each
    edge adds, for every pair i < l of its vertices, the product of its other
    k - 2 entries to J[i, l] through one ``np.bincount`` in edge-major order,
    so each cell sums its terms in the order of the rows; J[l, i] is the same
    sum of the same floats, so each J is its upper triangle mirrored.
    """
    k = local.shape[1]
    pairs = [(i, l) for i in range(k) for l in range(i + 1, k)]
    prods = np.empty((len(local), len(pairs)))
    for j, pair in enumerate(pairs):
        others = (values[:, r] for r in range(k) if r not in pair)
        prods[:, j] = reduce(np.multiply, others, np.ones(len(local)))
    first, second = np.array(pairs).T
    cells = (matrix[:, None] * size + local[:, first]) * size + local[:, second]
    upper = np.bincount(cells.ravel(), weights=prods.ravel(), minlength=count * size * size)
    upper = upper.reshape(count, size, size)
    return upper + upper.transpose(0, 2, 1)


def _edge_contributions(kind: TensorKind, idx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Form terms of the edges idx (m, k) at one vector or a stack of rows v: shape (..., m)."""
    k = idx.shape[1]
    prods = k * reduce(np.multiply, _columns(idx, v))
    if kind is TensorKind.ADJACENCY:
        return prods
    sums = reduce(np.add, _columns(idx, v**k))
    if kind is TensorKind.LAPLACIAN:
        return sums - prods
    if kind is TensorKind.SIGNLESS_LAPLACIAN:
        return sums + prods
    raise ValueError(f"unknown tensor kind {kind!r}")


def form(
    kind: TensorKind, h: Hypergraph, x: Sequence[float] | np.ndarray
) -> float | np.ndarray:
    """Evaluate the scalar form T x^k = <x, T x^{k-1}>.

    For a (B, n) stack of rows ``x`` the result is the (B,) array of row forms.
    """
    v = _as_rows(h, x)
    # each row's edge terms are contiguous, so every row sum is the same
    # pairwise sum a 1-D call makes
    sums = _edge_contributions(kind, h.edge_index, v).sum(axis=-1)
    return sums if v.ndim == 2 else float(sums)


def edge_form(kind: TensorKind, edge: Sequence[int], x: Sequence[float] | np.ndarray) -> float:
    """Single-edge contribution to the form; the edge need not come from a graph."""
    e = tuple(int(v) for v in edge)
    k = len(e)
    if k < 2 or len(set(e)) != k:
        raise ValueError(f"edge {e} must hold at least two distinct vertices")
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or max(e) >= v.size or min(e) < 0:
        raise ValueError(f"edge {e} indexes outside the vector of length {v.size}")
    return float(_edge_contributions(kind, np.arange(k)[None, :], v[np.array(e)])[0])


def form_gradient(kind: TensorKind, h: Hypergraph, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Gradient of x -> T x^k, which is k * T x^{k-1} by homogeneity."""
    return h.k * apply(kind, h, x)
