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

``apply`` and ``form`` also take a (B, n) stack of row vectors and evaluate
every row in the same calls: ``apply`` then runs its one ``np.bincount``
over the row-offset indices b*n + i, so row b of the result holds exactly
the floats the 1-D call on row b would give.

Accuracy: ``apply`` scatters the m*k leave-one-out products with one
``np.bincount``, which adds the d(i) terms of vertex i one after another in
float64, so its rounding error is at most (d(i) - 1) * u * sum |terms| with
u = 2**-53.  ``form`` adds the m edge contributions with numpy's pairwise
sum, whose error grows like log2(m) * u rather than m * u.
"""

from __future__ import annotations

from enum import Enum
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


def _leave_one_out_products(xe: np.ndarray) -> np.ndarray:
    """Products prod_{j != i} xe[..., j] along the last axis, by prefix/suffix (no division)."""
    k = xe.shape[-1]
    pref = np.ones_like(xe)
    suff = np.ones_like(xe)
    for j in range(1, k):
        pref[..., j] = pref[..., j - 1] * xe[..., j - 1]
        suff[..., k - 1 - j] = suff[..., k - j] * xe[..., k - j]
    return pref * suff


def apply(kind: TensorKind, h: Hypergraph, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Evaluate T x^{k-1} for T in {A, L, Q} without forming the tensor.

    ``x`` is one vector or a (B, n) stack of rows; the result has its shape.
    """
    v = _as_rows(h, x)
    idx = h.edge_index
    loo = _leave_one_out_products(np.take(v, idx, axis=-1))
    cells = idx.ravel()
    if v.ndim == 2:
        cells = (np.arange(v.shape[0])[:, None] * h.n + cells).ravel()
    a = np.bincount(cells, weights=loo.ravel(), minlength=v.size).reshape(v.shape)
    if kind is TensorKind.ADJACENCY:
        return a
    dxk = h.degree_vector * v ** (h.k - 1)
    if kind is TensorKind.LAPLACIAN:
        return dxk - a
    if kind is TensorKind.SIGNLESS_LAPLACIAN:
        return dxk + a
    raise ValueError(f"unknown tensor kind {kind!r}")


def adjacency_jacobian(h: Hypergraph, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Dense J[i, l] = d(A x^{k-1})_i / dx_l, zero on the diagonal.

    Each edge adds, for every ordered pair (i, l) of its distinct vertices,
    the product of its other k - 2 entries to J[i, l]; the k(k-1) pairs of
    all m edges land in the n*n cells through one ``np.bincount``.
    """
    v = as_vector(h, x)
    n, k = h.n, h.k
    idx = h.edge_index
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    first, second = np.array(pairs, dtype=np.int64).T
    others = np.array([[r for r in range(k) if r not in p] for p in pairs], dtype=np.int64)
    prods = v[idx][:, others].prod(axis=2)
    cells = idx[:, first] * n + idx[:, second]
    return np.bincount(cells.ravel(), weights=prods.ravel(), minlength=n * n).reshape(n, n)


def _edge_contributions(kind: TensorKind, k: int, xe: np.ndarray) -> np.ndarray:
    prods = xe.prod(axis=-1)
    if kind is TensorKind.ADJACENCY:
        return k * prods
    sums = (xe ** k).sum(axis=-1)
    if kind is TensorKind.LAPLACIAN:
        return sums - k * prods
    if kind is TensorKind.SIGNLESS_LAPLACIAN:
        return sums + k * prods
    raise ValueError(f"unknown tensor kind {kind!r}")


def form(
    kind: TensorKind, h: Hypergraph, x: Sequence[float] | np.ndarray
) -> float | np.ndarray:
    """Evaluate the scalar form T x^k = <x, T x^{k-1}>.

    For a (B, n) stack of rows ``x`` the result is the (B,) array of row forms.
    """
    v = _as_rows(h, x)
    # np.take keeps each row's edge entries contiguous, so every row sum is the
    # same pairwise sum a 1-D call makes
    sums = _edge_contributions(kind, h.k, np.take(v, h.edge_index, axis=-1)).sum(axis=-1)
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
    xe = v[np.array(e)][None, :]
    return float(_edge_contributions(kind, k, xe)[0])


def form_gradient(kind: TensorKind, h: Hypergraph, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Gradient of x -> T x^k, which is k * T x^{k-1} by homogeneity."""
    return h.k * apply(kind, h, x)
