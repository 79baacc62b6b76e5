"""Shared fixtures: small worked graphs and a random-hypergraph generator."""

from __future__ import annotations

import numpy as np
import pytest

from hyperspec import Hypergraph


@pytest.fixture
def hub_graph() -> Hypergraph:
    """3-uniform graph on 8 vertices with two degree-6 hubs (vertices 3, 4).

    Degrees are (2, 2, 2, 6, 6, 2, 2, 2); the indicator of {0, 1, 2} is an
    eigenvector of L, Q, A at 1, 3, 1 respectively.
    """
    return Hypergraph.from_edges(
        3,
        8,
        [
            (0, 1, 2),
            (0, 3, 4),
            (1, 3, 4),
            (2, 3, 4),
            (3, 4, 5),
            (3, 4, 6),
            (3, 4, 7),
            (5, 6, 7),
        ],
    )


@pytest.fixture
def k6_edge() -> Hypergraph:
    """Single 6-uniform edge on 6 vertices."""
    return Hypergraph.from_edges(6, 6, [(0, 1, 2, 3, 4, 5)])


@pytest.fixture
def two_edge_path() -> Hypergraph:
    """Two 3-uniform edges sharing two vertices; the smallest nontrivial cut."""
    return Hypergraph.from_edges(3, 4, [(0, 1, 2), (1, 2, 3)])


def single_edge(k: int) -> Hypergraph:
    return Hypergraph.from_edges(k, k, [tuple(range(k))])


def random_connected(rng: np.random.Generator, k: int, n: int, max_extra: int = 6) -> Hypergraph:
    """Random connected k-uniform hypergraph on n vertices, m <= 15.

    A chain of windows over a random vertex permutation (stride k - 1, so
    consecutive windows overlap) covers every vertex and keeps the graph
    connected; extra random edges are sprinkled on top.
    """
    perm = [int(v) for v in rng.permutation(n)]
    edges = {tuple(sorted(perm[i : i + k])) for i in range(0, n - k + 1, k - 1)}
    edges.add(tuple(sorted(perm[n - k :])))
    for _ in range(int(rng.integers(0, max_extra + 1))):
        pick = rng.choice(n, size=k, replace=False)
        edges.add(tuple(sorted(int(v) for v in pick)))
    return Hypergraph.from_edges(k, n, sorted(edges))


def induced(h: Hypergraph, vertices: np.ndarray) -> Hypergraph:
    """The edges of h inside the ascending ``vertices``, renumbered in that order, so
    each keeps its place and its sorted columns; h itself when ``vertices``
    covers every vertex.  Every vertex must lie on one of those edges, which
    is not checked, so ``vertices`` may also be empty.  The
    Newton finish once ran on this subgraph of each segment, and is checked
    against that here."""
    if vertices.size == h.n:
        return h
    pos = np.full(h.n, -1)
    pos[vertices] = np.arange(vertices.size)
    rows = pos[h.edge_index]
    rows = rows[(rows >= 0).all(axis=1)]
    degrees = np.bincount(rows.ravel(), minlength=vertices.size).astype(np.float64)
    return Hypergraph(k=h.k, n=vertices.size, edge_index=rows, degree_vector=degrees)


def write_khg(path, h: Hypergraph) -> str:
    """Serialize a hypergraph to the 1-based text format and return the path."""
    lines = [f"{h.k} {h.n} {h.m}"]
    lines += [" ".join(str(v + 1) for v in e) for e in h.edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)
