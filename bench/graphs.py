"""Seeded k-uniform hypergraph generator for the benchmark.

Graphs are written in the ``.khg`` text format the CLI reads; the program
under test only ever sees those files.  Everything is drawn from a numpy
``Generator``, so one seed always gives byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

Edge = tuple[int, ...]


def random_connected(rng: np.random.Generator, k: int, n: int, m: int) -> list[Edge]:
    """Random connected k-uniform edge list on vertices 0..n-1 with m edges.

    A random hypertree covers every vertex first: each tree edge takes one
    vertex already reached plus up to k-1 new ones (topped up with reached
    vertices when fewer are left).  Distinct random edges fill up to m.
    """
    if k < 2 or n < k:
        raise ValueError(f"need 2 <= k <= n, got k={k} n={n}")
    tree_edges = 1 + -(-(n - k) // (k - 1))
    if not tree_edges <= m <= math.comb(n, k):
        raise ValueError(f"m={m} edges cannot make a connected graph on n={n} vertices at k={k}")
    perm = [int(v) for v in rng.permutation(n)]
    order = [tuple(sorted(perm[:k]))]
    reached = perm[:k]
    pos = k
    while pos < n:
        # each tree edge holds an unreached vertex, so it is never a repeat
        new = perm[pos : pos + k - 1]
        pos += len(new)
        picked = set(new)
        while len(picked) < k:
            picked.add(reached[int(rng.integers(len(reached)))])
        order.append(tuple(sorted(picked)))
        reached.extend(new)
    edges = set(order)
    while len(order) < m:
        e = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
        if e not in edges:
            edges.add(e)
            order.append(e)
    return order


def disjoint_union(rng: np.random.Generator, k: int, parts: list[tuple[int, int]]) -> tuple[int, list[Edge]]:
    """Union of connected random parts given as (n, m), with labels shuffled."""
    edges: list[Edge] = []
    offset = 0
    for n, m in parts:
        edges += [tuple(v + offset for v in e) for e in random_connected(rng, k, n, m)]
        offset += n
    relabel = rng.permutation(offset)
    return offset, [tuple(sorted(int(relabel[v]) for v in e)) for e in edges]


def khg_text(k: int, n: int, edges: list[Edge], rng: np.random.Generator) -> str:
    """The ``.khg`` text of a graph, edge lines and ids within a line shuffled."""
    lines = [f"{k} {n} {len(edges)}"]
    for i in rng.permutation(len(edges)):
        ids = [v + 1 for v in edges[int(i)]]
        lines.append(" ".join(str(ids[int(j)]) for j in rng.permutation(k)))
    return "\n".join(lines) + "\n"


def write_khg(path: Path, k: int, n: int, edges: list[Edge], rng: np.random.Generator) -> Path:
    path.write_text(khg_text(k, n, edges, rng))
    return path
