"""k-uniform hypergraph structure, text parsing, and cut/component queries.

Vertex ids are 0-based throughout the library.  The ``.khg`` text format
uses 1-based ids; the conversion happens at the parse boundary and nowhere
else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed ``.khg`` input.  The message names the offending line."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-uniform hypergraph.

    Invariants enforced by :meth:`from_edges`: every edge holds exactly
    ``k`` distinct vertices in ``[0, n)``, edges are stored sorted and are
    pairwise distinct, every vertex appears in at least one edge (so all
    degrees are positive), and ``sum(degrees) == k * m``.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Read-only int64 array of shape (m, k); row e holds the vertices of edge e."""
        idx = np.array(self.edges, dtype=np.int64).reshape(self.m, self.k)
        idx.setflags(write=False)
        return idx

    @cached_property
    def degree_vector(self) -> np.ndarray:
        """Read-only float64 array of the vertex degrees."""
        d = np.array(self.degrees, dtype=np.float64)
        d.setflags(write=False)
        return d

    @classmethod
    def from_edges(cls, k: int, n: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
        """Validate and build a hypergraph from an edge list.

        Raises ValueError on any structural violation: bad cardinality,
        repeated vertex inside an edge, vertex out of range, duplicate
        edge, or an isolated vertex.  A vertex count above k*m is rejected
        before anything of size n is allocated.
        """
        if k < 2:
            raise ValueError(f"edge cardinality k must be at least 2, got {k}")
        if n < k:
            raise ValueError(f"vertex count n={n} is smaller than k={k}")
        edges = list(edges)
        if not edges:
            raise ValueError("hypergraph must have at least one edge")
        if n > k * len(edges):
            raise ValueError(
                f"vertex count n={n} exceeds k*m={k * len(edges)}, so some vertex is isolated"
            )
        normalized: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        degrees = [0] * n
        for e in edges:
            vs = tuple(sorted(int(v) for v in e))
            if len(vs) != k:
                raise ValueError(f"edge {vs} has {len(vs)} vertices, expected {k}")
            if len(set(vs)) != k:
                raise ValueError(f"edge {vs} repeats a vertex")
            if vs[0] < 0 or vs[-1] >= n:
                raise ValueError(f"edge {vs} has a vertex outside [0, {n})")
            if vs in seen:
                raise ValueError(f"duplicate edge {vs}")
            seen.add(vs)
            normalized.append(vs)
            for v in vs:
                degrees[v] += 1
        for v, d in enumerate(degrees):
            if d == 0:
                raise ValueError(f"vertex {v} is isolated (degree 0)")
        return cls(k=k, n=n, edges=tuple(normalized), degrees=tuple(degrees))


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the ``.khg`` text format.

    Line 1 is a header ``k n m``; the next ``m`` significant lines carry
    ``k`` distinct 1-based vertex ids each.  Blank lines and lines starting
    with ``#`` are ignored.  Errors name the offending (physical) line.
    """
    header: tuple[int, int, int] | None = None
    header_line = 0
    raw_edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if header is None:
            if len(fields) != 3:
                raise ParseError(line_no, f"header must be 'k n m', got {stripped!r}")
            try:
                k, n, m = (int(f) for f in fields)
            except ValueError:
                raise ParseError(line_no, f"header must hold three integers, got {stripped!r}") from None
            if k < 2 or n < k or m < 1:
                raise ParseError(line_no, f"header values out of range: k={k} n={n} m={m}")
            header = (k, n, m)
            header_line = line_no
            continue
        k, n, m = header
        if len(raw_edges) == m:
            raise ParseError(line_no, f"more than the declared m={m} edge lines")
        try:
            ids = tuple(int(f) for f in fields)
        except ValueError:
            raise ParseError(line_no, f"edge line must hold integers, got {stripped!r}") from None
        if len(ids) != k:
            raise ParseError(line_no, f"edge has {len(ids)} ids, expected k={k}")
        for v in ids:
            if v < 1 or v > n:
                raise ParseError(line_no, f"vertex id {v} outside [1, {n}]")
        if len(set(ids)) != k:
            raise ParseError(line_no, "edge repeats a vertex")
        edge = tuple(sorted(v - 1 for v in ids))
        if edge in seen:
            raise ParseError(line_no, f"duplicate edge {tuple(v + 1 for v in edge)}")
        seen.add(edge)
        raw_edges.append(edge)
    if header is None:
        raise ParseError(1, "empty input, expected 'k n m' header")
    k, n, m = header
    if len(raw_edges) != m:
        raise ParseError(header_line, f"declared m={m} edges but found {len(raw_edges)}")
    try:
        return Hypergraph.from_edges(k, n, raw_edges)
    except ValueError as exc:
        # only coverage violations can survive the per-line checks above
        raise ParseError(header_line, str(exc)) from None


def degree_stats(h: Hypergraph) -> tuple[int, int, Fraction]:
    """Return (max degree, min degree, average degree k*m/n as an exact rational)."""
    return max(h.degrees), min(h.degrees), Fraction(h.k * h.m, h.n)


def component_labels(h: Hypergraph, removed: np.ndarray) -> np.ndarray:
    """label[r, i]: the smallest vertex of i's component in h - removed[r].

    h - j drops vertex j and every edge through it; j = -1 drops nothing.
    Min-label propagation with pointer jumping, all rows at once, over the
    (rows, m, k) edge entries; a removed vertex labels itself.
    """
    n, idx = h.n, h.edge_index
    offset = np.repeat(np.arange(removed.size) * n, n)
    cells = (offset[::n, None, None] + idx)[(idx != removed[:, None, None]).all(axis=2)]
    label = np.tile(np.arange(n), removed.size)
    while True:
        new = label.copy()
        np.minimum.at(new, cells, label[cells].min(axis=1)[:, None])
        new = new[offset + new]
        if np.array_equal(new, label):
            return label.reshape(removed.size, n)
        label = new


def component_masks(h: Hypergraph, removed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, mask) of every component of h - removed[row], one entry per component.

    Entries come row by row, and a row's components by smallest vertex.  A
    removed vertex is in no component; removed[row] = -1 removes nothing.
    """
    label = component_labels(h, removed)
    # a component's smallest vertex labels itself, and so does a removed vertex
    row, smallest = np.nonzero(label == np.arange(h.n))
    keep = smallest != removed[row]
    row, smallest = row[keep], smallest[keep]
    return row, label[row] == smallest[:, None]


def components(h: Hypergraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    label = component_labels(h, np.array([-1]))[0]
    # a stable sort keeps each component ascending, and its label is its smallest member
    order = np.argsort(label, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
    return [tuple(g.tolist()) for g in groups]


def is_connected(h: Hypergraph) -> bool:
    return len(components(h)) == 1


@dataclass(frozen=True)
class CutInfo:
    """Edge classification for a proper vertex subset S.

    ``t_per_edge`` is parallel to ``crossing_edges`` and holds |e ∩ S| for
    each crossing edge (always in [1, k-1]).  ``t_average`` is the exact
    rational mean of those counts, or None when no edge crosses.
    """

    subset: tuple[int, ...]
    edges_in_subset: tuple[int, ...]
    edges_in_complement: tuple[int, ...]
    crossing_edges: tuple[int, ...]
    t_per_edge: tuple[int, ...]
    t_average: Fraction | None


def cut(h: Hypergraph, subset: Iterable[int]) -> CutInfo:
    """Classify every edge against S: inside S, inside the complement, or crossing."""
    s = frozenset(int(v) for v in subset)
    if not s:
        raise ValueError("subset must be nonempty")
    if any(v < 0 or v >= h.n for v in s):
        raise ValueError(f"subset has a vertex outside [0, {h.n})")
    if len(s) == h.n:
        raise ValueError("subset must be a proper subset of the vertices")
    inside: list[int] = []
    outside: list[int] = []
    crossing: list[int] = []
    t_counts: list[int] = []
    for idx, e in enumerate(h.edges):
        t = sum(1 for v in e if v in s)
        if t == h.k:
            inside.append(idx)
        elif t == 0:
            outside.append(idx)
        else:
            crossing.append(idx)
            t_counts.append(t)
    t_avg = Fraction(sum(t_counts), len(t_counts)) if t_counts else None
    return CutInfo(
        subset=tuple(sorted(s)),
        edges_in_subset=tuple(inside),
        edges_in_complement=tuple(outside),
        crossing_edges=tuple(crossing),
        t_per_edge=tuple(t_counts),
        t_average=t_avg,
    )


def disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """Disjoint union; vertices of ``b`` are shifted up by ``a.n``."""
    if a.k != b.k:
        raise ValueError(f"cannot union hypergraphs of different uniformity: {a.k} != {b.k}")
    shifted = [tuple(v + a.n for v in e) for e in b.edges]
    return Hypergraph.from_edges(a.k, a.n + b.n, list(a.edges) + shifted)
