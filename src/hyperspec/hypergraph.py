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


class _EdgeFault(ValueError):
    """A row of an edge list that is not a valid edge; ``row`` is its position."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


def _edge_rows(k: int, n: int, flat: list[int], base: int) -> np.ndarray:
    """The ids ``flat``, k per row and numbered from ``base``, as sorted int64 rows.

    Raises _EdgeFault for the first row that holds an id outside [base,
    n - 1 + base], else repeats an id, else repeats an earlier row's vertex
    set; a row is checked in that order, and every row at once.
    """
    lo, hi = base, n - 1 + base
    try:
        idx = np.array(flat, dtype=np.int64).reshape(-1, k)
    except OverflowError:
        # while hi < 2**63 - 1 an id beyond int64 lies outside [lo, hi], and
        # clipping it to just past the range keeps every verdict
        top = min(hi + 1, np.iinfo(np.int64).max)
        idx = np.array([min(max(v, lo - 1), top) for v in flat], dtype=np.int64).reshape(-1, k)
    rows = np.sort(idx, axis=1)
    outside = (idx < lo) | (idx > hi)
    repeats = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    bad = outside.any(axis=1) | repeats
    # lexsort is stable, so of equal rows every one but the first follows an equal row
    order = np.lexsort(rows.T[::-1])
    bad[order[1:][(rows[order[1:]] == rows[order[:-1]]).all(axis=1)]] = True
    if not bad.any():
        return rows
    r = int(np.argmax(bad))
    if outside[r].any():
        message = f"vertex id {flat[r * k + int(np.argmax(outside[r]))]} outside [{lo}, {hi}]"
    elif repeats[r]:
        message = "edge repeats a vertex"
    else:
        message = f"duplicate edge {tuple(rows[r].tolist())}"
    raise _EdgeFault(r, message)


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable k-uniform hypergraph that owns its arrays.

    ``edge_index`` is a read-only (m, k) int64 array: row e holds the
    vertices of edge e in increasing order, rows in input order.
    ``degree_vector`` is the read-only float64 array of the degrees.  Both
    are built by ``from_edges`` or ``parse_hypergraph``, which check that
    every edge holds k distinct vertices in [0, n), that no two edges are
    equal, and that every vertex has positive degree, so ``sum(degrees) ==
    k * m``.  ``edges`` and ``degrees`` are tuple views of the arrays, built
    on first read.  Equality is identity.
    """

    k: int
    n: int
    edge_index: np.ndarray
    degree_vector: np.ndarray

    @property
    def m(self) -> int:
        return len(self.edge_index)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.edge_index.tolist()))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree_vector.astype(np.int64).tolist())

    @classmethod
    def from_edges(cls, k: int, n: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
        """Validate and build a hypergraph from an edge list with 0-based ids.

        Rejects what ``parse_hypergraph`` rejects, in the same order and
        with the same messages, ids counted from 0: the edges are read up to
        the first one that does not hold k ids; of those read, the first
        with an id outside [0, n), a repeated vertex or an earlier edge's
        vertex set; then that short edge; then a vertex count above k*m,
        before anything of size n is allocated, and an isolated vertex.
        """
        if k < 2:
            raise ValueError(f"edge cardinality k must be at least 2, got {k}")
        if n < k:
            raise ValueError(f"vertex count n={n} is smaller than k={k}")
        flat: list[int] = []
        stop = None
        for e in edges:
            ids = [int(v) for v in e]
            if len(ids) != k:
                stop = ValueError(f"edge has {len(ids)} ids, expected k={k}")
                break
            flat += ids
        if not flat and stop is None:
            raise ValueError("hypergraph must have at least one edge")
        idx = _edge_rows(k, n, flat, base=0)
        if stop is not None:
            raise stop
        return _build(k, n, idx, base=0)


def _build(k: int, n: int, idx: np.ndarray, base: int) -> Hypergraph:
    """The hypergraph on the checked sorted 0-based rows ``idx``, once every vertex
    is covered; an isolated vertex is named by its id counted from ``base``."""
    if n > k * len(idx):
        raise ValueError(f"vertex count n={n} exceeds k*m={k * len(idx)}, so some vertex is isolated")
    degrees = np.bincount(idx.ravel(), minlength=n).astype(np.float64)
    if not degrees.all():
        raise ValueError(f"vertex {int(np.argmin(degrees)) + base} is isolated (degree 0)")
    idx.setflags(write=False)
    degrees.setflags(write=False)
    return Hypergraph(k=k, n=n, edge_index=idx, degree_vector=degrees)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the ``.khg`` text format.

    Line 1 is a header ``k n m``; the next ``m`` significant lines carry
    ``k`` distinct 1-based vertex ids each.  Blank lines and lines starting
    with ``#`` are ignored.  Errors name the offending (physical) line.

    The line loop only reads: the header, then each edge line's integers,
    its count of ids and the running edge count, up to the first line that
    fails one of these.  The rows read before it are then checked at once
    by the checks ``Hypergraph.from_edges`` runs (id range, repeated vertex,
    duplicate edge), and the first bad row is reported at its own line, so
    the error is the one a line-by-line reader meets first.  The declared m,
    n > k*m and isolated vertices follow, reported at the header line.
    """
    header: tuple[int, int, int] | None = None
    header_line = 0
    flat: list[int] = []
    lines: list[int] = []
    stop = None
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
        if len(lines) == m:
            stop = ParseError(line_no, f"more than the declared m={m} edge lines")
            break
        try:
            ids = list(map(int, fields))
        except ValueError:
            stop = ParseError(line_no, f"edge line must hold integers, got {stripped!r}")
            break
        if len(ids) != k:
            stop = ParseError(line_no, f"edge has {len(ids)} ids, expected k={k}")
            break
        flat += ids
        lines.append(line_no)
    if header is None:
        raise ParseError(1, "empty input, expected 'k n m' header")
    k, n, m = header
    try:
        idx = _edge_rows(k, n, flat, base=1)
    except _EdgeFault as fault:
        raise ParseError(lines[fault.row], str(fault)) from None
    if stop is not None:
        raise stop
    if len(lines) != m:
        raise ParseError(header_line, f"declared m={m} edges but found {len(lines)}")
    try:
        return _build(k, n, idx - 1, base=1)
    except ValueError as exc:
        # only coverage violations are left after the row checks
        raise ParseError(header_line, str(exc)) from None


def degree_stats(h: Hypergraph) -> tuple[int, int, Fraction]:
    """Return (max degree, min degree, average degree k*m/n as an exact rational)."""
    d = h.degree_vector
    return int(d.max()), int(d.min()), Fraction(h.k * h.m, h.n)


def row_edges(h: Hypergraph, removed: np.ndarray) -> np.ndarray:
    """The edges of every h - removed[r] as rows of flat indices r * n + v, row
    after row and in edge order within a row.

    h - j drops vertex j and every edge through it; j = -1 drops nothing, so
    the one row h - (-1) is ``h.edge_index`` itself.  This is the one place
    where that is decided.
    """
    if removed.size == 1 and removed[0] < 0:
        return h.edge_index
    row, edge = np.nonzero((h.edge_index != removed[:, None, None]).all(axis=2))
    return h.edge_index[edge] + (row * h.n)[:, None]


def component_labels(cells: np.ndarray, size: int) -> np.ndarray:
    """label[i]: the smallest of the ``size`` flat ids joined to i by the edges ``cells``.

    Min-label propagation with pointer jumping over the (edges, k) rows of
    ids; an id on no edge labels itself.  Each round gathers the labels of
    the k edge columns as one contiguous (k, edges) array, takes each
    edge's least column by column, and scatters it to the edge's ids with
    one flat ``np.minimum.at``.  On ``row_edges(h, removed)`` with size = rows * n,
    the label of r * n + i is r * n plus the smallest vertex of i's
    component in h - removed[r].
    """
    label = np.arange(size)
    while True:
        new = label.copy()
        np.minimum.at(new, cells.ravel(), np.repeat(label.take(cells.T).min(axis=0), cells.shape[1]))
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def sorted_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the stable order that sorts the nonnegative ints ``values``,
    and where each run of equal values begins in it.  Each run keeps its
    positions ascending, and a reduction over the runs is one ``reduceat``."""
    order = np.argsort(values, kind="stable")
    return order, np.flatnonzero(np.diff(values[order], prepend=-1))


def components(h: Hypergraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    # a component's label is its smallest member
    order, starts = sorted_runs(component_labels(h.edge_index, h.n))
    return [tuple(g.tolist()) for g in np.split(order, starts[1:])]


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
