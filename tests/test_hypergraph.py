"""Parsing, degrees, components, cuts, and disjoint unions."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from hyperspec import (
    Hypergraph,
    ParseError,
    components,
    cut,
    degree_stats,
    disjoint_union,
    is_connected,
    parse_hypergraph,
)

from hyperspec.hypergraph import component_labels, row_edges

from conftest import random_connected, single_edge


def test_parse_simple_file():
    h = parse_hypergraph("3 4 2\n1 2 3\n2 3 4\n")
    assert h.k == 3 and h.n == 4 and h.m == 2
    assert h.edges == ((0, 1, 2), (1, 2, 3))
    assert h.degrees == (1, 2, 2, 1)


def test_parse_fuzz_gives_a_hypergraph_or_a_parse_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # digits, signs, comment marks, the whitespace and line breaks that
    # str.split and str.splitlines honour, and a Unicode digit int() accepts
    chars = st.sampled_from("0123456789-+# .x\t\n\r\x0b\x0c\x1c\x85\u2028\xa0\u0663")
    valid = "# two edges\n3 4 2\n1 2 3\n\n2 3 4\n"

    def edit(text, edits):
        for pos, width, ch in edits:
            pos %= len(text) + 1
            text = text[:pos] + ch + text[pos + width :]
        return text

    # free text seldom gets past the header, so half the inputs are a valid
    # file with a few characters replaced, inserted or deleted
    edited = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), chars), max_size=4)
    texts = st.one_of(st.lists(chars, max_size=40).map("".join), edited.map(lambda e: edit(valid, e)))

    @hypothesis.settings(database=None, derandomize=True, deadline=None)
    @hypothesis.given(texts)
    def check(text):
        try:
            h = parse_hypergraph(text)
        except ParseError:
            return
        assert isinstance(h, Hypergraph)

    # hypothesis caches what it reads from the source files under its home
    # directory, which defaults to .hypothesis/ in the working directory
    hypothesis.configuration.set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        hypothesis.configuration.set_hypothesis_home_dir(None)


def line_by_line_parse(text: str):
    """A reader that checks each line as it meets it: the reference for ``parse_hypergraph``.

    Returns (k, n, edges, degrees), or raises ParseError.
    """
    header = None
    edges, seen = [], set()
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
            header, header_line = (k, n, m), line_no
            continue
        if len(edges) == m:
            raise ParseError(line_no, f"more than the declared m={m} edge lines")
        try:
            ids = [int(f) for f in fields]
        except ValueError:
            raise ParseError(line_no, f"edge line must hold integers, got {stripped!r}") from None
        if len(ids) != k:
            raise ParseError(line_no, f"edge has {len(ids)} ids, expected k={k}")
        for v in ids:
            if v < 1 or v > n:
                raise ParseError(line_no, f"vertex id {v} outside [1, {n}]")
        if len(set(ids)) != k:
            raise ParseError(line_no, "edge repeats a vertex")
        edge = tuple(sorted(ids))
        if edge in seen:
            raise ParseError(line_no, f"duplicate edge {edge}")
        seen.add(edge)
        edges.append(tuple(v - 1 for v in edge))
    if header is None:
        raise ParseError(1, "empty input, expected 'k n m' header")
    if len(edges) != m:
        raise ParseError(header_line, f"declared m={m} edges but found {len(edges)}")
    if n > k * m:
        raise ParseError(header_line, f"vertex count n={n} exceeds k*m={k * m}, so some vertex is isolated")
    degrees = [sum(v in e for e in edges) for v in range(n)]
    if 0 in degrees:
        raise ParseError(header_line, f"vertex {degrees.index(0) + 1} is isolated (degree 0)")
    return k, n, tuple(edges), tuple(degrees)


def test_parse_agrees_with_a_line_by_line_reader():
    rng = np.random.default_rng(5)
    valid = [
        "# two edges\n3 4 2\n1 2 3\n\n2 3 4\n",
        "3 5 3\n1 2 3\n2 3 4\n3 4 5\n",
        "4 6 3\n1 2 3 4\n3 4 5 6\n1 2 5 6\n",
        "2 3 3\n1 2\n2 3\n1 3\n",
        "3 6 4\n# c\n6 5 4\n1 2 3\n3 4 1\n2 5 6\n",
    ]
    # single characters, and whole lines that are bad edges in several ways at once
    pieces = list("0123456789-+# .x\t\n") + [
        f"\n{line}\n" for line in ("1 2 3", "3 2 1", "1 1 2", "9 9 9", "0 1 2", "1 2 99999999999999999999")
    ]
    outcomes = set()
    for _ in range(3000):
        text = valid[rng.integers(len(valid))]
        for _ in range(rng.integers(1, 5)):
            pos, width = int(rng.integers(len(text) + 1)), int(rng.integers(3))
            text = text[:pos] + pieces[rng.integers(len(pieces))] + text[pos + width :]
        try:
            want = line_by_line_parse(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_hypergraph(text)
            assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc)), text
            outcomes.add(str(exc).split()[2])  # the message's first word
            continue
        h = parse_hypergraph(text)
        assert (h.k, h.n, h.edges, h.degrees) == want, text
        outcomes.add("ok")
    # every kind of verdict came up
    assert {"ok", "vertex", "edge", "duplicate", "more", "declared", "header"} <= outcomes


def test_parse_ignores_blank_lines_and_comments():
    text = "# a comment\n3 4 2\n\n1 2 3\n  # another\n2 3 4\n\n"
    assert parse_hypergraph(text).edges == ((0, 1, 2), (1, 2, 3))


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("3 4\n1 2 3\n", 1),  # header arity
        ("1 4 2\n1 2 3\n2 3 4\n", 1),  # k < 2
        ("3 2 1\n1 2 2\n", 1),  # n < k
        ("3 4 3\n1 2 3\n2 3 4\n", 1),  # declared m mismatch
        ("3 4 2\n1 2\n2 3 4\n", 2),  # edge arity
        ("3 4 2\n1 2 2\n2 3 4\n", 2),  # repeated vertex
        ("3 4 2\n1 2 5\n2 3 4\n", 2),  # id above n
        ("3 4 2\n0 2 3\n2 3 4\n", 2),  # ids are 1-based
        ("3 4 2\n1 2 x\n2 3 4\n", 2),  # non-integer token
        ("3 4 2\n1 2 3\n1 2 3\n", 3),  # duplicate edge
        ("3 5 2\n1 2 3\n2 3 4\n", 1),  # isolated vertex reported at header
        ("3 1000000000 1\n1 2 3\n", 1),  # n > k*m is rejected before allocating n
    ],
)
def test_parse_errors_name_the_offending_line(text, bad_line):
    with pytest.raises(ParseError) as exc:
        parse_hypergraph(text)
    assert exc.value.line_no == bad_line
    assert f"line {bad_line}:" in str(exc.value)


def test_comment_lines_do_not_shift_reported_line_numbers():
    text = "# one\n# two\n3 4 2\n1 2 3\n# pad\n1 2 5\n"
    with pytest.raises(ParseError) as exc:
        parse_hypergraph(text)
    assert exc.value.line_no == 6


def test_from_edges_sorts_and_validates():
    h = Hypergraph.from_edges(3, 4, [(2, 1, 0), (3, 2, 1)])
    assert h.edges == ((0, 1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, 4, [(0, 1, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, 4, [(0, 1, 2), (0, 1, 2)])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, 4, [(0, 1, 4)])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, 5, [(0, 1, 2), (1, 2, 3)])  # vertex 4 isolated
    with pytest.raises(ValueError, match="outside"):
        Hypergraph.from_edges(3, 3, [(0, 1, 3)])
    with pytest.raises(ValueError, match=r"exceeds k\*m"):
        Hypergraph.from_edges(3, 10**9, [(0, 1, 2)])  # rejected before any O(n) allocation


@pytest.mark.parametrize(
    "k, n, edges, message, row",
    [
        # message(b) numbers the ids from b: 0 for from_edges, 1 in the file
        (3, 4, [(0, 1, 2), (1, 2, 4)], lambda b: f"vertex id {4 + b} outside [{b}, {3 + b}]", 1),
        (3, 4, [(0, 1, 2), (3, 9, -1)], lambda b: f"vertex id {9 + b} outside [{b}, {3 + b}]", 1),
        (3, 4, [(0, 1, 1), (1, 2, 9)], lambda b: "edge repeats a vertex", 0),
        (3, 4, [(0, 1, 2), (2, 3, 1), (3, 2, 1)], lambda b: f"duplicate edge ({1 + b}, {2 + b}, {3 + b})", 2),
        (3, 4, [(0, 1, 2), (0, 1, 1), (1, 0, 2)], lambda b: "edge repeats a vertex", 1),
        (3, 4, [(0, 1, 2), (1, 2), (0, 1, 2)], lambda b: "edge has 2 ids, expected k=3", 1),
        (3, 4, [(0, 1, 2), (1, 2), (0, 1, 4)], lambda b: "edge has 2 ids, expected k=3", 1),
        (3, 4, [(0, 1, 2), (0, 1, 2), (1, 2)], lambda b: f"duplicate edge ({b}, {1 + b}, {2 + b})", 1),
        (3, 10**9, [(0, 1, 2)], lambda b: "vertex count n=1000000000 exceeds k*m=3, so some vertex is isolated", None),
        (3, 5, [(0, 1, 2), (1, 2, 3)], lambda b: f"vertex {4 + b} is isolated (degree 0)", None),
        (4, 4, [(0, 1, 2, 2**64)], lambda b: f"vertex id {2**64 + b} outside [{b}, {3 + b}]", 0),
    ],
)
def test_from_edges_and_parse_reject_alike(k, n, edges, message, row):
    with pytest.raises(ValueError) as exc:
        Hypergraph.from_edges(k, n, edges)
    assert str(exc.value) == message(0)
    lines = [f"{k} {n} {len(edges)}"] + [" ".join(str(v + 1) for v in e) for e in edges]
    with pytest.raises(ParseError) as exc:
        parse_hypergraph("\n".join(lines))
    # an edge's fault names its line, a graph-wide fault the header's
    assert str(exc.value) == f"line {1 if row is None else row + 2}: {message(1)}"


def test_degree_stats_on_hub_graph(hub_graph):
    dmax, dmin, davg = degree_stats(hub_graph)
    assert (dmax, dmin) == (6, 2)
    assert davg == Fraction(3)
    assert hub_graph.degrees == (2, 2, 2, 6, 6, 2, 2, 2)


def test_average_degree_identity_on_random_graphs():
    # sum of degrees counts each edge k times, so the average is k*m/n exactly
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        _, _, davg = degree_stats(h)
        assert davg == Fraction(h.k * h.m, h.n)
        assert sum(h.degrees) == h.k * h.m


def test_components_and_connectivity(hub_graph, two_edge_path):
    assert components(hub_graph) == [tuple(range(8))]
    assert is_connected(hub_graph)
    u = disjoint_union(hub_graph, two_edge_path)
    assert not is_connected(u)
    assert components(u) == [tuple(range(8)), tuple(range(8, 12))]


def test_component_labels_match_union_find_reference():
    def reference(h, removed):
        # union-find over the edges that avoid the removed vertex
        parent = list(range(h.n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for e in h.edges:
            if removed not in e:
                for v in e[1:]:
                    parent[find(v)] = find(e[0])
        groups = {}
        for v in range(h.n):
            groups.setdefault(find(v), []).append(v)
        return [min(groups[find(v)]) for v in range(h.n)]

    rng = np.random.default_rng(105)
    for _ in range(12):
        k = int(rng.integers(2, 5))
        parts = [random_connected(rng, k, int(rng.integers(k, 9))) for _ in range(int(rng.integers(1, 4)))]
        h = parts[0]
        for p in parts[1:]:
            h = disjoint_union(h, p)
        removed = np.arange(-1, h.n)
        # row r holds r * n plus each vertex's label in h - removed[r]
        got = component_labels(row_edges(h, removed), removed.size * h.n).reshape(removed.size, h.n)
        got -= np.arange(removed.size)[:, None] * h.n
        for r, j in enumerate(removed.tolist()):
            assert got[r].tolist() == reference(h, j)
        assert components(h) == sorted({tuple(np.flatnonzero(got[0] == v).tolist()) for v in got[0]})


def test_the_one_row_that_drops_nothing_is_the_edge_index_itself(hub_graph):
    # h - (-1) is h, whose flat indices 0 * n + v are its own edge index
    assert row_edges(hub_graph, np.array([-1])) is hub_graph.edge_index
    two = row_edges(hub_graph, np.array([-1, -1]))
    assert np.array_equal(two, np.concatenate([hub_graph.edge_index, hub_graph.edge_index + hub_graph.n]))


def test_disjoint_union_shifts_edges_and_keeps_degrees(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    assert u.k == 3 and u.n == 12 and u.m == hub_graph.m + two_edge_path.m
    assert u.edges[: hub_graph.m] == hub_graph.edges
    assert u.edges[hub_graph.m :] == tuple(
        tuple(v + 8 for v in e) for e in two_edge_path.edges
    )
    assert u.degrees == hub_graph.degrees + two_edge_path.degrees


def test_disjoint_union_requires_matching_k(hub_graph, k6_edge):
    with pytest.raises(ValueError):
        disjoint_union(hub_graph, k6_edge)


def test_cut_counts_on_hub_graph(hub_graph):
    info = cut(hub_graph, [0, 1, 2])
    assert info.subset == (0, 1, 2)
    assert info.edges_in_subset == (0,)  # edge (0,1,2) lies inside S
    assert info.edges_in_complement == (4, 5, 6, 7)
    assert info.crossing_edges == (1, 2, 3)  # the three hub edges through S
    assert info.t_per_edge == (1, 1, 1)
    assert info.t_average == Fraction(1)


def test_cut_of_single_hub_vertex(hub_graph):
    info = cut(hub_graph, [3])
    assert info.crossing_edges == (1, 2, 3, 4, 5, 6)
    assert info.edges_in_subset == ()
    assert info.t_per_edge == (1,) * 6


def test_cut_partition_identity_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(k + 1, 11))
        h = random_connected(rng, k, n)
        size = int(rng.integers(1, n))
        subset = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
        info = cut(h, subset)
        counted = len(info.edges_in_subset) + len(info.edges_in_complement) + len(info.crossing_edges)
        assert counted == h.m
        assert sorted(info.edges_in_subset + info.edges_in_complement + info.crossing_edges) == list(range(h.m))
        assert all(0 < t < h.k for t in info.t_per_edge)
        assert len(info.t_per_edge) == len(info.crossing_edges)
        if info.crossing_edges:
            assert info.t_average == Fraction(sum(info.t_per_edge), len(info.crossing_edges))
        else:
            assert info.t_average is None
        # the complementary subset sees the same crossing edges from the other side
        comp = [v for v in range(n) if v not in set(subset)]
        other = cut(h, comp)
        assert other.crossing_edges == info.crossing_edges
        assert [k - t for t in info.t_per_edge] == list(other.t_per_edge)


def test_cut_rejects_improper_subsets(hub_graph):
    with pytest.raises(ValueError):
        cut(hub_graph, [])
    with pytest.raises(ValueError):
        cut(hub_graph, range(8))
    with pytest.raises(ValueError):
        cut(hub_graph, [0, 8])
    # duplicate ids collapse to a set rather than erroring
    assert cut(hub_graph, [0, 0, 1]).subset == (0, 1)


def test_no_crossing_cut_on_disconnected_union(hub_graph, two_edge_path):
    u = disjoint_union(hub_graph, two_edge_path)
    info = cut(u, range(8))
    assert info.crossing_edges == ()
    assert info.t_average is None
    assert info.edges_in_subset == tuple(range(hub_graph.m))


def test_single_edge_constructor():
    for k in (2, 3, 4, 6):
        h = single_edge(k)
        assert h.m == 1 and h.n == k and h.degrees == (1,) * k
