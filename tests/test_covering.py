from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalmaps import (
    EDGE_FULL,
    EDGE_PARTIAL,
    CoveringGraph,
    Interval,
    build_covering_graph,
    odd_type_map,
    primitive_cycle_census,
)
from intervalmaps.covering import check_partition
from oracles import census_by_trace_formula, primitive_cycles

F = Fraction


def census_by_search(graph, max_len):
    """The census from the depth-first listing of primitive_cycles."""
    census = {length: 0 for length in range(1, max_len + 1)}
    for cycle in primitive_cycles(graph, max_len):
        census[len(cycle)] += 1
    return census


@pytest.fixture(scope="module")
def graph52(f52):
    return build_covering_graph(f52.map, f52.markers.partition())


@pytest.fixture(scope="module")
def graph32(f32):
    return build_covering_graph(f32.map, f32.markers.partition())


@pytest.fixture(scope="module")
def graph72(f72):
    return build_covering_graph(f72.map, f72.markers.partition())


class TestGraphEdges:
    def test_f52_edge_set(self, graph52):
        full = {(a, b) for a, b, k in graph52.edges if k == EDGE_FULL}
        partial = {(a, b) for a, b, k in graph52.edges if k == EDGE_PARTIAL}
        assert full == {
            ("I1", "I1"), ("I1", "I2"), ("I2", "I3"),
            ("I3", "J1"), ("I3", "K"), ("I3", "I4"),
            ("I4", "I1"), ("I4", "I3"), ("J1", "I3"),
        }
        assert partial == {("K", "I3")}

    def test_f32_edge_set(self, graph32):
        full = {(a, b) for a, b, k in graph32.edges if k == EDGE_FULL}
        partial = {(a, b) for a, b, k in graph32.edges if k == EDGE_PARTIAL}
        assert full == {("I1", "I1"), ("I1", "K"), ("I1", "I2"), ("I2", "I1")}
        assert partial == {("K", "I1")}

    def test_whole_domain_partition(self, f32):
        g = build_covering_graph(f32.map, [("all", f32.map.domain)])
        assert g.edges == (("all", "all", EDGE_FULL),)

    def test_vertices_in_spatial_order(self, graph52):
        los = [iv.lo for _, iv in graph52.vertices]
        assert los == sorted(los)

    def test_partition_validation(self, f32):
        m = f32.map
        with pytest.raises(ValueError, match="cover"):
            build_covering_graph(m, [("a", Interval(F(0), F(1, 2)))])
        with pytest.raises(ValueError, match="gap or overlap"):
            build_covering_graph(
                m,
                [("a", Interval(F(0), F(1, 2))), ("b", Interval(F(3, 5), F(1)))],
            )
        with pytest.raises(ValueError, match="degenerate"):
            build_covering_graph(
                m,
                [
                    ("a", Interval(F(0), F(1))),
                    ("pt", Interval(F(1), F(1))),
                ],
            )
        with pytest.raises(ValueError, match="unique"):
            build_covering_graph(
                m,
                [("a", Interval(F(0), F(1, 2))), ("a", Interval(F(1, 2), F(1)))],
            )


class TestCycles:
    def test_single_self_loop(self, f32):
        g = build_covering_graph(f32.map, [("all", f32.map.domain)])
        census = primitive_cycle_census(g, 5)
        assert census == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}

    def test_no_odd_short_cycle_f52(self, graph52):
        census = primitive_cycle_census(graph52, 9)
        assert census[3] == 0

    def test_no_odd_short_cycles_f72(self, graph72):
        census = primitive_cycle_census(graph72, 9)
        assert census[3] == 0 and census[5] == 0

    def test_cycles_avoiding_start_interval_are_even(self, graph52, graph72):
        for g in (graph52, graph72):
            sub = CoveringGraph(
                tuple((name, iv) for name, iv in g.vertices if name != "I1"),
                tuple(e for e in g.edges if "I1" not in e[:2]),
            )
            census = primitive_cycle_census(sub, 9)
            assert all(count == 0 for length, count in census.items() if length % 2)

    def test_cycles_through_start_interval(self, graph52, graph72):
        for g, p in ((graph52, 5), (graph72, 7)):
            lengths = {
                len(c) for c in primitive_cycles(g, 9) if "I1" in c
            }
            assert all(L == 1 or L >= p - 1 for L in lengths)
            assert 1 in lengths and (p - 1) in lengths

    @pytest.mark.parametrize("which", ["f32", "f52", "f72"])
    def test_census_matches_trace_formula(self, which, request):
        built = request.getfixturevalue(which)
        g = build_covering_graph(built.map, built.markers.partition())
        census = primitive_cycle_census(g, 9)
        assert census == census_by_trace_formula(g, 9) == census_by_search(g, 9)

    def test_rotation_canonicalization(self, graph52):
        cycles = primitive_cycles(graph52, 6)
        assert len(cycles) == len(set(cycles))
        for cyc in cycles:
            rotations = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
            assert cyc == min(rotations)


@st.composite
def digraphs(draw):
    """A CoveringGraph on 1-6 vertices with at most nine arrows, loops allowed,
    so primitive_cycles can list every cycle up to length 10 quickly."""
    size = draw(st.integers(1, 6))
    arrows = draw(st.sets(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=9))
    vertices = tuple((f"v{i}", Interval(F(i), F(i + 1))) for i in range(size))
    edges = tuple((f"v{a}", f"v{b}", EDGE_FULL) for a, b in sorted(arrows))
    return CoveringGraph(vertices, edges)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(digraphs(), st.integers(1, 13))
def test_census_counts_searched_cycles(graph, max_len):
    """The census against the depth-first listing up to length 10, and at
    every length against plain repeated-product traces, so the row
    recurrence is checked to length 13, on sinks and loops too (the listing
    takes about 20 times as long at 13)."""
    census = primitive_cycle_census(graph, max_len)
    searched = census_by_search(graph, min(max_len, 10))
    assert {n: census[n] for n in searched} == searched
    assert census == census_by_trace_formula(graph, max_len)


def test_census_counts_a_repeated_arrow_once():
    """An arrow listed twice is one 1 in the adjacency matrix, and a vertex
    with no arrow out has a zero row: the census equals that of the graph
    listed without the repeat. census_by_trace_formula counts a repeat
    twice, so the depth-first listing is the check here."""
    vertices = tuple((f"v{i}", Interval(F(i), F(i + 1))) for i in range(4))
    arrows = [("v0", "v0"), ("v0", "v1"), ("v1", "v0"), ("v1", "v2"),
              ("v2", "v0"), ("v2", "v3")]  # v3 is a sink
    plain = CoveringGraph(vertices, tuple((a, b, EDGE_FULL) for a, b in arrows))
    repeated = CoveringGraph(vertices, plain.edges + (("v1", "v2", EDGE_FULL),))
    census = primitive_cycle_census(repeated, 9)
    assert census == primitive_cycle_census(plain, 9) == census_by_search(plain, 9)
    assert census[1] == 1 and census[3] == 2


@pytest.mark.parametrize("p", [21, 31, 51])
def test_census_at_large_p(p):
    """The census at large p: on the covering graph of the type-p map at
    slope 283/200 there is no cycle of odd length from 3 to p - 2, and there
    are cycles of length p. The repeated-product oracle agrees at p = 21 and
    31; at 51 its pure-Python products are slow, so it is skipped."""
    built = odd_type_map(p, F(283, 200))
    graph = build_covering_graph(built.map, built.markers.partition())
    census = primitive_cycle_census(graph, p)
    assert [census[n] for n in range(3, p, 2)] == [0] * ((p - 3) // 2)
    assert census[p] > 0
    if p < 51:
        assert census == census_by_trace_formula(graph, p)


def test_argument_floors(f52, graph52):
    with pytest.raises(ValueError, match="empty partition"):
        check_partition(f52.map, [])
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        primitive_cycle_census(graph52, 0)


class TestDot:
    def test_dot_output(self, graph52):
        dot = graph52.to_dot()
        assert dot.startswith("digraph covering {")
        assert dot.count("style=solid") == 9
        assert dot.count("style=dashed") == 1
        assert '"K" -> "I3" [style=dashed];' in dot

    def test_dot_deterministic(self, graph52):
        assert graph52.to_dot() == graph52.to_dot()
