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
    primitive_cycle_census,
    primitive_cycles,
)

F = Fraction


def census_by_search(graph, max_len):
    """The census from the depth-first listing of primitive_cycles."""
    census = {length: 0 for length in range(1, max_len + 1)}
    for cycle in primitive_cycles(graph, max_len):
        census[len(cycle)] += 1
    return census


def census_by_trace_formula(graph, max_len):
    """Independent oracle: primitive cycle counts from powers of the adjacency
    matrix. Closed walks of length n are tr(A^n); Moebius inversion over the
    divisors removes repetitions, and dividing by n collapses rotations.
    """
    labels = graph.labels()
    index = {name: i for i, name in enumerate(labels)}
    size = len(labels)
    mat = [[0] * size for _ in range(size)]
    for a, b, _ in graph.edges:
        mat[index[a]][index[b]] += 1

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]

    powers = {1: mat}
    for n in range(2, max_len + 1):
        powers[n] = matmul(powers[n - 1], mat)

    def trace(n):
        return sum(powers[n][i][i] for i in range(size))

    def moebius(n):
        result, m = 1, n
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                result = -result
            d += 1
        if m > 1:
            result = -result
        return result

    out = {}
    for n in range(1, max_len + 1):
        total = sum(
            moebius(n // d) * trace(d) for d in range(1, n + 1) if n % d == 0
        )
        assert total % n == 0
        out[n] = total // n
    return out


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
            sub = g.without_vertex("I1")
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
    so primitive_cycles can list every cycle up to length 10."""
    size = draw(st.integers(1, 6))
    arrows = draw(st.sets(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=9))
    vertices = tuple((f"v{i}", Interval(F(i), F(i + 1))) for i in range(size))
    edges = tuple((f"v{a}", f"v{b}", EDGE_FULL) for a, b in sorted(arrows))
    return CoveringGraph(vertices, edges)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(digraphs(), st.integers(1, 10))
def test_census_counts_searched_cycles(graph, max_len):
    assert primitive_cycle_census(graph, max_len) == census_by_search(graph, max_len)


class TestDot:
    def test_dot_output(self, graph52):
        dot = graph52.to_dot()
        assert dot.startswith("digraph covering {")
        assert dot.count("style=solid") == 9
        assert dot.count("style=dashed") == 1
        assert '"K" -> "I3" [style=dashed];' in dot

    def test_dot_deterministic(self, graph52):
        assert graph52.to_dot() == graph52.to_dot()
