import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from intervalmaps import (
    BranchBudgetError,
    Interval,
    build_covering_graph,
    estimate_entropy,
    minimal_slope,
    odd_type_map,
    verify_mixing,
    verify_type,
)
from intervalmaps.analysis import _boundary_periods
from intervalmaps.plmap import _ExactEngine
from intervalmaps.sharkovskii import sharkovskii_le
from intervalmaps.document import load_document
from intervalmaps.kernel import scalar_to_str
from oracles import iterate, mixing_seeds, mixing_trace, ref_eval

F = Fraction
RATIONAL_DOCS = [
    path
    for path in sorted((Path(__file__).parent / "data").glob("map_*.json"))
    if json.loads(path.read_text())["params"]["mode"] == "rational"
]


MARKED_DOCS = [path for path in RATIONAL_DOCS if "_d0_" in path.name]


def ref_return_time(m, x, n):
    """The least j <= n with f^j(x) = x, stepping with the oracle's ref_eval."""
    y = x
    for j in range(1, n + 1):
        y = ref_eval(m, y)
        if y == x:
            return j
    return None


def assert_boundary_walk_matches_per_end(m, partition, ns):
    """_boundary_periods, which walks each cycle once, against one walk per
    partition end: return_times one point at a time and the oracle's
    Fraction walk."""
    ends = sorted({pt for _, iv in partition for pt in (iv.lo, iv.hi)})
    for n in ns:
        got = _boundary_periods(m, partition, n)
        assert list(got) == [scalar_to_str(pt) for pt in ends]
        assert list(got.values()) == [m.return_times((pt,), n)[0] for pt in ends]
        assert list(got.values()) == [ref_return_time(m, pt, n) for pt in ends]


class TestBoundaryWalk:
    @pytest.mark.parametrize("path", MARKED_DOCS, ids=lambda path: path.stem)
    def test_fixture_ends(self, path):
        doc = load_document(str(path))
        p = doc.params.p
        assert_boundary_walk_matches_per_end(
            doc.map, doc.markers.partition(), (1, p - 2, p, 2 * p + 1)
        )

    @pytest.mark.parametrize("p", [21, 31, 51, 101])
    def test_long_cycle_ends(self, p):
        """All ends but t lie on the marker p-cycle, which closes within p
        steps and not within p - 2, the reach of a type-3 claim."""
        built = odd_type_map(p, F(283, 200))
        partition = built.markers.partition()
        assert_boundary_walk_matches_per_end(built.map, partition, (p - 2, p))
        assert set(_boundary_periods(built.map, partition, p).values()) == {p, None}

    @pytest.mark.parametrize("p, slope, steps", [
        (5, F(2), [7, 7, 7, 7]),
        (7, F(2), [9, 9, 9, 9]),
        (21, F(283, 200), [22, 22, 22, 22]),
        (51, F(283, 200), [52, 52, 52, 52]),
        (101, F(283, 200), [102, 102, 102, 102]),
    ])
    def test_steps_per_cycle(self, monkeypatch, p, slope, steps):
        """The _ExactEngine.point steps of the boundary walk at n = 1, p - 2,
        p and 2p + 1. Each orbit point is stepped from once: the ends on
        the marker p-cycle share one walk of it (p steps), and each end off
        the cycle takes one step onto 0, settled by then, and stops; a walk
        per end would take about p times as many steps."""
        built = odd_type_map(p, slope)
        calls = []
        point = _ExactEngine.point

        def counted(self, num, den):
            calls.append(num)
            return point(self, num, den)

        monkeypatch.setattr(_ExactEngine, "point", counted)
        made = []
        for n in (1, p - 2, p, 2 * p + 1):
            calls.clear()
            _boundary_periods(built.map, built.markers.partition(), n)
            made.append(len(calls))
        assert made == steps

    def test_mixed_ends_walk_alone(self, f52):
        """A float end on an exact map takes its own walk, which closes only
        on equality, as an exact map's tol is 0; FLOAT_TOL enters only
        through the domain clamp."""
        partition = [("A", Interval(F(0), 0.5)), ("B", Interval(0.5, F(1)))]
        assert _boundary_periods(f52.map, partition, 5) == {
            "0/1": 5, "0.5": f52.map.return_times((0.5,), 5)[0], "1/1": 5
        }


class TestVerifyType:
    def test_f52(self, f52):
        report = verify_type(f52.map, 5, 13, partition=f52.markers.partition())
        assert report.verdict == "consistent"
        assert report.absent == (3,)
        assert set(report.present) == {1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
        assert report.present[5] in set(f52.markers.orbit)
        assert report.excluded_odd_periods == (3,)
        assert report.census[3] == 0

    def test_f72(self, f72):
        report = verify_type(f72.map, 7, 13, partition=f72.markers.partition())
        assert report.verdict == "consistent"
        assert report.absent == (3, 5)
        assert report.excluded_odd_periods == (3, 5)

    def test_excluded_periods_checked_past_q_max(self, f52):
        """f52 has a 5-cycle, so a claim of type 7 checked to q_max = 3 may
        exclude 3 but not 5: the census and the boundary walk run to 5. They
        are reported up to q_max, where the boundary period 5 is None."""
        partition = f52.markers.partition()
        assert verify_type(f52.map, 7, 5, partition=partition).census[5] == 1
        report = verify_type(f52.map, 7, 3, partition=partition)
        assert report.excluded_odd_periods == (3,)
        assert report.census == {1: 1, 2: 3, 3: 0}
        assert set(report.boundary_periods.values()) == {None}

    def test_square_root_type_six(self, sqrt32):
        report = verify_type(sqrt32, 6, 12)
        assert report.verdict == "consistent"
        assert set(report.present) == {1, 2, 4, 6, 8, 10, 12}
        assert report.census is None

    @pytest.mark.parametrize("path", RATIONAL_DOCS, ids=lambda path: path.stem)
    def test_witnesses_reverify(self, path):
        """Each witness has the least period it is reported under, re-iterated
        with the oracle's exact evaluator rather than the engine."""
        doc = load_document(str(path))
        partition = doc.markers.partition() if doc.markers else None
        report = verify_type(doc.map, doc.params.type_value, 9, partition=partition)
        assert report.present
        for q, x in report.present.items():
            assert iterate(doc.map, x, q) == x
            for j in range(1, q):
                assert iterate(doc.map, x, j) != x

    def test_refuted_claim(self, f32):
        # the type-3 map realizes period 3, which type 5 forbids
        report = verify_type(f32.map, 5, 6)
        assert report.verdict == "refuted"
        assert "period 3" in report.refutation

    def test_inconclusive_on_budget(self, f52):
        report = verify_type(f52.map, 5, 13, branch_cap=60)
        assert report.verdict == "inconclusive"
        assert report.checked_up_to < 13

    def test_boundary_periods_are_p_or_none(self, f52):
        report = verify_type(f52.map, 5, 13, partition=f52.markers.partition())
        assert set(report.boundary_periods.values()) <= {5, None}

    def test_present_set_is_up_closed(self, f52):
        report = verify_type(f52.map, 5, 13, partition=f52.markers.partition())
        for m in report.present:
            for m2 in range(1, 14):
                if sharkovskii_le(m, m2):
                    assert m2 in report.present

    def test_interior_orbits_trace_graph_cycles(self, f52):
        # soundness of the covering graph: an interior periodic orbit follows
        # the arrows (this is the direction the certificate relies on)
        partition = f52.markers.partition()
        graph = build_covering_graph(f52.map, partition)
        arrows = {(a, b) for a, b, _kind in graph.edges}
        boundary = set()
        for _, iv in partition:
            boundary.update((iv.lo, iv.hi))

        def label_of(x):
            for name, iv in partition:
                if iv.lo < x < iv.hi:
                    return name
            return None

        for q in (1, 2, 4, 5, 6):
            for x, lp in f52.map.periodic_points(q):
                if lp != q:
                    continue
                orbit = [iterate(f52.map, x, j) for j in range(q)]
                if any(pt in boundary for pt in orbit):
                    continue
                labels = [label_of(pt) for pt in orbit]
                assert all(labels)
                for a, b in zip(labels, labels[1:] + labels[:1]):
                    assert (a, b) in arrows

    def test_q_max_validation(self, f32):
        with pytest.raises(ValueError):
            verify_type(f32.map, 3, 0)


class TestEntropy:
    def test_slope_two_maps(self, f32, f52):
        for built in (f32, f52):
            est = estimate_entropy(built.map, 12, target=math.log(2))
            assert est.gap < 0.02

    def test_floating_minimal_slope_p5(self):
        lam = minimal_slope(5)
        built = odd_type_map(5, lam)
        est = estimate_entropy(built.map, 12, target=math.log(lam))
        assert est.gap < 0.05

    def test_square_root_halves_entropy(self, sqrt32):
        est = estimate_entropy(sqrt32, 14, target=math.log(2) / 2)
        assert est.gap < 0.05

    def test_double_root_quarters_entropy(self):
        from intervalmaps import ConstructionParams
        from intervalmaps.document import document_for

        m = document_for(ConstructionParams(5, 2, F(2))).map
        est = estimate_entropy(m, 28, target=math.log(2) / 4)
        assert est.gap < 0.05
        report = verify_type(m, 20, 12)
        assert report.verdict == "consistent"
        assert set(report.present) == {1, 2, 4, 8}

    def test_report_contents(self, f32):
        est = estimate_entropy(f32.map, 10, target=math.log(2))
        assert est.laps[0] == 4
        assert len(est.log_ratios) == 9
        assert est.h_last_ratio == est.log_ratios[-1]
        assert est.h_log_over_n == pytest.approx(math.log(est.laps[-1]) / 10)
        assert est.fit_window == (3, 10)
        assert est.h >= 0

    def test_needs_three_iterates(self, f32):
        with pytest.raises(ValueError):
            estimate_entropy(f32.map, 2)

    def test_budget_propagates(self, f32):
        with pytest.raises(BranchBudgetError):
            estimate_entropy(f32.map, 14, branch_cap=30)


class TestMixing:
    def test_trace_example(self, f32):
        n, images = mixing_trace(f32.map, Interval(F(2, 5), F(1, 2)), 50)
        assert n == 4
        assert images == [
            Interval(F(0), F(1, 5)),
            Interval(F(3, 5), F(1)),
            Interval(F(0), F(1, 2)),
            Interval(F(0), F(1)),
        ]

    def test_whole_domain_is_immediate(self, f32):
        n, images = mixing_trace(f32.map, Interval(F(0), F(1)), 10)
        assert n == 0 and images == []

    def test_onto_and_cover_persists(self, f32):
        dom = f32.map.domain
        assert f32.map.image(dom) == dom
        n, images = mixing_trace(f32.map, Interval(F(2, 5), F(1, 2)), 50)
        cur = images[-1]
        for _ in range(3):
            cur = f32.map.image(cur)
            assert cur == dom

    def test_all_seeds_cover(self, f32, f52):
        for built in (f32, f52):
            report = verify_mixing(built.map, F(1, 1024), 16, 200)
            assert report.all_covered
            assert report.max_n is not None
            assert all(n is not None for n in report.first_cover)

    def test_failure_recorded_not_raised(self, f32):
        report = verify_mixing(f32.map, F(1, 1024), 4, 2)
        assert not report.all_covered
        assert None in report.first_cover

    def test_floating_mode(self):
        lam = minimal_slope(3)
        built = odd_type_map(3, lam)
        report = verify_mixing(built.map, 2.0 ** -10, 16, 200)
        assert report.all_covered

    @pytest.mark.parametrize("name, width, grid, cap", [
        ("f32", F(1, 1024), 64, 200),
        ("f52", F(1, 1024), 64, 200),
        ("f72", F(1, 1024), 64, 200),
        # max_n is 16 at cap 200: six seeds reach a known image whose
        # first cover lands past 15, and must report None
        ("f72", F(1, 1024), 64, 15),
        ("sqrt32", F(1, 1024), 16, 40),  # not mixing: no trace covers
        ("f52", 2.0 ** -10, 64, 200),  # a float width on a rational map: exact seeds
        ("float", 2.0 ** -10, 64, 200),
        ("sqrt52", F(1, 1024), 64, 200),  # not mixing, traces stop at repeats
        # seeds that reach the cap leave their images unsettled: a later seed
        # that meets one early can still cover in time
        ("f52", F(1, 1024), 64, 11),
        # slopes with denominators (R > 1): image ends off the breakpoints' scale
        ("f5_17/10", F(1, 1024), 64, 200),
        ("f3_9/5", F(1, 1024), 64, 200),
    ])
    def test_first_cover_matches_traces(self, request, name, width, grid, cap):
        built = {"float": (5, 1.9), "f5_17/10": (5, F(17, 10)), "f3_9/5": (3, F(9, 5))}
        m = odd_type_map(*built[name]) if name in built else request.getfixturevalue(name)
        m = getattr(m, "map", m)
        report = verify_mixing(m, width, grid, cap)
        traced = tuple(mixing_trace(m, seed, cap)[0] for seed in report.seeds)
        assert report.first_cover == traced
        if m.is_exact and isinstance(width, float):
            assert report.seeds == verify_mixing(m, F(1, 1024), grid, cap).seeds
            assert all(type(x) is Fraction for s in report.seeds for x in (s.lo, s.hi))

    @pytest.mark.parametrize("path", RATIONAL_DOCS, ids=lambda path: path.stem)
    def test_int_seeds_match_fraction_layout(self, path):
        """Exact seeds laid out in ints equal the Fraction-arithmetic layout,
        ends reduced, on [0, 1] and on the [0, 3b] of a --no-rescale root; a
        width of 2 is clipped to the domain. An int width and a float one,
        taken at its binary64 value, give exact seeds too."""
        m = load_document(path).map
        for width in (F(1, 1024), F(1, 3), F(5, 7), F(2), 1, 0.001):
            for grid in (1, 7, 64):
                seeds = verify_mixing(m, width, grid, 1).seeds
                expected = mixing_seeds(m, F(width), grid)
                assert seeds == expected
                assert [(scalar_to_str(s.lo), scalar_to_str(s.hi)) for s in seeds] == [
                    (scalar_to_str(s.lo), scalar_to_str(s.hi)) for s in expected
                ]
                assert all(type(x) is Fraction for s in seeds for x in (s.lo, s.hi))

    def test_non_mixing_traces_stop_early(self, sqrt32, monkeypatch):
        """A trace that repeats an image, or meets one an earlier trace never
        covered from, stops there: running every seed to the cap would take
        about 12,600 image steps here. Exact traces step on the engine's int
        keys, so the steps are counted there."""
        calls = []
        image = _ExactEngine.image

        def counted(self, key):
            calls.append(key)
            return image(self, key)

        monkeypatch.setattr(_ExactEngine, "image", counted)
        report = verify_mixing(sqrt32, F(1, 1024), 64, 200)
        assert report.first_cover.count(None) == 63
        assert len(calls) <= 1000

    def test_validation(self, f32):
        with pytest.raises(ValueError):
            verify_mixing(f32.map, F(0), 4, 10)
        with pytest.raises(ValueError):
            verify_mixing(f32.map, F(1, 8), 0, 10)
