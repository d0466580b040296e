import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from intervalmaps import (
    BranchBudgetError,
    FixedPointContinuumError,
    Interval,
    PLMap,
    odd_type_map,
    square_root,
    stefan_map,
)
from intervalmaps.document import load_document
from intervalmaps.kernel import FLOAT_TOL
from oracles import eval_by_index, fraction_lattice, fraction_slopes, iterate, ref_eval
from test_analysis import RATIONAL_DOCS

F = Fraction
DATA = Path(__file__).parent / "data"


def grid_scan_fixed_points(m, q, exponent=20):
    """Independent oracle: dense sign-change scan of f^q(x) - x.

    Evaluates the map with numpy's linear interpolation on a dyadic grid and
    collects exact grid zeros plus midpoints of sign-change cells.
    """
    n = 2 ** exponent
    xs = np.linspace(float(m.breakpoints[0]), float(m.breakpoints[-1]), n + 1)
    bps = np.array([float(b) for b in m.breakpoints])
    vals = np.array([float(v) for v in m.values])
    ys = xs.copy()
    for _ in range(q):
        ys = np.interp(ys, bps, vals)
    g = ys - xs
    sign = np.sign(g)
    roots = list(xs[np.nonzero(g == 0.0)[0]])
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    roots.extend(0.5 * (xs[flips] + xs[flips + 1]))
    return sorted(roots)


def unit_conjugate(f):
    """The breakpoints and values of f conjugated onto [0, 1] by
    x -> (x - a) / w, a the first breakpoint and w the last minus a."""
    a = f.breakpoints[0]
    w = f.breakpoints[-1] - a
    return (tuple((x - a) / w for x in f.breakpoints),
            tuple((v - a) / w for v in f.values))


class TestValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            PLMap((F(0),), (F(0),))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            PLMap((F(0), F(0), F(1)), (F(0), F(1), F(0)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PLMap((F(0), F(1)), (F(0), F(1), F(0)))

    def test_self_map(self):
        with pytest.raises(ValueError):
            PLMap((F(0), F(1)), (F(0), F(2)))

    def test_plateau_rejected(self):
        with pytest.raises(ValueError, match="constant piece"):
            PLMap((F(0), F(1, 2), F(1)), (F(1, 2), F(1, 2), F(1)))

    def test_ints_coerced_exact(self):
        m = PLMap((0, 1, 2), (2, 0, 1))
        assert m.is_exact


class TestInterval:
    """Ends touching, nested, disjoint, overlapping and degenerate."""

    ENDS = [
        (0, 1), (1, 2), (0, 2), (F(1, 4), F(3, 4)), (2, 3), (1, 1), (F(1, 2), F(3, 2)),
    ]

    @pytest.mark.parametrize("kind", [F, float])
    def test_zero_margin_matches_formula(self, kind):
        ivs = [Interval(kind(lo), kind(hi)) for lo, hi in self.ENDS]
        for a in ivs:
            for b in ivs:
                assert a.meets_interior(b, 0) is (a.hi > b.lo + 0 and a.lo < b.hi - 0)
                assert a.encloses(b, 0) is (a.lo <= b.lo + 0 and a.hi >= b.hi - 0)

    def test_nonzero_margin_kept(self):
        a, b = Interval(0.0, 1.0), Interval(1.0 - 1e-10, 2.0)
        assert a.meets_interior(b, 0) and not a.meets_interior(b, FLOAT_TOL)
        assert not b.encloses(Interval(0.9, 2.0), 0)
        wider = Interval(1.0, 2.0 + 1e-10)
        assert b.encloses(wider, FLOAT_TOL) and not b.encloses(wider, 0)

    def test_end_types(self):
        iv = Interval(1, 2)
        assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
        assert (iv.lo, iv.hi) == (1, 2)
        half = F(1, 2)
        iv = Interval(half, 0.75)
        assert iv.lo is half and type(iv.hi) is float and iv.hi == 0.75
        with pytest.raises(ValueError):
            Interval(F(1), 0.5)


class TestEval:
    def test_construction_values(self, f32):
        assert f32.map.eval(F(0)) == 1
        assert f32.map.eval(F(1, 3)) == F(1, 3)  # per-branch solve of 1 - 2x = x

    def test_breakpoint_values(self, f52):
        for b, v in zip(f52.map.breakpoints, f52.map.values):
            assert f52.map.eval(b) == v

    def test_outside_domain(self, f32):
        with pytest.raises(ValueError):
            f32.map.eval(F(3, 2))
        with pytest.raises(ValueError):
            f32.map.eval(F(-1, 10))

    def test_float_slack_clamped(self, f32):
        # iterated float points may drift a hair past the ends
        assert f32.map.eval(1.0 + 1e-12) == f32.map.values[-1]


class TestImage:
    def test_monotone_piece(self, f32):
        assert f32.map.image(Interval(F(0), F(1, 2))) == Interval(F(0), F(1))

    def test_interior_interval(self, f32):
        img = f32.map.image(Interval(F(2, 5), F(1, 2)))
        assert img == Interval(F(0), F(1, 5))

    def test_point_image(self, f32):
        x = F(7, 16)
        assert f32.map.image(Interval(x, x)) == Interval(f32.map.eval(x), f32.map.eval(x))

    def test_nondegenerate_in_out(self, f52):
        img = f52.map.image(Interval(F(5, 8), F(41, 64)))
        assert not img.is_degenerate

    @settings(max_examples=60, deadline=None)
    @given(
        qs=st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            min_size=4,
            max_size=4,
        )
    )
    def test_image_union(self, f52, qs):
        a, b, c, d = sorted(qs)
        if a == c or b == d:
            return
        left, right = Interval(a, c), Interval(b, d)
        whole = f52.map.image(Interval(a, d))
        il, ir = f52.map.image(left), f52.map.image(right)
        assert whole.lo == min(il.lo, ir.lo)
        assert whole.hi == max(il.hi, ir.hi)


class TestLaps:
    def test_lap_counts(self, f32, f52):
        assert f32.map.lap_growth(1) == [4]
        assert f52.map.lap_growth(1) == [6]

    def test_stefan_rescaled(self):
        assert PLMap(*unit_conjugate(stefan_map(3))).lap_growth(1) == [2]

    def test_same_direction_pieces_merge(self, stefan5):
        # slopes -1, -2, -1, +2: three falling pieces form one lap
        assert stefan5.lap_growth(1) == [2]

    def test_lap_growth_base_case(self, f32, f52, stefan5):
        for m, laps in ((f32.map, 4), (f52.map, 6), (stefan5, 2)):
            assert m.lap_growth(1) == [laps]
            assert m.lap_growth(5)[0] == laps

    def test_lap_growth_prefix(self, f32):
        # frozen from a by-hand branch refinement of f, f^2, f^3, f^4
        assert f32.map.lap_growth(4) == [4, 7, 17, 30]

    def test_last_ratio_f32(self, f32):
        laps = f32.map.lap_growth(14)
        assert abs(math.log(laps[-1] / laps[-2]) - math.log(2)) < 0.02

    def test_tail_ratio_f52(self, f52):
        # single-step ratios of this map oscillate with period 2 (about 1.74
        # and 2.32 at n=12), so the clean reading is the two-step ratio
        laps = f52.map.lap_growth(12)
        two_step = 0.5 * math.log(laps[-1] / laps[-3])
        assert abs(two_step - math.log(2)) < 0.05

    def test_submultiplicative(self, f32, sqrt32):
        for m in (f32.map, sqrt32):
            laps = m.lap_growth(10)
            for i in range(1, 11):
                for j in range(1, 11 - i):
                    assert laps[i + j - 1] <= laps[i - 1] * laps[j - 1]

    def test_ratio_bounds(self, f32, f52):
        # single-step ratios overshoot the slope (f32 has 17/7 > 2, and f52
        # keeps a period-2 oscillation around 2); what holds is monotone
        # growth plus a two-step geometric ratio settling at the slope
        for built in (f32, f52):
            laps = built.map.lap_growth(14)
            ratios = [b / a for a, b in zip(laps, laps[1:])]
            assert all(r >= 1 for r in ratios)
            for i in range(7, 13):
                two_step = math.sqrt(laps[i + 1] / laps[i - 1])
                assert 1 <= two_step <= 2 + 0.05

    def test_budget_error(self, f32):
        with pytest.raises(BranchBudgetError) as err:
            f32.map.lap_growth(12, branch_cap=40)
        done = err.value.completed_n
        assert done >= 1
        assert str(done) in str(err.value)
        # the completed prefix is within the cap, and the engine agrees on it
        assert f32.map.lap_growth(done, branch_cap=40) == f32.map.lap_growth(done)
        for call in (f32.map.periodic_points, f32.map.branches_of_iterate):
            with pytest.raises(BranchBudgetError) as again:
                call(12, branch_cap=40)
            assert again.value.completed_n == done


    @pytest.mark.parametrize("slope, done", [(F(2), 21), (F(17, 10), 28)])
    def test_deep_request_stops_near_the_cap(self, monkeypatch, slope, done):
        """An n_max far past the cap is refused from the branch counts of a
        shallow depth: no _hits call goes deeper than 128."""
        m = odd_type_map(5, slope).map
        hits = PLMap._hits

        def spy(self, cuts, n_max):
            assert n_max <= 128, f"_hits to depth {n_max}"
            return hits(self, cuts, n_max)

        monkeypatch.setattr(PLMap, "_hits", spy)
        with pytest.raises(BranchBudgetError) as err:
            m.lap_growth(10**6)
        assert err.value.completed_n == done

    @pytest.mark.parametrize("n_max", [1, 12, 20, 64])
    def test_shallow_request_counts_once(self, monkeypatch, stefan5, n_max):
        """Up to n_max = 64 each cut set is counted once, to depth n_max:
        stefan5's three inner breakpoints, then its one turning point."""
        hits, depths = PLMap._hits, []

        def spy(self, cuts, n):
            depths.append((len(cuts), n))
            return hits(self, cuts, n)

        monkeypatch.setattr(PLMap, "_hits", spy)
        stefan5.lap_growth(n_max, branch_cap=10**30)
        assert depths == [(3, n_max), (1, n_max)]

    def test_argument_floors(self, f32):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            f32.map.lap_growth(0)
        for call in (f32.map.branches_of_iterate, f32.map.periodic_points):
            with pytest.raises(ValueError, match="q must be >= 1"):
                call(0)


class TestPeriodicPoints:
    def test_fixed_points_f32(self, f32):
        assert f32.map.periodic_points(1) == [(F(1, 3), 1)]

    def test_period_three_orbit(self, f32):
        pts = dict(f32.map.periodic_points(3))
        assert pts[F(0)] == 3 and pts[F(1, 2)] == 3 and pts[F(1)] == 3
        assert pts[F(1, 3)] == 1

    def test_no_period_three_f52(self, f52):
        assert all(lp != 3 for _, lp in f52.map.periodic_points(3))

    def test_points_verify_exactly(self, f52):
        for q in range(1, 7):
            for x, lp in f52.map.periodic_points(q):
                assert iterate(f52.map, x, q) == x
                assert q % lp == 0
                # least period really is least
                for j in range(1, lp):
                    assert iterate(f52.map, x, j) != x

    def test_sorted_and_deduplicated(self, f32, f52):
        for m in (f32.map, f52.map):
            for q in (1, 5, 6):  # Fix(f32^6) and Fix(f52^5) hold 0 and 1
                pts = [x for x, _ in m.periodic_points(q)]
                assert all(type(x) is F for x in pts)
                assert all(a < b for a, b in zip(pts, pts[1:]))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_grid_scan_agreement(self, f32, q):
        enumerated = [float(x) for x, _ in f32.map.periodic_points(q)]
        scanned = grid_scan_fixed_points(f32.map, q)
        assert len(enumerated) == len(scanned)
        for a, b in zip(enumerated, scanned):
            assert abs(a - b) <= 2 ** -19

    def test_translation_branch_skipped(self, sqrt32):
        # the square root has a slope-1 translation piece with no fixed point;
        # the unique fixed point sits on the connecting segment
        assert sqrt32.periodic_points(1) == [(F(10, 21), 1)]

    def test_identity_branch_raises(self):
        flip = PLMap((F(0), F(1)), (F(1), F(0)))
        assert flip.periodic_points(1) == [(F(1, 2), 1)]
        with pytest.raises(FixedPointContinuumError):
            flip.periodic_points(2)

    def test_least_periods_divide(self, f32):
        for x, lp in f32.map.periodic_points(6):
            assert 6 % lp == 0

    def test_return_time_is_least_period(self, f32):
        for x, lp in f32.map.periodic_points(6):
            assert f32.map.return_times((x,), 6)[0] == lp

    def test_return_time_bounded_by_n(self, f52):
        assert f52.map.return_times((F(0),), 4)[0] is None
        assert f52.map.return_times((F(0),), 5)[0] == 5

    def test_return_time_float_tolerance(self):
        built = odd_type_map(5, 1.9)
        x = built.markers.orbit[0]
        assert built.map.return_times((x,), 5)[0] == 5
        assert built.map.return_times((x + 1e-6,), 5)[0] is None

    def test_negative_n_refused_exact(self, f52):
        assert f52.map.return_times((F(0),), 0) == [None]
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            f52.map.return_times((F(0),), -1)

    def test_negative_n_refused_floating(self):
        m = odd_type_map(5, 1.9).map
        assert m.return_times((0.0,), 0) == [None]
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            m.return_times((0.0,), -1)


class TestConstantSlope:
    def test_exact_true(self, f52):
        assert f52.map.is_constant_slope(F(2))

    def test_square_root_not_constant(self, sqrt32):
        report = sqrt32.is_constant_slope(F(2))
        assert not report
        # the connecting segment has slope -(x0 + 2b)/b = -5/2 (after rescale)
        assert F(-5, 2) in report.slopes

    def test_wrong_slope_false(self, f52):
        assert not f52.map.is_constant_slope(F(3))

    def test_report_fields(self, f32):
        report = f32.map.is_constant_slope(F(2))
        assert report.ok and bool(report)
        assert len(report.slopes) == len(f32.map.breakpoints) - 1
        assert all(d == 0 for d in report.deviations)


def float_bits(xs):
    return [float.hex(x) for x in xs]


class TestConjugacy:
    def test_rescaled_to_unit(self, stefan5):
        unit = PLMap(*unit_conjugate(stefan5))
        assert unit.domain == Interval(F(0), F(1))
        assert unit.lap_growth(1) == stefan5.lap_growth(1) == [2]
        assert unit.lap_growth(6) == stefan5.lap_growth(6)

    def test_square_root_rescale_maps_the_raw_root(self):
        """square_root(f) is square_root(f, rescale=False) conjugated onto
        [0, 1] by x -> (x - a) / w, a its first breakpoint and w its last
        minus a: bit for bit on every floating fixture, equal on the exact
        ones and on the Stefan maps. The conjugate keeps the laps."""
        maps = [load_document(path).map for path in sorted(DATA.glob("map_*.json"))]
        maps += [stefan_map(3), stefan_map(5)]
        floating = 0
        for f in maps:
            raw, unit = square_root(f, rescale=False), square_root(f)
            bps, vals = unit_conjugate(raw)
            assert unit.is_exact == f.is_exact
            if f.is_exact:
                assert (unit.breakpoints, unit.values) == (bps, vals)
                assert unit.lap_growth(6) == raw.lap_growth(6)
            else:
                floating += 1
                assert float_bits(unit.breakpoints) == float_bits(bps)
                assert float_bits(unit.values) == float_bits(vals)
            assert unit.domain == Interval(0, 1)
            assert unit.lap_growth(1) == raw.lap_growth(1)
        assert floating == 12


@st.composite
def exact_maps_anywhere(draw):
    """Exact self-maps of a random rational domain, with 1 to 8 pieces and
    denominators up to 10^6."""
    scalar = st.fractions(-5, 5, max_denominator=10**6)
    bps = sorted(draw(st.lists(scalar, min_size=2, max_size=9, unique=True)))
    values = draw(st.lists(st.fractions(bps[0], bps[-1], max_denominator=10**6),
                           min_size=len(bps), max_size=len(bps)))
    assume(all(a != b for a, b in zip(values, values[1:])))
    return PLMap(tuple(bps), tuple(values))


def assert_lattice_matches_fractions(m, points):
    """Slopes, exact eval and the engine's integers against the Fraction
    formulas they replace."""
    assert m.slopes == fraction_slopes(m)
    assert all(type(s) is Fraction for s in m.slopes)
    e = m._engine
    assert [e.D, list(e.B), list(e.V), e.L, e.R, e.A] == list(fraction_lattice(m))
    for x in (*m.breakpoints, *m.values, *points):
        y = m.eval(x)
        assert type(y) is Fraction and y == ref_eval(m, x) == eval_by_index(m, x), x


class TestLattice:
    @pytest.mark.parametrize("path", RATIONAL_DOCS, ids=lambda p: p.stem)
    def test_fixture_lattice_matches_fractions(self, path):
        doc = load_document(str(path))
        m = doc.map
        lo, hi = m.breakpoints[0], m.breakpoints[-1]
        midpoints = [(a + b) / 2 for a, b in zip(m.breakpoints, m.breakpoints[1:])]
        orbit = doc.markers.orbit if doc.markers else ()
        points = [*midpoints, lo + (hi - lo) * F(1, 3), *orbit]
        assert_lattice_matches_fractions(m, points)

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(exact_maps_anywhere(), st.data())
    def test_random_lattice_matches_fractions(self, m, data):
        lo, hi = m.breakpoints[0], m.breakpoints[-1]
        inside = st.fractions(lo, hi, max_denominator=10**9)
        assert_lattice_matches_fractions(m, data.draw(st.lists(inside, max_size=6)))

    def test_validation_names_the_scalars(self):
        with pytest.raises(ValueError, match="not strictly increasing at 1/2, 1/3"):
            PLMap((F(0), F(1, 2), F(1, 3), F(1)), (F(0), F(1), F(0), F(1)))
        with pytest.raises(ValueError, match="not strictly increasing at 0.5, 1/3"):
            PLMap((F(0), 0.5, F(1, 3), F(1)), (F(0), F(1), F(0), F(1)))
        with pytest.raises(ValueError, match="not a self-map"):
            PLMap((F(-1, 2), F(1, 2)), (F(1, 2), F(-2, 3)))
        with pytest.raises(ValueError, match="constant piece at index 1"):
            PLMap((F(0), F(1, 3), F(2, 3), F(1)), (F(0), F(2, 6), F(1, 3), F(1)))
