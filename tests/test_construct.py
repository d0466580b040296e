import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalmaps import (
    ConstructionParams,
    Interval,
    PLMap,
    SlopeBelowMinimumError,
    eval_slope_quotient,
    minimal_slope,
    odd_type_map,
    orbit_and_t,
    parse_slope_text,
    square_root,
    stefan_map,
)
from intervalmaps.document import document_for

F = Fraction

# any rational here is safely above the minimal slope for every odd p
SLOPES_ABOVE_MIN = st.fractions(
    min_value=F(17, 10), max_value=F(4), max_denominator=50
)


class TestStefan:
    def test_p3(self):
        m = stefan_map(3)
        assert m.breakpoints == (F(0), F(1), F(2))
        assert m.values == (F(2), F(0), F(1))

    def test_p5(self):
        m = stefan_map(5)
        assert m.breakpoints == (F(0), F(1), F(2), F(3), F(4))
        assert m.values == (F(4), F(3), F(1), F(0), F(2))

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            stefan_map(4)
        with pytest.raises(ValueError):
            stefan_map(1)

    @pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13])
    def test_orbit_identities(self, p):
        # the midpoint n walks out: odd steps go k left, even steps k right
        m = stefan_map(p)
        n = (p - 1) // 2
        for k in range(1, n + 1):
            assert m.iterate(F(n), 2 * k - 1) == n - k
            assert m.iterate(F(n), 2 * k) == n + k
        assert m.iterate(F(n), p) == n


class TestOrbit:
    def test_p3_slope2(self):
        orbit, t = orbit_and_t(3, F(2))
        assert orbit == (F(1, 2), F(0), F(1))
        assert t == F(3, 4)

    def test_p5_slope2(self):
        orbit, t = orbit_and_t(5, F(2))
        assert orbit == (F(3, 8), F(1, 4), F(1, 2), F(0), F(1))
        assert t == F(13, 16)

    def test_minimal_slope_collapses_t(self):
        lam = minimal_slope(3)
        _, t = orbit_and_t(3, lam)
        assert abs(t - 1 / lam) <= 1e-9

    def test_below_minimum_raises(self):
        with pytest.raises(SlopeBelowMinimumError) as err:
            orbit_and_t(3, F(8, 5))
        assert "1.618033988750" in str(err.value)

    @settings(max_examples=25, deadline=None)
    @given(slope=SLOPES_ABOVE_MIN, p=st.sampled_from([3, 5, 7, 9]))
    def test_defining_relations(self, slope, p):
        orbit, t = orbit_and_t(p, slope)
        assert orbit[0] == slope * (1 - t)
        for i in range(p - 3):
            assert orbit[i + 1] == 1 - slope * orbit[i]
        # ordering: odd indices descend on the left, evens ascend on the right
        chain = [orbit[i] for i in range(p - 2, 0, -2)]
        chain += [orbit[i] for i in range(0, p - 2, 2)]
        assert chain == sorted(chain)
        assert chain[-1] <= t < 1

    @settings(max_examples=25, deadline=None)
    @given(slope=SLOPES_ABOVE_MIN, p=st.sampled_from([3, 5, 7]))
    def test_t_gap_is_quotient_value(self, slope, p):
        _, t = orbit_and_t(p, slope)
        assert t - 1 / slope == eval_slope_quotient(p, slope) / slope ** (p - 1)

    @pytest.mark.parametrize("p", [7, 9, 11])
    @pytest.mark.parametrize("slope", [F(2), F(5, 2)])
    def test_difference_identities(self, p, slope):
        orbit, _ = orbit_and_t(p, slope)
        for i in range(p - 5):  # i <= p - 6
            expected = ((-1) ** i) * (slope - 1) / slope ** (p - i - 2)
            assert orbit[i + 2] - orbit[i] == expected
        assert orbit[0] - orbit[1] == 1 / slope ** (p - 2)

    @pytest.mark.parametrize("p", [5, 7, 9])
    def test_least_positive_orbit_point(self, p):
        slope = F(2)
        orbit, _ = orbit_and_t(p, slope)
        assert orbit[p - 4] == (slope - 1) / slope ** 2
        positives = [x for x in orbit if x > 0]
        assert min(positives) == orbit[p - 4]


class TestBuild:
    def test_f52_exact(self, f52):
        m = f52.map
        assert m.breakpoints == (
            F(0), F(1, 2), F(5, 8), F(3, 4), F(25, 32), F(13, 16), F(1),
        )
        assert m.values == (F(1), F(0), F(1, 4), F(0), F(1, 16), F(0), F(3, 8))
        assert f52.full_tents == 1
        assert f52.markers.intervals["J1"] == Interval(F(1, 2), F(3, 4))
        assert f52.markers.intervals["K"] == Interval(F(3, 4), F(13, 16))
        assert f52.markers.t == F(13, 16)
        assert f52.middle_length == F(5, 16)

    def test_f32_exact(self, f32):
        m = f32.map
        assert m.breakpoints == (F(0), F(1, 2), F(5, 8), F(3, 4), F(1))
        assert m.values == (F(1), F(0), F(1, 4), F(0), F(1, 2))
        assert f32.full_tents == 0
        assert f32.markers.intervals["K"] == Interval(F(1, 2), F(3, 4))

    def test_degenerate_at_minimal_slope(self):
        lam = minimal_slope(3)
        built = odd_type_map(3, lam)
        assert len(built.map.breakpoints) == 3  # no middle block at all
        assert abs(built.markers.t - 1 / lam) <= 1e-9
        assert built.full_tents == 0
        assert built.middle_length == 0

    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_constant_slope_exact(self, p):
        built = odd_type_map(p, F(2))
        assert built.map.is_constant_slope(F(2), 0)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("slope", [F(2), F(5, 2)])
    def test_orbit_identity_on_map(self, p, slope):
        built = odd_type_map(p, slope)
        for i in range(p):
            assert built.map.eval(built.markers.orbit[i]) == built.markers.orbit[(i + 1) % p]

    def test_partition_tiles_domain(self, f52, f72):
        for built in (f52, f72):
            items = built.markers.partition()
            assert items[0][1].lo == 0 and items[-1][1].hi == 1
            for (_, a), (_, b) in zip(items, items[1:]):
                assert a.hi == b.lo

    def test_tents_hit_zero_and_summit(self, f72):
        height = f72.markers.orbit[3]  # x_{p-4}
        for name, iv in f72.markers.intervals.items():
            if name.startswith("J"):
                assert f72.map.eval(iv.lo) == 0
                assert f72.map.eval(iv.hi) == 0
                assert f72.map.eval(iv.mid) == height
            if name == "K":
                assert f72.map.eval(iv.mid) < height

    def test_exact_cap_absorption(self):
        # slope tuned so the middle length is an exact multiple of the tent
        # width would drop K; generic slope keeps it
        built = odd_type_map(5, F(5, 2))
        names = set(built.markers.intervals)
        assert "I1" in names and "I4" in names


class TestSquareRoot:
    def test_raw_values(self, f32):
        g = square_root(f32.map, rescale=False)
        assert g.breakpoints[-1] == 3
        assert g.eval(F(0)) == 3
        assert g.eval(F(1)) == F(5, 2)
        assert g.eval(F(2)) == 0
        assert g.eval(F(3)) == 1

    def test_translation_block(self, f32):
        g = square_root(f32.map, rescale=False)
        for x in (F(2), F(9, 4), F(5, 2), F(3)):
            assert g.eval(x) == x - 2

    def test_rescaled_domain(self, sqrt32):
        assert sqrt32.breakpoints[0] == 0 and sqrt32.breakpoints[-1] == 1

    def test_needs_zero_start(self):
        shifted = PLMap((F(1), F(2)), (F(2), F(1)))
        with pytest.raises(ValueError):
            square_root(shifted)

    def test_typed_map_d0_is_base(self, f32):
        params = ConstructionParams(3, 0, F(2))
        assert document_for(params).map == f32.map

    def test_typed_map_domains(self):
        params = ConstructionParams(3, 2, F(2))
        dom = document_for(params).map.domain
        assert (dom.lo, dom.hi) == (0, 1)
        raw = document_for(params, rescale=False).map
        assert raw.breakpoints[-1] == 9


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConstructionParams(4, 0, F(2))
        with pytest.raises(ValueError):
            ConstructionParams(3, -1, F(2))
        with pytest.raises(SlopeBelowMinimumError):
            ConstructionParams(3, 0, F(3, 2))

    def test_type_and_target(self):
        params = ConstructionParams(5, 2, F(2))
        assert params.type_value == 20
        assert params.target_entropy == pytest.approx(math.log(2) / 4)

    def test_parse_slope_text(self):
        assert parse_slope_text("2", 3) == F(2)
        assert parse_slope_text("5/2", 3) == F(5, 2)
        assert parse_slope_text("1.75", 3) == 1.75
        resolved = parse_slope_text("lambda_p", 5)
        assert isinstance(resolved, float)
        assert abs(resolved - minimal_slope(5)) <= 1e-12
