import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intervalmaps import (
    ConstructionParams,
    Interval,
    PLMap,
    SlopeBelowMinimumError,
    minimal_slope,
    odd_type_map,
    orbit_and_t,
    parse_slope_text,
    slope_poly_quotient,
    square_root,
    stefan_map,
)
from intervalmaps import construct
from intervalmaps.document import MapDocument, document_for
from intervalmaps.kernel import FLOAT_TOL, IntPolynomial, minimal_slope_bracket
from oracles import (
    horner, iterate, slope_at_least_minimal, slope_poly_value, stefan_map_by_dict
)

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

    @pytest.mark.parametrize("p", range(3, 22, 2))
    def test_matches_anchor_dict(self, p):
        """The anchors collapsed by a set and checked by PLMap give the map
        the old dict check built, breakpoint for breakpoint."""
        m, ref = stefan_map(p), stefan_map_by_dict(p)
        assert m == ref
        assert all(type(x) is F for x in m.breakpoints + m.values)

    @pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13])
    def test_orbit_identities(self, p):
        # the midpoint n walks out: odd steps go k left, even steps k right
        m = stefan_map(p)
        n = (p - 1) // 2
        for k in range(1, n + 1):
            assert iterate(m, F(n), 2 * k - 1) == n - k
            assert iterate(m, F(n), 2 * k) == n + k
        assert iterate(m, F(n), p) == n


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
        assert t - 1 / slope == horner(slope_poly_quotient(p).coeffs, slope) / slope ** (p - 1)

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


def full_tents(built):
    """k, the number of full-height tents: one J marker each."""
    return sum(name.startswith("J") for name in built.markers.intervals)


class TestBuild:
    def test_f52_exact(self, f52):
        m = f52.map
        assert m.breakpoints == (
            F(0), F(1, 2), F(5, 8), F(3, 4), F(25, 32), F(13, 16), F(1),
        )
        assert m.values == (F(1), F(0), F(1, 4), F(0), F(1, 16), F(0), F(3, 8))
        assert full_tents(f52) == 1
        assert f52.markers.intervals["J1"] == Interval(F(1, 2), F(3, 4))
        assert f52.markers.intervals["K"] == Interval(F(3, 4), F(13, 16))
        assert f52.markers.t == F(13, 16)
        assert f52.markers.t - 1 / F(2) == F(5, 16)  # the middle block's length

    def test_f32_exact(self, f32):
        m = f32.map
        assert m.breakpoints == (F(0), F(1, 2), F(5, 8), F(3, 4), F(1))
        assert m.values == (F(1), F(0), F(1, 4), F(0), F(1, 2))
        assert full_tents(f32) == 0
        assert f32.markers.intervals["K"] == Interval(F(1, 2), F(3, 4))

    def test_degenerate_at_minimal_slope(self):
        lam = minimal_slope(3)
        built = odd_type_map(3, lam)
        assert len(built.map.breakpoints) == 3  # no middle block at all
        assert abs(built.markers.t - 1 / lam) <= 1e-9
        assert full_tents(built) == 0
        assert built.markers.t - 1 / lam == 0

    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_constant_slope_exact(self, p):
        built = odd_type_map(p, F(2))
        assert built.map.is_constant_slope(F(2))

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

    def test_float_cap_absorption(self):
        """At this slope the float cap tent after J1 is 1.09e-13 wide, within
        FLOAT_TOL: J1 takes t as its right edge and no K is made."""
        slope = 3.3027756377323247
        built = odd_type_map(3, slope)
        intervals, t = built.markers.intervals, built.markers.t
        assert list(intervals) == ["I1", "I2", "J1"]
        assert intervals["J1"].hi == t
        assert abs(built.map.eval(t)) <= FLOAT_TOL
        text = document_for(ConstructionParams(3, 0, slope)).to_json()
        assert MapDocument.from_json(text).to_json() == text


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
        raw = document_for(ConstructionParams(3, 2, F(2), rescale=False)).map
        assert raw.breakpoints[-1] == 9

    def test_typed_map_without_rescale_is_raw_root(self, f32):
        params = ConstructionParams(3, 1, F(2), rescale=False)
        assert document_for(params).map == square_root(f32.map, rescale=False)


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

    def test_parse_slope_text_reads_int_spellings(self):
        """a/b is read as documents read it, so each side may be any int()
        text, which Fraction's own parser refuses; such a slope then passes
        or fails ConstructionParams like any other."""
        assert parse_slope_text("3/-2", 3) == F(-3, 2)
        assert parse_slope_text("3 / 2", 3) == F(3, 2)
        assert parse_slope_text("+3/+2", 3) == F(3, 2)
        with pytest.raises(SlopeBelowMinimumError):
            ConstructionParams(3, 0, parse_slope_text("3/-2", 3))
        assert ConstructionParams(7, 0, parse_slope_text("3 / 2", 7)).slope == F(3, 2)


def params_at_d0(p, slope):
    return ConstructionParams(p, 0, slope)


def admitted(build, p, slope) -> bool:
    """False when build(p, slope) raises SlopeBelowMinimumError, else True.
    A floating build that binary64 rounding breaks after the slope passed
    (a failed check's ValueError, its markers' check included, as at
    lambda_p + 1e-8 and + 1e-9 for p = 3) admitted the slope; an exact one
    may not fail so."""
    try:
        build(p, slope)
    except SlopeBelowMinimumError:
        return False
    except (RuntimeError, ValueError):
        if isinstance(slope, F):
            raise
    return True


@st.composite
def slopes_near_lambda_p(draw):
    """(p, slope) for odd p <= 15: a float or a rational on either side of
    lambda_p, close to it or not, or a slope <= 0."""
    p = draw(st.sampled_from(range(3, 16, 2)))
    offset = draw(st.one_of(
        st.sampled_from([-5e-10, -2e-12, 2e-12, 5e-10]),
        st.floats(-1e-7, 1e-7),
        st.floats(-0.3, 0.3),
    ))
    slope = minimal_slope(p) + offset
    kind = draw(st.sampled_from(["float", "rational", "nonpositive"]))
    if kind == "rational":
        return p, F(slope).limit_denominator(draw(st.sampled_from([10**6, 10**13])))
    if kind == "nonpositive":
        return p, draw(st.sampled_from([F(0), F(-1), F(-2), 0.0, -2.0]))
    return p, slope


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cell=slopes_near_lambda_p())
# a float just below lambda_p, and slopes <= 0: all three refuse each
@example(cell=(3, minimal_slope(3) - 5e-10))
@example(cell=(3, F(0)))
@example(cell=(3, 0.0))
@example(cell=(3, F(-2)))
@example(cell=(3, -2.0))
def test_one_slope_rule(cell):
    """orbit_and_t and odd_type_map refuse a slope exactly when
    ConstructionParams does, with SlopeBelowMinimumError, and on rationals
    exactly when the slope polynomial's Fraction value says it is below
    lambda_p (or the slope is not positive)."""
    p, slope = cell
    rule = admitted(params_at_d0, p, slope)
    assert admitted(orbit_and_t, p, slope) == rule
    assert admitted(odd_type_map, p, slope) == rule
    if isinstance(slope, F):
        assert rule == slope_at_least_minimal(p, slope)


def test_lambda_p_bisected_once_per_p(monkeypatch):
    """minimal_slope, parse_slope_text('lambda_p'), SlopeBelowMinimumError
    and the floating check of ConstructionParams (which reads the bracket)
    share one bisection per p: the sign_at calls of all of them, made three
    times over, are those of one uncached bisection."""
    calls = []
    sign_at = IntPolynomial.sign_at

    def counted(poly, num, den):
        calls.append(num)
        return sign_at(poly, num, den)

    monkeypatch.setattr(IntPolynomial, "sign_at", counted)
    bracket = minimal_slope_bracket.__wrapped__(29)
    one_bisection = len(calls)
    minimal_slope_bracket.cache_clear()
    calls.clear()
    for _ in range(3):
        lam = minimal_slope(29)
        assert parse_slope_text("lambda_p", 29) == lam
        assert ConstructionParams(29, 0, lam).slope == lam
        with pytest.raises(SlopeBelowMinimumError):
            ConstructionParams(29, 0, 1.4)
    assert len(calls) == one_bisection > 0
    assert minimal_slope_bracket(29) == bracket


# Horner's test alone refuses the rounded lambda_p at these p, where the
# polynomial is steep near its root
HORNER_REFUSES_LAMBDA_P = [29, 31, 33, 35, 39, 41, 43, 47, 53, 65, 69, 73, 75, 79, 81]


class TestLambdaP:
    @pytest.mark.parametrize("p", range(3, 102, 2))
    def test_builds_at_every_odd_p(self, p):
        """lambda_p builds, and the bracket whose low end admits it holds the
        root: the exact check refuses that end and passes the high end."""
        doc = document_for(ConstructionParams(p, 0, minimal_slope(p)))
        assert doc.params.slope == minimal_slope(p)
        lo, hi = minimal_slope_bracket(p)
        with pytest.raises(SlopeBelowMinimumError):
            ConstructionParams(p, 0, F(lo))
        assert ConstructionParams(p, 0, F(hi)).slope == F(hi)

    def test_horner_refusals(self):
        refused = [
            p for p in range(3, 102, 2)
            if slope_poly_value(p, minimal_slope(p)) < -FLOAT_TOL
        ]
        assert refused == HORNER_REFUSES_LAMBDA_P

    @pytest.mark.parametrize("p", range(3, 102, 2))
    def test_nothing_below_the_bracket_passes(self, p):
        """The bracket's low end is accepted and the float below it is not."""
        lo, _ = minimal_slope_bracket(p)
        assert ConstructionParams(p, 0, lo).slope == lo
        with pytest.raises(SlopeBelowMinimumError):
            ConstructionParams(p, 0, math.nextafter(lo, 0))

    @pytest.mark.parametrize("build", [params_at_d0, odd_type_map])
    def test_horner_band_below_lambda_p_refused(self, build):
        """A float 1e-10 under the bracket is refused, though the slope
        polynomial's binary64 value there is within FLOAT_TOL of 0."""
        lo, _ = minimal_slope_bracket(3)
        assert slope_poly_value(3, lo - 1e-10) >= -FLOAT_TOL
        with pytest.raises(SlopeBelowMinimumError):
            build(3, lo - 1e-10)


# (p, float slope, the build check that binary64 rounding breaks there)
ROUNDING_BROKEN = [
    (21, 7.5, "(ordering broken between x_1 and x_0)"),
    (5, 181.5, "(slopes are not all +-181.5: one is 1.1122835985588608e-09 off)"),
    (3, 1e30, "(t must stay below 1)"),
    (3, 1.618033989749979, "(marker orbit[2] = 1.0 does not map to orbit[0])"),
]


def rounding_refusal(p, slope, check) -> str:
    return (
        f"binary64 rounding breaks the odd type {p} build at slope {slope!r} "
        f"{check}; give the slope as a fraction a/b"
    )


class TestRoundingBrokenBuild:
    @pytest.mark.parametrize("p, slope, check", [
        (21, 7.5, "(ordering broken between x_1 and x_0)"),
        (5, 181.5, "(slopes are not all +-181.5: one is 1.1122835985588608e-09 off)"),
        (3, 1e30, "(t must stay below 1)"),
        (3, 1.618033989749979, "(marker orbit[2] = 1.0 does not map to orbit[0])"),
    ])
    def test_float_build_refused_in_one_line(self, p, slope, check):
        """A check that binary64 rounding breaks refuses the build with a
        ValueError naming p, the slope and the check, with no slope list."""
        with pytest.raises(ValueError) as err:
            document_for(ConstructionParams(p, 0, slope))
        message = str(err.value)
        assert message == (
            f"binary64 rounding breaks the odd type {p} build at slope {slope!r} "
            f"{check}; give the slope as a fraction a/b"
        )

    @pytest.mark.parametrize("p, slope, check", ROUNDING_BROKEN)
    def test_builder_raises_the_refusal(self, p, slope, check):
        """odd_type_map raises document_for's refusal itself, where the
        check fails."""
        with pytest.raises(ValueError) as err:
            odd_type_map(p, slope)
        assert str(err.value) == rounding_refusal(p, slope, check)

    @pytest.mark.parametrize("p, slope, check", [ROUNDING_BROKEN[0], ROUNDING_BROKEN[2]])
    def test_orbit_raises_the_refusal(self, p, slope, check):
        with pytest.raises(ValueError) as err:
            orbit_and_t(p, slope)
        assert str(err.value) == rounding_refusal(p, slope, check)

    def test_exact_forms_build(self):
        assert len(document_for(ConstructionParams(21, 0, F(15, 2))).map.breakpoints) == 59
        assert len(document_for(ConstructionParams(5, 0, F(363, 2))).map.breakpoints) == 32945

    def test_exact_build_keeps_runtime_error(self, monkeypatch):
        """A failed check on an exact build is a program fault, not an input
        to refuse."""
        def broken(*args):
            return "ramp relation broken"

        monkeypatch.setattr(construct, "_verify_orbit_system", broken)
        with pytest.raises(RuntimeError, match="^internal: ramp relation broken$"):
            document_for(ConstructionParams(5, 0, F(2)))
        with pytest.raises(ValueError, match=r"\(ramp relation broken\)"):
            document_for(ConstructionParams(5, 0, 2.0))
