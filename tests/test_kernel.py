import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalmaps import (
    ConstructionParams,
    IntPolynomial,
    SlopeBelowMinimumError,
    is_exact,
    minimal_slope,
    parse_slope_text,
    scalar_from_str,
    scalar_to_str,
    slope_poly,
    slope_poly_quotient,
)
from intervalmaps.kernel import minimal_slope_bracket
from oracles import (
    float_horner_bracket, fraction_from_str, horner, slope_at_least_minimal, slope_poly_value
)

GOLDEN = (1 + math.sqrt(5)) / 2
ODD_PS = list(range(3, 32, 2))


@st.composite
def slash_texts(draw):
    """'num/den' texts with signs, zero and big numerators, negative
    denominators, blanks around either side and underscores between digits."""
    def spelled(value):
        digits = str(abs(value))
        if len(digits) > 1 and draw(st.booleans()):
            cut = draw(st.integers(1, len(digits) - 1))
            digits = digits[:cut] + "_" + digits[cut:]
        sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
        blank = st.sampled_from(["", " ", "\t", "  "])
        return draw(blank) + sign + digits + draw(blank)

    big = st.integers(-(2**200), 2**200)
    num = draw(st.one_of(st.just(0), st.integers(-50, 50), big))
    den = draw(st.one_of(st.integers(-50, 50), big).filter(bool))
    return spelled(num) + "/" + spelled(den)


def synthetic_quotient_by_x_plus_1(coeffs_low_first):
    """Independent oracle: divide by (X + 1) via synthetic division at -1.

    Returns (quotient coeffs, remainder), all exact.
    """
    high_first = list(reversed([Fraction(c) for c in coeffs_low_first]))
    out = []
    acc = Fraction(0)
    for c in high_first:
        acc = c - acc if out else c
        out.append(acc)
    remainder = out[-1]
    quotient_high_first = out[:-1]
    return list(reversed(quotient_high_first)), remainder


class TestPolynomials:
    def test_slope_poly_shape(self):
        assert slope_poly(3).coeffs == (-1, -2, 0, 1)
        assert slope_poly(5).coeffs == (-1, 0, 0, -2, 0, 1)

    def test_eval_examples(self):
        assert slope_poly_value(3, Fraction(0)) == -1  # constant term
        assert slope_poly_value(3, Fraction(2)) == 3   # 8 - 4 - 1
        # X^(p-2) (X^2 - 2) - 1 nearly vanishes at sqrt(2) except the -1
        assert abs(slope_poly_value(5, math.sqrt(2)) + 1) < 1e-12

    @pytest.mark.parametrize("p", ODD_PS)
    def test_quotient_matches_synthetic_division(self, p):
        # brute-force oracle first: the quotient of X^p - 2X^(p-2) - 1 by (X+1)
        quotient, remainder = synthetic_quotient_by_x_plus_1(slope_poly(p).coeffs)
        assert remainder == 0
        assert tuple(int(c) for c in quotient) == slope_poly_quotient(p).coeffs

    def test_quotient_values(self):
        # values fixed from the synthetic-division oracle
        assert horner(slope_poly_quotient(3).coeffs, Fraction(1)) == -1
        assert horner(slope_poly_quotient(3).coeffs, Fraction(2)) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.fractions(
            min_value=Fraction(1, 100), max_value=Fraction(299, 100), max_denominator=1000
        ),
        p=st.sampled_from([3, 5, 7]),
    )
    def test_factorization(self, x, p):
        assert slope_poly_value(p, x) == (x + 1) * horner(slope_poly_quotient(p).coeffs, x)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        poly=st.one_of(
            st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12)
            .filter(lambda cs: len(cs) == 1 or cs[-1] != 0)
            .map(lambda cs: IntPolynomial(tuple(cs))),
            st.sampled_from(ODD_PS).map(slope_poly),
            st.sampled_from(ODD_PS).map(slope_poly_quotient),
        ),
        num=st.one_of(st.integers(-(2**60), 2**60), st.integers(-5, 5)),
        den=st.one_of(st.integers(1, 2**60), st.integers(1, 5)),
    )
    def test_sign_at_matches_fraction_horner(self, poly, num, den):
        """sign_at's homogenised int sum against the sign of the Fraction
        Horner value, on random, slope and quotient polynomials."""
        v = horner(poly.coeffs, Fraction(num, den))
        assert poly.sign_at(num, den) == (v > 0) - (v < 0)

    @pytest.mark.parametrize("p", [3, 5, 107])
    def test_sign_at_roots(self, p):
        """-1 is a root of the slope polynomial, and sqrt(2) sits below its
        positive root: 0 at -1/1, and the sign at float sqrt(2) flips at 107."""
        assert slope_poly(p).sign_at(-1, 1) == 0
        below = slope_poly(p).sign_at(*math.sqrt(2).as_integer_ratio())
        assert below == (1 if p >= 107 else -1)

    def test_rejects_bad_p(self):
        for bad in (2, 4, 1, 0, -3):
            with pytest.raises(ValueError):
                slope_poly(bad)
            with pytest.raises(ValueError):
                slope_poly_quotient(bad)

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 2, 0))

    def test_exactness_contagion(self):
        assert is_exact(slope_poly_value(3, Fraction(1, 3)))
        assert not is_exact(slope_poly_value(3, 0.5))


class TestMinimalSlope:
    def test_golden_ratio(self):
        # P_3 = (X+1)(X^2 - X - 1), so the root is (1 + sqrt 5)/2
        assert abs(minimal_slope(3) - GOLDEN) <= 1e-12

    def test_residual(self):
        r = minimal_slope(5)
        assert abs(slope_poly_value(5, r)) < 1e-8

    def test_range_and_decreasing(self):
        roots = [minimal_slope(p) for p in ODD_PS]
        for r in roots:
            assert math.sqrt(2) < r < 2
        for a, b in zip(roots, roots[1:]):
            assert a > b

    @pytest.mark.parametrize("p", ODD_PS)
    def test_bracket_invariant(self, p):
        lo, hi = minimal_slope_bracket(p)
        assert hi - lo <= 1e-12
        assert slope_poly_value(p, lo) <= 0 <= slope_poly_value(p, hi)

    @pytest.mark.parametrize("p", range(3, 302, 2))
    def test_bracket_exact_signs(self, p):
        """The exact signs at the bracket's ends are - and +, also from
        p = 107 on, where float sqrt(2) already lies above lambda_p."""
        lo, hi = minimal_slope_bracket(p)
        assert hi - lo <= 1e-12
        sign_at = slope_poly(p).sign_at
        assert sign_at(*lo.as_integer_ratio()) == -1
        assert sign_at(*hi.as_integer_ratio()) == 1

    @pytest.mark.parametrize("p", range(3, 106, 2))
    def test_bracket_matches_float_horner(self, p):
        """Up to p = 105 the exact signs pick the float-Horner bisection's
        midpoints, so the bracket and minimal_slope keep every bit."""
        lo, hi = float_horner_bracket(p)
        assert minimal_slope_bracket(p) == (lo, hi)
        assert minimal_slope(p).hex() == (0.5 * (lo + hi)).hex()

    @pytest.mark.parametrize("p", ODD_PS)
    def test_sign_lemma(self, p):
        root = minimal_slope(p)
        for k in range(1, 48):
            x = Fraction(k, 16)
            if x < root - 1e-6:
                assert slope_poly_value(p, x) < 0
            elif x > root + 1e-6:
                assert slope_poly_value(p, x) > 0


class TestScalarText:
    def test_rational_roundtrip(self):
        for q in (Fraction(0), Fraction(-3, 7), Fraction(13, 16), Fraction(5)):
            assert scalar_from_str(scalar_to_str(q)) == q
            assert "/" in scalar_to_str(q)

    def test_float_roundtrip(self):
        for x in (0.1, -2.5, math.sqrt(2), 1e-9):
            text = scalar_to_str(x)
            assert "/" not in text
            assert scalar_from_str(text) == x

    def test_lowest_terms(self):
        assert scalar_to_str(Fraction(4, 8)) == "1/2"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(slash_texts())
    def test_parse_matches_fraction(self, text):
        """The int-pair parse against Fraction(int(num), int(den))."""
        x, ref = scalar_from_str(text), fraction_from_str(text)
        assert type(x) is Fraction
        assert (x.numerator, x.denominator) == (ref.numerator, ref.denominator)
        assert x == ref and hash(x) == hash(ref)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(slash_texts())
    def test_slope_text_matches_fraction(self, text):
        """parse_slope_text reads a/b as scalar_from_str does, so it gives
        the reduced Fraction that Fraction(text) gives wherever that parses,
        and Fraction(int(num), int(den)) on every text."""
        x = parse_slope_text(text, 3)
        assert type(x) is Fraction
        try:
            refs = [Fraction(text), fraction_from_str(text)]
        except ValueError:
            refs = [fraction_from_str(text)]
        for ref in refs:
            assert (x.numerator, x.denominator) == (ref.numerator, ref.denominator)

    @pytest.mark.parametrize("text", ["1/0", " -3 / 0 ", "0/-0", "2_0/0_0"])
    def test_zero_denominator_message(self, text):
        with pytest.raises(ValueError) as err:
            scalar_from_str(text)
        assert str(err.value) == f"scalar {text.strip()!r} has a zero denominator"

    def test_nonfinite_rejected(self):
        from intervalmaps import as_scalar

        with pytest.raises(ValueError):
            as_scalar(float("inf"))
        with pytest.raises(ValueError):
            as_scalar(float("nan"))

    def test_non_scalars_rejected(self):
        from intervalmaps import as_scalar

        for x in (True, "1"):
            with pytest.raises(TypeError):
                as_scalar(x)

    def test_subclasses_pass_through(self):
        from intervalmaps import as_scalar

        class Ratio(Fraction):
            pass

        class Real(float):
            pass

        for x in (Ratio(1, 3), Real(0.5)):
            assert as_scalar(x) is x


def straddling_slopes(p):
    """Rationals just below and just above lambda_p: the ends of its float
    bracket and rationals an ulp outside them, plus the nearest
    small-denominator neighbours on either side."""
    lo, hi = (Fraction(x) for x in minimal_slope_bracket(p))
    ulp = Fraction(1, 2**60)
    out = [lo, hi, lo - ulp, hi + ulp, (lo + hi) / 2]
    for den in (10, 1000, 10**6):
        out += [Fraction(math.floor(lo * den), den), Fraction(math.ceil(hi * den), den)]
    return out


@pytest.mark.parametrize("p", range(3, 102, 2))
def test_exact_slope_check_matches_horner(p):
    """ConstructionParams' int check of a rational slope accepts and refuses
    what the Fraction Horner check does, near lambda_p and at slopes <= 0."""
    assert {slope_at_least_minimal(p, s) for s in straddling_slopes(p)} == {False, True}
    for s in [*straddling_slopes(p), Fraction(2), Fraction(0), Fraction(-1), Fraction(-2)]:
        if slope_at_least_minimal(p, s):
            assert ConstructionParams(p, 0, s).slope == s
            continue
        with pytest.raises(SlopeBelowMinimumError) as err:
            ConstructionParams(p, 0, s)
        assert str(err.value) == (
            f"slope {scalar_to_str(s)} is below the minimal admissible slope "
            f"for odd type {p}: {minimal_slope(p):.12f}"
        )
