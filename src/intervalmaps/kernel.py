"""Exact and floating scalars plus the slope polynomials and their positive roots.

Scalars are either stdlib rationals (arbitrary-precision, kept in lowest terms
with positive denominator by construction) or finite binary64 floats.
Arithmetic between two rationals stays rational; anything touching a float
becomes float, never the other way around, so exactness is visible in the type.

Parsed and lattice-made rationals are built by _fraction from a reduced int
pair, with no Fraction.__new__ (_ratio reduces a pair by one gcd first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

Scalar = Union[Fraction, float]

# The one tolerance of floating-mode comparisons; documents record it as "tol".
FLOAT_TOL = 1e-9

__all__ = [
    "FLOAT_TOL",
    "IntPolynomial",
    "Scalar",
    "as_scalar",
    "eval_slope_poly",
    "is_exact",
    "minimal_slope",
    "minimal_slope_bracket",
    "scalar_from_str",
    "scalar_to_str",
    "slope_poly",
    "slope_poly_quotient",
]


def as_scalar(x) -> Scalar:
    """Coerce to a scalar: ints become exact rationals, floats must be finite."""
    # exact type tests first: isinstance(x, Fraction) goes through ABCMeta
    if type(x) is Fraction:
        return x
    if type(x) is float and math.isfinite(x):
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return _fraction(int(x), 1)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"scalar must be finite, got {x!r}")
        return x
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def _fraction(num: int, den: int) -> Fraction:
    """num/den for a reduced int pair with den > 0, built the way CPython
    3.12's Fraction._from_coprime_ints builds it: the two slots set directly,
    with no argument checks and no gcd. A pair that is not reduced gives a
    Fraction that compares and hashes wrong."""
    x = object.__new__(Fraction)
    x._numerator = num
    x._denominator = den
    return x


def _ratio(num: int, den: int) -> Fraction:
    """num/den for ints with den != 0, reduced by one gcd with its sign moved
    to the numerator, made by _fraction."""
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return _fraction(num // g, den // g)


def _fractions(pairs: Iterable[Tuple[int, int]]) -> List[Fraction]:
    """[_fraction(num, den) for num, den in pairs], with no call per pair."""
    new = object.__new__
    out = []
    for num, den in pairs:
        x = new(Fraction)
        x._numerator = num
        x._denominator = den
        out.append(x)
    return out


def is_exact(x: Scalar) -> bool:
    """True for rational scalars, False for floating ones."""
    return isinstance(x, Fraction)


def _tolerance(exact: bool) -> Scalar:
    """The comparison tolerance: 0 (equality) when exact, else FLOAT_TOL."""
    return 0 if exact else FLOAT_TOL


def _within(x: Scalar, y: Scalar, tol) -> bool:
    """|x - y| <= tol; a tol of 0 is an equality test, with no subtraction."""
    return x == y if not tol else abs(x - y) <= tol


def scalar_to_str(x: Scalar) -> str:
    """Canonical text form: 'num/den' in lowest terms, or shortest round-trip decimal."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def scalar_from_str(text: str) -> Scalar:
    """Parse the canonical text form; a '/' marks an exact rational, which any
    int() text on each side may spell: it is reduced by one gcd and its sign
    moved to the numerator, so '2/4' is 1/2 and '1/-2' is -1/2."""
    t = text.strip()
    if "/" in t:
        num, _, den = t.partition("/")
        num, den = int(num), int(den)
        if den == 0:
            raise ValueError(f"scalar {t!r} has a zero denominator")
        return _ratio(num, den)
    return as_scalar(float(t))


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[i] multiplies x**i."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        if not cs:
            cs = (0,)
        if len(cs) > 1 and cs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    def __call__(self, x: Scalar) -> Scalar:
        """Horner evaluation; exact when x is rational."""
        acc: Scalar = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return as_scalar(acc)


def _require_odd(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd integer >= 3, got {p!r}")


def slope_poly(p: int) -> IntPolynomial:
    """X^p - 2 X^(p-2) - 1, whose unique positive root is the minimal constant
    slope achievable by a map of odd type p."""
    _require_odd(p)
    coeffs = [0] * (p + 1)
    coeffs[0] = -1
    coeffs[p - 2] = -2
    coeffs[p] = 1
    return IntPolynomial(tuple(coeffs))


def slope_poly_quotient(p: int) -> IntPolynomial:
    """The exact quotient slope_poly(p) / (X + 1):
    X^(p-1) - X^(p-2) - sum_{i=0}^{p-3} (-X)^i."""
    _require_odd(p)
    coeffs = [0] * p
    for i in range(p - 2):
        coeffs[i] = -((-1) ** i)
    coeffs[p - 2] = -1
    coeffs[p - 1] = 1
    return IntPolynomial(tuple(coeffs))


def eval_slope_poly(p: int, x: Scalar) -> Scalar:
    """Evaluate X^p - 2 X^(p-2) - 1; exact for rational x."""
    return slope_poly(p)(as_scalar(x))


def minimal_slope_bracket(p: int) -> Tuple[float, float]:
    """Bisection bracket [lo, hi] around the positive root of slope_poly(p).

    Starts from [sqrt(2), 2], where the polynomial is -1 at the left end and
    2^(p-1) - 1 at the right end, and narrows until hi - lo <= 1e-12 while
    the sign change is preserved.
    """
    _require_odd(p)
    poly = slope_poly(p)
    lo, hi = math.sqrt(2.0), 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # ran out of float resolution
            break
        v = poly(mid)
        if v == 0.0:
            return (mid, mid)
        if v < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def minimal_slope(p: int) -> float:
    """The unique positive root of slope_poly(p): the midpoint of
    minimal_slope_bracket(p), whose width is at most 1e-12.

    Always lies strictly between sqrt(2) and 2, and decreases toward sqrt(2)
    as p grows.
    """
    lo, hi = minimal_slope_bracket(p)
    return 0.5 * (lo + hi)
