"""Builders for the piecewise-linear maps of prescribed type and slope.

stefan_map gives the classical minimal-entropy model of odd type p on
[0, 2n]. odd_type_map builds, for any slope >= the minimal one, a
constant-slope map on [0, 1] of odd type p and entropy log(slope): the
falling segment through the periodic orbit, a block of full tents of summit
height x_{p-4} plus one shorter cap tent, and a rising ramp from t to 1.
square_root doubles the type and halves the entropy; document.document_for
applies it d times to reach type 2^d * p. ConstructionParams records a
build's inputs and Markers its certification markers, which verify_markers
checks against the map at build and on load.

Everything is exact when the slope is rational; floating mode compares within
the kernel's FLOAT_TOL. A failed build check raises _failed_check's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Tuple

from .covering import check_partition
from .kernel import (
    Scalar,
    _require_odd,
    _tolerance,
    _within,
    as_scalar,
    is_exact,
    minimal_slope,
    minimal_slope_bracket,
    scalar_from_str,
    scalar_to_str,
    slope_poly,
)
from .plmap import DEFAULT_BRANCH_CAP, BranchBudgetError, Interval, PLMap

__all__ = [
    "ConstructedMap",
    "ConstructionParams",
    "Markers",
    "SlopeBelowMinimumError",
    "odd_type_map",
    "orbit_and_t",
    "parse_slope_text",
    "square_root",
    "stefan_map",
    "verify_markers",
]


class SlopeBelowMinimumError(ValueError):
    """Requested slope is below the minimal admissible slope for the type."""

    def __init__(self, p: int, slope: Scalar):
        self.p = p
        self.slope = slope
        self.minimum = minimal_slope(p)
        super().__init__(
            f"slope {scalar_to_str(as_scalar(slope))} is below the minimal "
            f"admissible slope for odd type {p}: {self.minimum:.12f}"
        )


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters (p, doublings, slope, rescale) for a type 2^d * p build.

    The one record of a build's parameters and the one slope rule: the CLI
    validates its arguments here, a loaded document its params, and
    orbit_and_t (so odd_type_map) its slope. A slope <= 0 is refused. A
    rational slope is checked against the minimal one exactly. A floating
    one passes iff it is at least the low end of minimal_slope_bracket(p),
    which is positive and lies below lambda_p, within 1e-12 of it.
    """

    p: int
    doublings: int = 0
    slope: Scalar = 2
    rescale: bool = True

    def __post_init__(self):
        _require_odd(self.p)
        if not isinstance(self.doublings, int) or self.doublings < 0:
            raise ValueError(f"doublings must be a nonnegative integer, got {self.doublings!r}")
        s = as_scalar(self.slope)
        object.__setattr__(self, "slope", s)
        if is_exact(s):  # s > 0 first: the slope polynomial also vanishes at -1
            ok = s.numerator > 0 and slope_poly(self.p).sign_at(s.numerator, s.denominator) >= 0
        else:
            ok = s >= minimal_slope_bracket(self.p)[0]
        if not ok:
            raise SlopeBelowMinimumError(self.p, s)

    @property
    def mode(self) -> str:
        return "rational" if is_exact(self.slope) else "floating"

    @property
    def type_value(self) -> int:
        return (2 ** self.doublings) * self.p

    @property
    def target_entropy(self) -> float:
        return math.log(float(self.slope)) / (2 ** self.doublings)


@dataclass(frozen=True)
class Markers:
    """The certification markers of an odd-type build.

    orbit is the period-p cycle (orbit[i] maps to orbit[(i+1) % p]); t is the
    start of the final rising ramp; intervals holds the labeled
    pseudo-partition pieces I1..I(p-1), J1..Jk and the cap K when present.
    """

    orbit: Tuple[Scalar, ...]
    t: Scalar
    intervals: Dict[str, Interval]

    def partition(self) -> List[Tuple[str, Interval]]:
        """The labeled pseudo-partition in spatial order."""
        return sorted(self.intervals.items(), key=lambda kv: (kv[1].lo, kv[1].hi))


@dataclass(frozen=True)
class ConstructedMap:
    """A built map together with its certification markers."""

    map: PLMap
    markers: Markers


def stefan_map(p: int) -> PLMap:
    """The classical map of odd type p = 2n+1 on [0, 2n].

    Anchored at f(0) = 2n, f(n-1) = n+1, f(n) = n-1, f(2n-1) = 0, f(2n) = n;
    for n = 1 the anchors coincide pairwise and only two pieces remain.
    """
    _require_odd(p)
    n = (p - 1) // 2
    anchors = {(0, 2 * n), (n - 1, n + 1), (n, n - 1), (2 * n - 1, 0), (2 * n, n)}
    # a collapse that disagreed would leave two equal breakpoints; PLMap refuses them
    xs, vs = zip(*sorted(anchors))
    return PLMap(xs, vs)


def orbit_and_t(p: int, slope) -> Tuple[Tuple[Scalar, ...], Scalar]:
    """Periodic orbit coordinates x_0..x_{p-1} and the ramp start t.

    For i <= p-4, x_i = ((-1)^i / s^(p-i-2)) * sum_{j=0}^{p-i-3} (-s)^j; the
    last three points are pinned at 1/s, 0, 1, and
    t = (s^(p-1) - sum_{j=0}^{p-3} (-s)^j) / s^(p-1).
    The slope must pass ConstructionParams, the one admissibility rule, which
    raises SlopeBelowMinimumError otherwise. The returned values are
    re-verified against the defining relations x_{i+1} = 1 - s*x_i and
    x_0 = s*(1 - t) and against the required ordering.
    Floats are added left to right, as sum() did before Python 3.12
    compensated its rounding, so the orbit is the same on every Python.
    """
    s = ConstructionParams(p, 0, slope).slope
    exact = is_exact(s)
    tol = _tolerance(exact)
    one: Scalar = Fraction(1) if exact else 1.0
    xs: List[Scalar] = [one] * p
    for i in range(p - 3):  # i = 0 .. p-4
        acc = reduce(add, ((-s) ** j for j in range(p - i - 2)), 0)
        xs[i] = ((-1) ** i) * acc / s ** (p - i - 2)
    xs[p - 3] = one / s
    xs[p - 2] = one - one
    xs[p - 1] = one
    t = (s ** (p - 1) - reduce(add, ((-s) ** j for j in range(p - 2)), 0)) / s ** (p - 1)
    if check := _verify_orbit_system(p, s, xs, t, tol):
        raise _failed_check(p, s, check)
    return tuple(xs), t


def _failed_check(p: int, s: Scalar, check: str) -> Exception:
    """A failed check's error: a program fault if s is rational, else a refusal."""
    if is_exact(s):
        return RuntimeError(f"internal: {check}")
    return ValueError(
        f"binary64 rounding breaks the odd type {p} build at slope "
        f"{scalar_to_str(s)} ({check}); give the slope as a fraction a/b"
    )


def _verify_orbit_system(p, s, xs, t, tol) -> Optional[str]:
    for i in range(p - 3):
        if not _within(xs[i + 1], 1 - s * xs[i], tol):
            return f"orbit relation broken at i={i}"
    if not _within(xs[0], s * (1 - t), tol):
        return "ramp relation broken"
    chain = list(range(p - 2, 0, -2)) + list(range(0, p - 2, 2))
    for a, b in zip(chain, chain[1:]):
        if not xs[a] < xs[b]:
            return f"ordering broken between x_{a} and x_{b}"
    if not t < xs[p - 1]:
        return "t must stay below 1"


def odd_type_map(p: int, slope) -> ConstructedMap:
    """Constant-slope map of odd type p on [0, 1] with entropy log(slope).

    Shape: slope -s from (0, 1) down to (1/s, 0); on [1/s, t] a block of k
    full tents of summit x_{p-4} (summit 1 when p = 3) plus a shorter cap
    tent on K; slope +s from (t, 0) up to (1, s*(1-t)). At the minimal slope
    t collapses onto 1/s and the middle block disappears.
    """
    xs, t = orbit_and_t(p, slope)
    s = as_scalar(slope)
    exact = is_exact(s)
    tol = _tolerance(exact)
    zero: Scalar = Fraction(0) if exact else 0.0
    one: Scalar = Fraction(1) if exact else 1.0
    inv = one / s
    height = xs[p - 4] if p > 3 else one
    ell = t - inv

    collapsed = ell <= tol
    points: List[Tuple[Scalar, Scalar]] = [(zero, one), (inv, zero)]
    tents: Dict[str, Interval] = {}
    if collapsed:
        t_used: Scalar = inv
    else:
        t_used = t
        k = math.floor((s * ell) / (2 * height))
        if 2 * k + 2 > DEFAULT_BRANCH_CAP:  # f's pieces, before the cap tent
            raise BranchBudgetError(DEFAULT_BRANCH_CAP, 0)
        step = 2 * height / s
        left = inv
        for i in range(1, k + 1):
            right = inv + i * step
            points.append((left + step / 2, height))
            points.append((right, zero))
            tents[f"J{i}"] = Interval(left, right)
            left = right
        cap_width = t_used - left
        if cap_width <= tol:  # exactly 0 in rational mode
            if k > 0 and points[-1][0] != t_used:
                # reuse t as the last tent's right edge (floating round-off)
                points[-1] = (t_used, zero)
                tents[f"J{k}"] = Interval(tents[f"J{k}"].lo, t_used)
        else:
            points.append((left + cap_width / 2, s * cap_width / 2))
            points.append((t_used, zero))
            tents["K"] = Interval(left, t_used)
    points.append((one, s * (one - t_used)))

    m = PLMap(tuple(x for x, _ in points), tuple(v for _, v in points))
    if check := _verify_build(m, s, tents, height):
        raise _failed_check(p, s, check)

    intervals: Dict[str, Interval] = {}
    intervals["I1"] = _hull(xs[0], xs[1])
    for i in range(2, p - 1):
        intervals[f"I{i}"] = _hull(xs[i - 2], xs[i])
    intervals[f"I{p - 1}"] = Interval(t_used, one)
    intervals.update(tents)
    markers = Markers(tuple(xs), t_used, intervals)
    try:
        verify_markers(m, p, markers)
    except ValueError as exc:  # the markers are this build's own
        raise _failed_check(p, s, str(exc)) from None

    return ConstructedMap(map=m, markers=markers)


def _hull(a: Scalar, b: Scalar) -> Interval:
    return Interval(min(a, b), max(a, b))


def _verify_build(m, s, tents, height) -> Optional[str]:
    tol = m.tol
    report = m.is_constant_slope(s)
    if not report:
        off = max(report.deviations)  # a list of the slopes may run to megabytes
        return f"slopes are not all +-{s}: one is {off} off"
    for name, iv in tents.items():
        if not (_within(m.eval(iv.lo), 0, tol) and _within(m.eval(iv.hi), 0, tol)):
            return f"tent {name} endpoints must map to 0"
        summit = m.eval(iv.mid)
        if name.startswith("J") and not _within(summit, height, tol):
            return f"tent {name} summit must be {height}"
        if name == "K" and not summit < height:
            return "cap tent must stay below the full tents"


def verify_markers(m: PLMap, p: int, markers: Markers) -> None:
    """Check a build's markers against its map: the orbit is a p-cycle of m
    (within m.tol), t lies in the domain and the labeled intervals tile it.
    Raises ValueError naming the marker."""
    orbit, t, tol = markers.orbit, markers.t, m.tol
    dom = m.domain
    if len(orbit) != p:
        raise ValueError(f"marker orbit has {len(orbit)} points, not p = {p}")
    for i, x in enumerate(orbit):
        j = (i + 1) % p
        if not (dom.contains(x) and _within(m.eval(x), orbit[j], tol)):
            raise ValueError(
                f"marker orbit[{i}] = {scalar_to_str(x)} does not map to orbit[{j}]"
            )
    if not dom.contains(t):
        raise ValueError(f"marker t = {scalar_to_str(t)} lies outside the domain")
    check_partition(m, markers.intervals.items())


def square_root(f: PLMap, rescale: bool = True) -> PLMap:
    """Doubling construction on [0, 3b] for f on [0, b].

    g = f + 2b on [0, b], linear down to (2b, 0), then the translation
    x - 2b on [2b, 3b]; g has twice the type and half the entropy of f.
    With rescale the result is conjugated back onto [0, 1] by x -> x / 3b,
    applied to g's tuples before its one PLMap is made.
    """
    if f.breakpoints[0] != 0:
        raise ValueError("square root needs a domain starting at 0")
    b = f.breakpoints[-1]
    zero: Scalar = Fraction(0) if f.is_exact else 0.0
    bps = tuple(f.breakpoints) + (2 * b, 3 * b)
    vals = tuple(v + 2 * b for v in f.values) + (zero, b)
    if rescale:
        w = bps[-1]
        bps = tuple(x / w for x in bps)
        vals = tuple(v / w for v in vals)
    return PLMap(bps, vals)


def parse_slope_text(text: str, p: int) -> Scalar:
    """Slope argument parser: 'a/b' and bare integers are exact rationals,
    decimals are binary64, and 'lambda_p' resolves the minimal slope for p
    numerically (to within minimal_slope's 1e-12)."""
    t = text.strip()
    if t.lower() == "lambda_p":
        return minimal_slope(p)
    if "/" in t:
        return scalar_from_str(t)
    try:
        return as_scalar(int(t))
    except ValueError:
        return as_scalar(float(t))
