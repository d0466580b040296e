"""Continuous piecewise-linear self-maps of a compact interval.

Evaluation and interval images are exact over rationals. Iterates are analyzed
through their affine branches: the intervals on which f^n is affine, found by
cutting each branch of f^(n-1) where it crosses a breakpoint of f. One pass per
map builds each iterate once: a one-slot cursor keeps the last iterate, so
requests for ascending n cost one refinement step each, and a request for an
earlier n restarts from f^1. The pass feeds both certifications: lap counts of
iterates (hence the entropy estimate) and periodic points of f^q.

In rational mode a branch is four plain ints, numerators over two common
denominators: its ends over D*L^(n-1) and their f^n values over D*R^(n-1),
where D is the lcm of the denominators of the breakpoints and values and L, R
are the lcms of the slopes' numerators and denominators. Fixed points are the
sign changes of f^q(x) - x between branch ends. Floating mode carries each
branch's slope and offset in binary64. No itinerary is stored; an error that
names one recomputes it from a point's orbit.

Maps are immutable and results are sorted and deterministic; the cursor is a
cache that never changes what a call returns.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import ne
from typing import Dict, List, Tuple

from .kernel import Scalar, as_scalar, is_exact

# Floating-mode tolerances; exact mode never consults them.
FLOAT_EPS = 1e-9        # domain slack when clamping float points / intervals
MERGE_TOL = 1e-12       # duplicate fixed points at shared branch endpoints
PERIOD_TOL = 1e-9       # least-period verification

DEFAULT_BRANCH_CAP = 10_000_000

__all__ = [
    "BranchBudgetError",
    "DEFAULT_BRANCH_CAP",
    "FLOAT_EPS",
    "FixedPointContinuumError",
    "Interval",
    "PLMap",
    "SlopeReport",
]


class BranchBudgetError(RuntimeError):
    """Branch refinement exceeded its cap. Carries the completed prefix."""

    def __init__(self, cap: int, completed_n: int, laps):
        super().__init__(
            f"branch budget {cap} exceeded; largest completed iterate n={completed_n}"
        )
        self.cap = cap
        self.completed_n = completed_n
        self.laps = list(laps)


class FixedPointContinuumError(RuntimeError):
    """An iterate restricts to the identity on a whole subinterval, so its
    fixed points are not isolated."""


class _BranchCapHit(Exception):
    pass


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; degenerate (lo == hi) is allowed."""

    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        lo, hi = as_scalar(self.lo), as_scalar(self.hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> Scalar:
        return self.hi - self.lo

    @property
    def mid(self) -> Scalar:
        return (self.lo + self.hi) / 2

    def contains(self, x: Scalar, slack=0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def encloses(self, other: "Interval", slack=0) -> bool:
        """self covers other (up to slack on each side)."""
        return self.lo <= other.lo + slack and self.hi >= other.hi - slack

    def meets_interior(self, other: "Interval", margin=0) -> bool:
        """self intersects the open interior of other (margin shrinks it)."""
        return self.hi > other.lo + margin and self.lo < other.hi - margin

    def as_tuple(self) -> Tuple[Scalar, Scalar]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class SlopeReport:
    """Per-piece slope check against a target absolute slope."""

    ok: bool
    target: Scalar
    tol: Scalar
    slopes: Tuple[Scalar, ...]
    deviations: Tuple[Scalar, ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PLMap:
    """Piecewise-linear self-map given by breakpoints and their values.

    The map is linear interpolation on each [b_j, b_{j+1}]. Validation
    requires strictly increasing breakpoints, values inside the domain
    (self-map), and no constant piece: plateaus would make lap semantics
    ambiguous and no construction here produces them.
    """

    breakpoints: Tuple[Scalar, ...]
    values: Tuple[Scalar, ...]

    def __post_init__(self):
        bps = tuple(as_scalar(b) for b in self.breakpoints)
        vals = tuple(as_scalar(v) for v in self.values)
        if len(bps) < 2:
            raise ValueError("a map needs at least two breakpoints")
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError(f"breakpoints not strictly increasing at {a}, {b}")
        if min(vals) < bps[0] or max(vals) > bps[-1]:
            raise ValueError("values leave the domain; not a self-map")
        for j, (u, v) in enumerate(zip(vals, vals[1:])):
            if u == v:
                raise ValueError(f"constant piece at index {j} is not supported")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    # -- basic geometry ----------------------------------------------------

    @cached_property
    def slopes(self) -> Tuple[Scalar, ...]:
        bps, vals = self.breakpoints, self.values
        return tuple(
            (vals[j + 1] - vals[j]) / (bps[j + 1] - bps[j])
            for j in range(len(bps) - 1)
        )

    @cached_property
    def is_exact(self) -> bool:
        return all(is_exact(x) for x in self.breakpoints + self.values)

    @property
    def domain(self) -> Interval:
        return Interval(self.breakpoints[0], self.breakpoints[-1])

    @property
    def piece_count(self) -> int:
        return len(self.breakpoints) - 1

    def _clamp(self, x: Scalar) -> Scalar:
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        if lo <= x <= hi:
            return x
        # floating round-off may push iterated points a hair outside
        if isinstance(x, float) or not self.is_exact:
            if x > hi and x - hi <= FLOAT_EPS:
                return hi
            if x < lo and lo - x <= FLOAT_EPS:
                return lo
        raise ValueError(f"point {x!r} outside domain [{lo}, {hi}]")

    def eval(self, x: Scalar) -> Scalar:
        """Value at x; exact for rational inputs. Breakpoints return their
        stored value."""
        x = self._clamp(as_scalar(x))
        bps, vals = self.breakpoints, self.values
        j = bisect_right(bps, x) - 1
        if j >= len(bps) - 1:
            return vals[-1]
        if x == bps[j]:
            return vals[j]
        return vals[j] + (x - bps[j]) * self.slopes[j]

    def iterate(self, x: Scalar, n: int) -> Scalar:
        y = as_scalar(x)
        for _ in range(n):
            y = self.eval(y)
        return y

    def image(self, a: Interval) -> Interval:
        """Exact set-image of a closed subinterval: extrema over the endpoint
        values and the values at breakpoints interior to a."""
        lo = self._clamp(a.lo)
        hi = self._clamp(a.hi)
        vals = [self.eval(lo), self.eval(hi)]
        start = bisect_right(self.breakpoints, lo)
        end = bisect_left(self.breakpoints, hi)
        vals.extend(self.values[start:end])
        return Interval(min(vals), max(vals))

    # -- laps ----------------------------------------------------------------

    def lap_count(self) -> int:
        """Number of maximal monotonicity intervals; adjacent pieces with the
        same strict direction merge into one lap."""
        dirs = [s > 0 for s in self.slopes]
        return 1 + sum(1 for a, b in zip(dirs, dirs[1:]) if a != b)

    def is_constant_slope(self, target: Scalar, tol: Scalar = 0) -> SlopeReport:
        """Check that every piece has |slope| within tol of target."""
        target = as_scalar(target)
        devs = tuple(abs(abs(s) - target) for s in self.slopes)
        return SlopeReport(
            ok=all(d <= tol for d in devs),
            target=target,
            tol=tol,
            slopes=self.slopes,
            deviations=devs,
        )

    # -- branch engine ---------------------------------------------------------

    @cached_property
    def _engine(self) -> "_Engine":
        return _ExactEngine(self) if self.is_exact else _FloatEngine(self)

    def branches_of_iterate(self, q: int, branch_cap: int = DEFAULT_BRANCH_CAP):
        """Affine branches of f^q in domain order, as one iterate record of
        parallel lists; its len() is the branch count."""
        if q < 1:
            raise ValueError("q must be >= 1")
        return self._engine.advance(q, branch_cap)

    def lap_growth(
        self, n_max: int, branch_cap: int = DEFAULT_BRANCH_CAP
    ) -> List[int]:
        """Lap counts L(1..n_max) of the iterates f^n, by branch refinement.

        L(n) counts maximal monotone runs of the affine branches of f^n.
        Exceeding the branch cap raises BranchBudgetError naming the largest
        completed n (its .laps holds the completed prefix).
        """
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        engine = self._engine
        try:
            if n_max > len(engine.laps):
                engine.advance(n_max, branch_cap)
            else:
                engine.check_budget(n_max, branch_cap)
        except BranchBudgetError as err:
            done = err.completed_n
            raise BranchBudgetError(branch_cap, done, engine.laps[:done]) from None
        return engine.laps[:n_max]

    # -- periodic points ---------------------------------------------------------

    def periodic_points(
        self, q: int, branch_cap: int = DEFAULT_BRANCH_CAP
    ) -> List[Tuple[Scalar, int]]:
        """All fixed points of f^q with their least periods, sorted by point.

        Each branch of f^q contributes at most one fixed point. In rational
        mode it is the exact zero of f^q(x) - x where that changes sign between
        the branch ends, and its least period is the least divisor j of q with
        the point in Fix(f^j), recorded as the pass goes by f^j. In floating
        mode it is solved from the branch's slope and offset, duplicates within
        1e-12 are merged, and least periods come from the orbit. A branch on
        which f^q is the identity raises FixedPointContinuumError.
        """
        engine = self._engine
        engine.prepare(q, branch_cap)
        branches = self.branches_of_iterate(q, branch_cap)
        try:
            points = engine.fixed_points(branches)
        except _IdentityBranch as hit:
            lo, hi = hit.args
            itinerary = self._itinerary((lo + hi) / 2, q)
            raise FixedPointContinuumError(
                f"f^{q} is the identity on [{lo}, {hi}] (itinerary {itinerary})"
            ) from None
        if self.is_exact:
            return list(zip(points, engine.least_periods(points, q)))
        return [(x, self._least_period(x, q)) for x in points]

    def _itinerary(self, x: Scalar, q: int) -> Tuple[int, ...]:
        """Piece index of f at each of the first q points of x's orbit."""
        out = []
        for _ in range(q):
            out.append(_piece_index(self.breakpoints, x))
            x = self.eval(x)
        return tuple(out)

    def _least_period(self, x: Scalar, q: int) -> int:
        orbit = [x]
        for _ in range(q):
            orbit.append(self.eval(orbit[-1]))
        for j in _divisors(q):
            if abs(orbit[j] - x) <= PERIOD_TOL:
                return j
        raise RuntimeError(f"point {x!r} failed to close up after {q} steps")

    # -- conjugacy helpers -------------------------------------------------------

    def rescaled_to_unit(self) -> "PLMap":
        """Affine conjugate on [0, 1] (same type, same entropy)."""
        a = self.breakpoints[0]
        w = self.breakpoints[-1] - a
        return PLMap(
            tuple((b - a) / w for b in self.breakpoints),
            tuple((v - a) / w for v in self.values),
        )


class _IdentityBranch(Exception):
    """f^n is the identity on the branch [lo, hi] given as the arguments."""


class _ExactIterate:
    """The branches of f^n in rational mode, as parallel int lists.

    Branch k is [lo[k], hi[k]] / X and f^n maps its ends to flo[k] / Y and
    fhi[k] / Y, where X = D*L^(n-1) and Y = D*R^(n-1) (see _ExactEngine).
    """

    __slots__ = ("n", "lo", "hi", "flo", "fhi")

    def __init__(self, n: int, lo: List[int], hi: List[int], flo: List[int], fhi: List[int]):
        self.n, self.lo, self.hi, self.flo, self.fhi = n, lo, hi, flo, fhi

    def __len__(self) -> int:
        return len(self.lo)

    def laps(self) -> int:
        return _runs([u < w for u, w in zip(self.flo, self.fhi)])


class _FloatIterate:
    """The branches of f^n in floating mode: x -> slope[k]*x + offset[k] on
    [lo[k], hi[k]]."""

    __slots__ = ("n", "lo", "hi", "slope", "offset")

    def __init__(self, n: int, lo: list, hi: list, slope: list, offset: list):
        self.n, self.lo, self.hi, self.slope, self.offset = n, lo, hi, slope, offset

    def __len__(self) -> int:
        return len(self.lo)

    def laps(self) -> int:
        return _runs([s > 0 for s in self.slope])


class _Engine:
    """The pass over the iterates f^1, f^2, ... of one map.

    A one-slot cursor keeps the last iterate built: a request for f^q resumes
    from it, or restarts from f^1 when q is behind it. The branch and lap
    counts of every iterate built are kept, so the budget check sees all of
    f^1..f^q under any call order. Subclasses supply the arithmetic.
    """

    def __init__(self) -> None:
        self.counts: List[int] = []
        self.laps: List[int] = []
        self.last = None

    def check_budget(self, q: int, cap: int) -> None:
        for n, count in enumerate(self.counts[:q], 1):
            if count > cap:
                raise BranchBudgetError(cap, n - 1, [])

    def iterates(self, q: int, cap: int):
        """Yield f^n for n from the cursor (or 1) up to q. The first n <= q
        whose branch count exceeds cap raises BranchBudgetError."""
        self.check_budget(q, cap)
        it = self.last
        if it is None or it.n > q:
            it = self.first()
            if len(it) > cap:
                raise BranchBudgetError(cap, 0, [])
        while True:
            if it.n > len(self.counts):
                self.counts.append(len(it))
                self.laps.append(it.laps())
            self.last = it
            yield it
            if it.n == q:
                return
            try:
                it = self.refine(it, cap)
            except _BranchCapHit:
                raise BranchBudgetError(cap, it.n, []) from None

    def advance(self, q: int, cap: int):
        for it in self.iterates(q, cap):
            pass
        return it

    def prepare(self, q: int, cap: int) -> None:
        """Whatever periodic_points(q) needs besides f^q itself."""


class _ExactEngine(_Engine):
    """Rational mode in plain ints over common denominators.

    D is the lcm of the denominators of the breakpoints and values, and L and
    R are the lcms of the slopes' |numerators| and denominators. Every
    endpoint of a branch of f^n is a preimage of a breakpoint under at most
    n-1 steps of f, so it is a multiple of 1/X with X = D*L^(n-1); its f^n
    value is an image of a breakpoint under at most n-1 steps, so a multiple
    of 1/Y with Y = D*R^(n-1). Every cut is therefore an exact integer
    division, and refine checks that it is.
    """

    def __init__(self, f: "PLMap"):
        super().__init__()
        bps, vals, slopes = f.breakpoints, f.values, f.slopes
        self.D = D = math.lcm(*(x.denominator for x in bps + vals))
        self.B = [b.numerator * (D // b.denominator) for b in bps]
        self.V = [v.numerator * (D // v.denominator) for v in vals]
        self.L = math.lcm(*(abs(s.numerator) for s in slopes))
        self.R = R = math.lcm(*(s.denominator for s in slopes))
        # f(y) = v_j + s_j (y - b_j), with s_j = A[j] / R
        self.A = [s.numerator * (R // s.denominator) for s in slopes]
        self.fixed: Dict[int, set] = {}  # n -> Fix(f^n), as the pass records them

    def first(self) -> _ExactIterate:
        B, V = self.B, self.V
        return _ExactIterate(1, B[:-1], B[1:], V[:-1], V[1:])

    def refine(self, it: _ExactIterate, cap: int) -> _ExactIterate:
        """f^(n+1) from f^n: cut each branch where f^n crosses a breakpoint;
        the bisect position names the piece of f each fragment lands in."""
        L, R, A = self.L, self.R, self.A
        scale = R ** (it.n - 1)
        bs = [b * scale for b in self.B]  # breakpoints over Y_n
        vs = [v * scale * R for v in self.V]  # their values over Y_(n+1)
        lo: List[int] = []
        hi: List[int] = []
        flo: List[int] = []
        fhi: List[int] = []
        for P, Q, U, W in zip(it.lo, it.hi, it.flo, it.fhi):
            if U < W:
                first, last = bisect_right(bs, U), bisect_left(bs, W)
                j0, j1, cut_at = first - 1, last - 1, range(first, last)
            else:
                first, last = bisect_right(bs, W), bisect_left(bs, U)
                j0, j1, cut_at = last - 1, first - 1, range(last - 1, first - 1, -1)
            x0, x1 = P * L, Q * L
            xs = [x0]
            ys = [vs[j0] + A[j0] * (U - bs[j0])]
            for i in cut_at:
                step, rem = divmod((x1 - x0) * (bs[i] - U), W - U)
                if rem:
                    raise ArithmeticError(
                        f"cut of f^{it.n} at breakpoint {i} is not a multiple "
                        f"of 1/{self.D * L ** it.n}"
                    )
                xs.append(x0 + step)
                ys.append(vs[i])
            xs.append(x1)
            ys.append(vs[j1] + A[j1] * (W - bs[j1]))
            lo += xs[:-1]
            hi += xs[1:]
            flo += ys[:-1]
            fhi += ys[1:]
            if len(lo) > cap:
                raise _BranchCapHit()
        return _ExactIterate(it.n + 1, lo, hi, flo, fhi)

    def fixed_points(self, it: _ExactIterate) -> List[Fraction]:
        """Fix(f^n) in domain order: where f^n(x) - x changes sign on a branch."""
        sx, sy = self.L ** (it.n - 1), self.R ** (it.n - 1)
        X = self.D * sx
        out: List[Fraction] = []
        for P, Q, U, W in zip(it.lo, it.hi, it.flo, it.fhi):
            g0 = U * sx - P * sy  # (f^n(x) - x) * D*sx*sy at the branch ends
            g1 = W * sx - Q * sy
            if g0 == 0:
                if g1 == 0:
                    raise _IdentityBranch(Fraction(P, X), Fraction(Q, X))
                x = Fraction(P, X)
            elif g1 == 0:
                x = Fraction(Q, X)
            elif (g0 < 0) != (g1 < 0):
                x = Fraction(P * (g0 - g1) + (Q - P) * g0, X * (g0 - g1))
            else:
                continue
            if not out or x != out[-1]:  # a shared branch end comes twice
                out.append(x)
        return out

    def prepare(self, q: int, cap: int) -> None:
        """Record Fix(f^j) for the proper divisors j of q not passed yet, in
        ascending order so the pass goes on to f^q."""
        for j in _divisors(q)[:-1]:
            if j not in self.fixed:
                try:
                    self.fixed[j] = set(self.fixed_points(self.advance(j, cap)))
                except _IdentityBranch:
                    pass  # then f^q is the identity there too, and says so

    def least_periods(self, points: List[Fraction], q: int) -> List[int]:
        self.fixed[q] = set(points)
        proper = _divisors(q)[:-1]
        return [next((j for j in proper if x in self.fixed[j]), q) for x in points]


class _FloatEngine(_Engine):
    """Floating mode: each branch carries its slope and offset in binary64.

    Lap counts and sweep rows depend on every rounding here, so the cuts at
    (b - offset)/slope, the midpoint piece lookup and the collapse of empty
    fragments must keep their exact expressions (tests/test_engine.py pins
    the results)."""

    def __init__(self, f: "PLMap"):
        super().__init__()
        self.bps, self.vals, self.slopes = f.breakpoints, f.values, f.slopes

    def first(self) -> _FloatIterate:
        bps, vals, slopes = self.bps, self.vals, self.slopes
        offsets = [vals[j] - slopes[j] * bps[j] for j in range(len(slopes))]
        return _FloatIterate(1, list(bps[:-1]), list(bps[1:]), list(slopes), offsets)

    def refine(self, it: _FloatIterate, cap: int) -> _FloatIterate:
        """f^(n+1) from f^n: cut each branch at the preimages of breakpoints
        interior to its image, then compose with the piece of f each fragment's
        midpoint lands in."""
        bps, vals, slopes = self.bps, self.vals, self.slopes
        lo: list = []
        hi: list = []
        slope: list = []
        offset: list = []
        for a, b, s, o in zip(it.lo, it.hi, it.slope, it.offset):
            c, d = s * a + o, s * b + o
            if not c <= d:
                c, d = d, c
            idx = range(bisect_right(bps, c), bisect_left(bps, d))
            if s < 0:
                idx = reversed(idx)
            cuts = [a]
            cuts.extend((bps[i] - o) / s for i in idx)
            cuts.append(b)
            for u, v in zip(cuts, cuts[1:]):
                if not u < v:  # float collapse; nothing to keep
                    continue
                j = _piece_index(bps, s * ((u + v) / 2) + o)
                t = slopes[j]
                lo.append(u)
                hi.append(v)
                slope.append(t * s)
                offset.append(t * o + vals[j] - t * bps[j])
            if len(lo) > cap:
                raise _BranchCapHit()
        return _FloatIterate(it.n + 1, lo, hi, slope, offset)

    def fixed_points(self, it: _FloatIterate) -> List[float]:
        """Fix(f^n) sorted, each branch solved from its affine formula and
        duplicates within MERGE_TOL merged."""
        raw = []
        for a, b, s, o in zip(it.lo, it.hi, it.slope, it.offset):
            if s == 1:
                if o == 0:
                    raise _IdentityBranch(a, b)
                continue  # translation: no fixed point on this branch
            x = o / (1 - s)
            if a - MERGE_TOL <= x <= b + MERGE_TOL:
                raw.append(x)
        raw.sort()
        merged: list = []
        for x in raw:
            if merged and abs(x - merged[-1]) <= MERGE_TOL:
                continue
            merged.append(x)
        return merged


def _piece_index(bps, x: Scalar) -> int:
    j = bisect_right(bps, x) - 1
    return min(max(j, 0), len(bps) - 2)


def _runs(rising: List[bool]) -> int:
    """Maximal runs of equal direction in a sequence of branch directions."""
    return 1 + sum(map(ne, rising, rising[1:]))


def _divisors(q: int) -> List[int]:
    return [j for j in range(1, q + 1) if q % j == 0]
