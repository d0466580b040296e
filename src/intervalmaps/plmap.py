"""Continuous piecewise-linear self-maps of a compact interval.

Evaluation and interval images are exact over rationals. Periodic points of f^q
come from its affine branches: the intervals on which f^q is affine, found by
cutting each branch of f^(q-1) where it crosses a breakpoint of f. One pass per
map builds each iterate once and records, for every f^n it builds, the branch
count and Fix(f^n) (in floating mode also the lap count). A one-slot cursor
keeps the last iterate, so the pass goes on from it: periodic_points(q) and
floating lap_growth(n) build only the iterates past the record, and a request
behind it is a lookup. Only an explicit branches_of_iterate(q) behind the
cursor restarts from f^1.

Lap counts of iterates (hence the entropy estimate) need no branches in
rational mode. L(f^n) is 1 + the number of points whose orbit meets a turning
point of f within n steps, and the branch count of f^n is the same count for
all interior breakpoints. Both are sums over a finite graph of open intervals
whose ends are forward images of breakpoints, so they cost polynomial time in
n (the kneading-style count of Block, Keesling, Li and Peterson, 1989). The
branch cap bounds that computed branch count, as it bounds the branches the
pass builds. Floating mode counts laps in the branch pass, whose rounding its
results depend on.

In rational mode a branch is four plain ints, numerators over two common
denominators: its ends over D*L^(n-1) and their f^n values over D*R^(n-1),
where D is the lcm of the denominators of the breakpoints and values and L, R
are the lcms of the slopes' numerators and denominators. A branch whose image
holds no breakpoint (about three quarters of them) passes to f^(n+1) as one
fragment, without a cut. Fixed points are the sign changes of f^q(x) - x
between branch ends, kept as reduced (num, den) int pairs: least periods are
looked up in the recorded Fix(f^j) of the proper divisors j of q, and a
Fraction is built only for the returned list. Exact interval images use the
same lattice: a rational end's piece is a bisection over the int breakpoint
numerators, and its value one Fraction. Floating mode carries each branch's
slope and offset in binary64 and reads least periods as return times within
FLOAT_TOL. No itinerary is stored; an error that names one recomputes it from
a point's orbit.

Maps are immutable and results are sorted and deterministic; the cursor and
the record are caches that never change what a call returns.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import ne
from typing import Dict, List, Optional, Tuple

from .kernel import FLOAT_TOL, Scalar, _tolerance, as_scalar, is_exact

# Duplicate float fixed points at shared branch ends; the float engine's
# results depend on this value bit for bit.
MERGE_TOL = 1e-12

DEFAULT_BRANCH_CAP = 10_000_000

__all__ = [
    "BranchBudgetError",
    "DEFAULT_BRANCH_CAP",
    "FixedPointContinuumError",
    "Interval",
    "OrbitNotClosedError",
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


class OrbitNotClosedError(RuntimeError):
    """A floating-mode fixed point of f^q does not return within FLOAT_TOL in
    q steps. A wider tolerance would merge distinct periodic points."""


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
    def mid(self) -> Scalar:
        return (self.lo + self.hi) / 2

    def contains(self, x: Scalar) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval", slack=0) -> bool:
        """self covers other (up to slack on each side)."""
        return self.lo <= other.lo + slack and self.hi >= other.hi - slack

    def meets_interior(self, other: "Interval", margin=0) -> bool:
        """self intersects the open interior of other (margin shrinks it)."""
        return self.hi > other.lo + margin and self.lo < other.hi - margin


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
    def tol(self) -> Scalar:
        """0 (exact equality) in rational mode, FLOAT_TOL in floating mode."""
        return _tolerance(self.is_exact)

    @property
    def domain(self) -> Interval:
        return Interval(self.breakpoints[0], self.breakpoints[-1])

    def _clamp(self, x: Scalar) -> Scalar:
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        if lo <= x <= hi:
            return x
        # floating round-off may push iterated points a hair outside
        if isinstance(x, float) or not self.is_exact:
            if x > hi and x - hi <= FLOAT_TOL:
                return hi
            if x < lo and lo - x <= FLOAT_TOL:
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
        values and the values at breakpoints interior to a.

        On an exact map, rational ends inside the domain are placed on the
        engine's integer lattice: x = num/den lies at num*D/den over 1/D, so
        its piece is a bisection over the ints B and its value one Fraction.
        """
        if self.is_exact and type(a.lo) is Fraction and type(a.hi) is Fraction:
            e = self._engine
            D, B, V, A, R = e.D, e.B, e.V, e.A, e.R
            ends = []
            for x in (a.lo, a.hi):
                den = x.denominator
                at = x.numerator * D
                if not B[0] * den <= at <= B[-1] * den:
                    break  # outside the domain: _clamp below raises
                k = bisect_right(B, at // den) - 1
                off = at - B[k] * den  # 0 on the breakpoint B[k]
                y = Fraction(V[k] * R * den + A[k] * off, D * R * den) if off else self.values[k]
                ends.append((k, off, y))
            else:
                (k0, _, y0), (k1, off, y1) = ends
                vals = [y0, y1, *self.values[k0 + 1 : k1 + 1 if off else k1]]
                return Interval(min(vals), max(vals))
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
        """Lap counts L(1..n_max) of the iterates f^n.

        L(n) counts the maximal monotone runs of f^n. In rational mode it is
        1 + the number of points whose orbit meets a turning point of f within
        n steps, and the branch count of f^n is the same count for all interior
        breakpoints; both come from the interval graph of _hits, without
        building any branch. Floating mode reads the laps the branch pass
        records, going on with branches_of_iterate past the last iterate
        recorded. The first n whose branch count exceeds the cap raises
        BranchBudgetError naming n - 1 as the largest completed iterate (its
        .laps holds the completed prefix).
        """
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not self.is_exact:
            engine = self._engine
            try:
                if n_max > len(engine.laps):
                    self.branches_of_iterate(n_max, branch_cap)
                else:
                    engine.check_budget(n_max, branch_cap)
            except BranchBudgetError as err:
                done = err.completed_n
                raise BranchBudgetError(branch_cap, done, engine.laps[:done]) from None
            return engine.laps[:n_max]
        inner = self.breakpoints[1:-1]
        rising = [s > 0 for s in self.slopes]
        turning = tuple(b for b, u, w in zip(inner, rising, rising[1:]) if u != w)
        counts = self._hits(inner, n_max)
        laps = counts if turning == inner else self._hits(turning, n_max)
        for n, count in enumerate(counts, 1):
            if count > branch_cap:
                raise BranchBudgetError(branch_cap, n - 1, laps[: n - 1])
        return laps

    def _hits(self, cuts: Tuple[Scalar, ...], n_max: int) -> List[int]:
        """1 + the number of points of the open domain whose orbit meets cuts
        within n steps, for n = 1..n_max.

        cuts is a sorted tuple of interior points holding every turning point,
        so f maps each open piece between consecutive cuts one-to-one onto an
        open interval. The nodes of the graph are open intervals, the root
        being the open domain; a node's children are the images of its pieces
        between the cuts inside it, and equal intervals share one node. With
        C_0 = 0 and C_k(x) = |cuts in x| + sum of C_(k-1) over x's children,
        C_k(x) counts the points of x whose orbit meets cuts within k steps.
        Every node end is an image of a cut or a domain end under at most
        n_max - 1 steps, so there are at most ((len(cuts) + 2) * n_max)^2
        nodes; the scalar work is done once per node, and the sums are ints.
        """
        image = {c: self.eval(c) for c in cuts}
        root = (self.breakpoints[0], self.breakpoints[-1])
        nodes = [root]
        index = {root: 0}
        direct: List[int] = []
        kids: List[List[int]] = []
        found = []  # found[d]: the number of nodes at depth <= d
        for depth in range(n_max):
            start = found[-1] if found else 0
            found.append(len(nodes))
            for u, v in nodes[start:]:
                i, j = bisect_right(cuts, u), bisect_left(cuts, v)
                direct.append(j - i)
                if depth == n_max - 1:
                    continue  # C_1 needs no children
                for end in (u, v):
                    if end not in image:
                        image[end] = self.eval(end)
                ys = [image[u], *(image[c] for c in cuts[i:j]), image[v]]
                children = []
                for a, b in zip(ys, ys[1:]):
                    key = (a, b) if a < b else (b, a)
                    k = index.get(key)
                    if k is None:
                        k = index[key] = len(nodes)
                        nodes.append(key)
                    children.append(k)
                kids.append(children)
        totals = direct
        out = [1 + totals[0]]
        for k in range(2, n_max + 1):
            # C_k is needed on the nodes found by depth n_max - k
            totals = [
                direct[x] + sum(totals[c] for c in kids[x])
                for x in range(found[n_max - k])
            ]
            out.append(1 + totals[0])
        return out

    # -- periodic points ---------------------------------------------------------

    def periodic_points(
        self, q: int, branch_cap: int = DEFAULT_BRANCH_CAP
    ) -> List[Tuple[Scalar, int]]:
        """All fixed points of f^q with their least periods, sorted by point.

        Each branch of f^q contributes at most one fixed point, and the pass
        records Fix(f^n) for every iterate it builds: a q past the record goes
        on with branches_of_iterate, and a q already passed only checks the
        cap against the recorded branch counts. In rational mode a fixed point
        is the exact zero of f^q(x) - x where that changes sign between the
        branch ends, and its least period is the least divisor j of q with the
        point in the recorded Fix(f^j). In floating mode it is solved from the
        branch's slope and offset, duplicates within 1e-12 are merged, and
        least periods are return times; a point that does not return raises
        OrbitNotClosedError. A branch on which f^q is the identity raises
        FixedPointContinuumError.
        """
        engine = self._engine
        if not 1 <= q <= len(engine.counts):
            self.branches_of_iterate(q, branch_cap)  # raises ValueError for q < 1
        else:
            engine.check_budget(q, branch_cap)
        points = engine.fixed[q - 1]
        if isinstance(points, _IdentityBranch):
            lo, hi = points.args
            itinerary = self._itinerary((lo + hi) / 2, q)
            raise FixedPointContinuumError(
                f"f^{q} is the identity on [{lo}, {hi}] (itinerary {itinerary})"
            )
        if self.is_exact:
            periods = engine.least_periods(points, q)
            return [(Fraction(*x), j) for x, j in zip(points, periods)]
        out = []
        for x in points:
            j = self.return_time(x, q)
            if j is None:
                raise OrbitNotClosedError(f"point {x!r} failed to close up after {q} steps")
            out.append((x, j))
        return out

    def _itinerary(self, x: Scalar, q: int) -> Tuple[int, ...]:
        """Piece index of f at each of the first q points of x's orbit."""
        out = []
        for _ in range(q):
            out.append(_piece_index(self.breakpoints, x))
            x = self.eval(x)
        return tuple(out)

    def return_time(self, x: Scalar, n: int) -> Optional[int]:
        """The least j <= n with f^j(x) = x (within the map's tol), or None.

        Each step is eval inlined with the same expressions, clamping only a
        point outside the domain."""
        x = as_scalar(x)
        tol = self.tol
        bps, vals, slopes = self.breakpoints, self.values, self.slopes
        lo, hi, last = bps[0], bps[-1], len(bps) - 1
        y = x
        for j in range(1, n + 1):
            if not lo <= y <= hi:
                y = self._clamp(y)
            k = bisect_right(bps, y) - 1
            if k >= last:
                y = vals[-1]
            elif y == bps[k]:
                y = vals[k]
            else:
                y = vals[k] + (y - bps[k]) * slopes[k]
            if abs(y - x) <= tol:
                return j
        return None

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


class _FloatIterate:
    """The branches of f^n in floating mode: x -> slope[k]*x + offset[k] on
    [lo[k], hi[k]]."""

    __slots__ = ("n", "lo", "hi", "slope", "offset")

    def __init__(self, n: int, lo: list, hi: list, slope: list, offset: list):
        self.n, self.lo, self.hi, self.slope, self.offset = n, lo, hi, slope, offset

    def __len__(self) -> int:
        return len(self.lo)


class _Engine:
    """The pass over the iterates f^1, f^2, ... of one map.

    A one-slot cursor keeps the last iterate built: a request for f^q resumes
    from it, or restarts from f^1 when q is behind it. The branch count and
    Fix(f^n) of every iterate built are recorded, so the budget check sees all
    of f^1..f^q under any call order and fixed points are solved once per
    iterate. Subclasses supply the arithmetic.
    """

    def __init__(self) -> None:
        self.counts: List[int] = []
        # fixed[n - 1]: Fix(f^n) as fixed_points returns it, or the
        # _IdentityBranch it raised, which periodic_points(n) reports
        self.fixed: list = []
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
                self.record(it)
            self.last = it
            yield it
            if it.n == q:
                return
            try:
                it = self.refine(it, cap)
            except _BranchCapHit:
                raise BranchBudgetError(cap, it.n, []) from None

    def record(self, it) -> None:
        """Keep the branch count and fixed points of an iterate built for the
        first time."""
        self.counts.append(len(it))
        try:
            self.fixed.append(self.fixed_points(it))
        except _IdentityBranch as hit:
            # without its traceback, whose frames would keep the iterate alive
            self.fixed.append(hit.with_traceback(None))

    def advance(self, q: int, cap: int):
        for it in self.iterates(q, cap):
            pass
        return it


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
        self.fixed_sets: Dict[int, set] = {}  # n -> set(fixed[n - 1]), built once

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
            else:
                first, last = bisect_right(bs, W), bisect_left(bs, U)
            if first == last:  # no breakpoint inside the image: one fragment
                j = first - 1
                lo.append(P * L)
                hi.append(Q * L)
                flo.append(vs[j] + A[j] * (U - bs[j]))
                fhi.append(vs[j] + A[j] * (W - bs[j]))
            else:
                if U < W:
                    j0, j1, cut_at = first - 1, last - 1, range(first, last)
                else:
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

    def fixed_points(self, it: _ExactIterate) -> List[Tuple[int, int]]:
        """Fix(f^n) in domain order: where f^n(x) - x changes sign on a branch.
        Each point is a reduced pair (num, den) with den > 0, so equal points
        are equal pairs."""
        sx, sy = self.L ** (it.n - 1), self.R ** (it.n - 1)
        X = self.D * sx
        out: List[Tuple[int, int]] = []
        for P, Q, U, W in zip(it.lo, it.hi, it.flo, it.fhi):
            g0 = U * sx - P * sy  # (f^n(x) - x) * D*sx*sy at the branch ends
            g1 = W * sx - Q * sy
            if g0 == 0:
                if g1 == 0:
                    raise _IdentityBranch(Fraction(P, X), Fraction(Q, X))
                num, den = P, X
            elif g1 == 0:
                num, den = Q, X
            elif (g0 < 0) != (g1 < 0):
                num, den = P * (g0 - g1) + (Q - P) * g0, X * (g0 - g1)
                if den < 0:
                    num, den = -num, -den
            else:
                continue
            g = math.gcd(num, den)
            x = (num // g, den // g)
            if not out or x != out[-1]:  # a shared branch end comes twice
                out.append(x)
        return out

    def least_periods(self, points: List[Tuple[int, int]], q: int) -> List[int]:
        """Each point's least divisor j of q with the point in Fix(f^j). The
        pass has recorded every f^j with j <= q; none raised _IdentityBranch,
        since f^q is then the identity there too."""
        proper = [(j, self._fixed_set(j)) for j in _divisors(q)[:-1]]
        return [next((j for j, fix in proper if x in fix), q) for x in points]

    def _fixed_set(self, j: int) -> set:
        fix = self.fixed_sets.get(j)
        if fix is None:
            fix = self.fixed_sets[j] = set(self.fixed[j - 1])
        return fix


class _FloatEngine(_Engine):
    """Floating mode: each branch carries its slope and offset in binary64.

    Lap counts and sweep rows depend on every rounding here, so the cuts at
    (b - offset)/slope, the midpoint piece lookup and the collapse of empty
    fragments must keep their exact expressions (tests/test_engine.py pins
    the results)."""

    def __init__(self, f: "PLMap"):
        super().__init__()
        self.bps, self.vals, self.slopes = f.breakpoints, f.values, f.slopes
        self.laps: List[int] = []

    def record(self, it: _FloatIterate) -> None:
        super().record(it)
        self.laps.append(_runs([s > 0 for s in it.slope]))

    def first(self) -> _FloatIterate:
        bps, vals, slopes = self.bps, self.vals, self.slopes
        offsets = [vals[j] - slopes[j] * bps[j] for j in range(len(slopes))]
        return _FloatIterate(1, list(bps[:-1]), list(bps[1:]), list(slopes), offsets)

    def refine(self, it: _FloatIterate, cap: int) -> _FloatIterate:
        """f^(n+1) from f^n: cut each branch at the preimages of breakpoints
        interior to its image, then compose with the piece of f each fragment's
        midpoint lands in."""
        bps, vals, slopes = self.bps, self.vals, self.slopes
        top = len(bps) - 2  # the last piece index
        lo: list = []
        hi: list = []
        slope: list = []
        offset: list = []
        for a, b, s, o in zip(it.lo, it.hi, it.slope, it.offset):
            c, d = s * a + o, s * b + o
            if not c <= d:
                c, d = d, c
            first, last = bisect_right(bps, c), bisect_left(bps, d)
            if first >= last:
                cuts = (a, b)
            else:
                idx = range(first, last)
                if s < 0:
                    idx = reversed(idx)
                cuts = [a]
                cuts.extend((bps[i] - o) / s for i in idx)
                cuts.append(b)
            u = cuts[0]
            for v in cuts[1:]:
                if not u < v:  # float collapse; nothing to keep
                    u = v
                    continue
                # _piece_index of the image of the midpoint, inlined
                j = bisect_right(bps, s * ((u + v) / 2) + o) - 1
                if j < 0:
                    j = 0
                elif j > top:
                    j = top
                t = slopes[j]
                lo.append(u)
                hi.append(v)
                slope.append(t * s)
                offset.append(t * o + vals[j] - t * bps[j])
                u = v
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
