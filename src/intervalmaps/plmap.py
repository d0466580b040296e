"""Continuous piecewise-linear self-maps of a compact interval.

A map whose breakpoints and values are all rational is exact. Its
constructor puts them on an integer lattice (D, B, V), ints over D, the lcm
of their denominators, and the map is validated, sloped, evaluated and
iterated there: Fractions are made only where a result is returned, by
kernel._fraction(s) from reduced int pairs, with no Fraction.__new__ and no
Fraction arithmetic. A map with a float scalar is floating and keeps binary64
arithmetic throughout.

Periodic points of f^q come from its affine branches: the intervals on which
f^q is affine. One forward pass per map builds f^1, f^2, ... once each and
records, for every f^n, the branch count and Fix(f^n) (floating: also the
lap count). A q past the record refines on; a q already passed checks the
branch cap against the recorded counts. Under any call order, the first f^n
over the cap raises BranchBudgetError(cap, n - 1).

Exact lap counts need no branches. L(f^n) is 1 + the number of points whose
orbit meets a turning point of f within n steps, and the branch count of f^n
is the same count for all interior breakpoints. Both are sums over a finite
graph of open intervals whose ends are forward images of breakpoints, so
they cost polynomial time in n (the kneading-style count of Block, Keesling,
Li and Peterson, 1989); the branch cap bounds that computed count.

An exact iterate is one sequence of ints: f^n's N branches share N + 1 ends,
kept as numerators over D*L^(n-1) beside their f^n values over D*R^(n-1),
where L and R are the lcms of the slopes' numerators and denominators.
f^(n+1) = f^n o f is built by pullback, and Fix(f^n) is one sign-change scan
of f^n(x) - x over the ends, kept as reduced int pairs; least periods come
from the recorded Fix(f^j) of the proper divisors j of q. A point off that
scale (eval, return times, mixing traces, images) is a reduced int pair,
stepped by _ExactEngine.point. Every division on the lattice is exact, and a
remainder raises ArithmeticError.

Floating mode carries each branch's slope and offset in binary64, cuts it
where its image crosses a breakpoint, and records Fix(f^n) as an array('d');
least periods are return times within FLOAT_TOL, walked by _returns over a
table of (breakpoint, value, slope) per piece, _pieces.

Maps are immutable and results are sorted and deterministic; the record is a
cache that never changes what a call returns.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from operator import ne
from typing import Dict, List, NamedTuple, Optional, Tuple

from .kernel import (
    FLOAT_TOL, Scalar, _fraction, _fractions, _ratio, _tolerance, as_scalar, is_exact
)

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
    """Some f^n has more branches than the cap; f^completed_n, the iterate
    before it, is the largest within the cap."""

    def __init__(self, cap: int, completed_n: int):
        super().__init__(
            f"branch budget {cap} exceeded; largest completed iterate n={completed_n}"
        )
        self.cap = cap
        self.completed_n = completed_n


def _check_budget(counts: List[int], cap: int) -> None:
    """counts[n - 1] is the branch count of f^n; the first over cap raises."""
    for n, count in enumerate(counts, 1):
        if count > cap:
            raise BranchBudgetError(cap, n - 1)


class FixedPointContinuumError(RuntimeError):
    """An iterate restricts to the identity on a whole subinterval, so its
    fixed points are not isolated."""


class OrbitNotClosedError(RuntimeError):
    """A floating-mode fixed point of f^q does not return within FLOAT_TOL in
    q steps. A wider tolerance would merge distinct periodic points."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; degenerate (lo == hi) is allowed."""

    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        lo, hi = as_scalar(self.lo), as_scalar(self.hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        if lo is not self.lo:  # an int end, made a Fraction
            object.__setattr__(self, "lo", lo)
        if hi is not self.hi:
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
        """self covers other, up to slack on each side; a slack of 0 (an exact
        map's tol) compares the ends directly."""
        if not slack:
            return self.lo <= other.lo and self.hi >= other.hi
        return self.lo <= other.lo + slack and self.hi >= other.hi - slack

    def meets_interior(self, other: "Interval", margin=0) -> bool:
        """self meets the open interior of other, shrunk by margin; a margin of
        0 (an exact map's tol) compares the ends directly."""
        if not margin:
            return self.hi > other.lo and self.lo < other.hi
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
        bps = tuple(map(as_scalar, self.breakpoints))
        vals = tuple(map(as_scalar, self.values))
        if len(bps) < 2:
            raise ValueError("a map needs at least two breakpoints")
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        # all rational: the lattice (D, B, V), breakpoints and values as ints
        # over D, the lcm of their denominators, compared in their place
        lattice, xs, ys = None, bps, vals
        if all(map(is_exact, bps + vals)):
            D = math.lcm(*(x.denominator for x in bps + vals))
            xs = tuple(b.numerator * (D // b.denominator) for b in bps)
            ys = tuple(v.numerator * (D // v.denominator) for v in vals)
            lattice = (D, xs, ys)
        for j, (a, b) in enumerate(zip(xs, xs[1:])):
            if not a < b:
                raise ValueError(f"breakpoints not strictly increasing at {bps[j]}, {bps[j + 1]}")
        if min(ys) < xs[0] or max(ys) > xs[-1]:
            raise ValueError("values leave the domain; not a self-map")
        for j, (u, v) in enumerate(zip(ys, ys[1:])):
            if u == v:
                raise ValueError(f"constant piece at index {j} is not supported")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_lattice", lattice)

    # -- basic geometry ----------------------------------------------------

    @cached_property
    def slopes(self) -> Tuple[Scalar, ...]:
        """Each piece's slope; on an exact map the lattice differences
        (V[j+1] - V[j]) / (B[j+1] - B[j]), reduced by one gcd each."""
        if self._lattice is None:
            bps, vals = self.breakpoints, self.values
            return tuple(
                (vals[j + 1] - vals[j]) / (bps[j + 1] - bps[j])
                for j in range(len(bps) - 1)
            )
        _, B, V = self._lattice
        return tuple(_ratio(v1 - v0, b1 - b0) for b0, b1, v0, v1 in zip(B, B[1:], V, V[1:]))

    @property
    def is_exact(self) -> bool:
        return self._lattice is not None

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
        """Value at x; exact for rational inputs, which an exact map steps on
        the lattice as a reduced int pair (_ExactEngine.point). Otherwise
        breakpoints and the right end return their stored value, read from
        the same _pieces entry as the interior points of their piece."""
        x = self._clamp(as_scalar(x))
        if type(x) is Fraction and self._lattice is not None:
            return _fraction(*self._engine.point(x.numerator, x.denominator))
        b, v, s = self._pieces[bisect_right(self.breakpoints, x) - 1]
        return v if x == b else v + (x - b) * s

    def image(self, a: Interval) -> Interval:
        """Exact set-image of a closed subinterval: extrema over the endpoint
        values and the values at breakpoints interior to a (exact where eval is)."""
        lo = self._clamp(a.lo)
        hi = self._clamp(a.hi)
        vals = [self.eval(lo), self.eval(hi)]
        start = bisect_right(self.breakpoints, lo)
        end = bisect_left(self.breakpoints, hi)
        vals.extend(self.values[start:end])
        return Interval(min(vals), max(vals))

    # -- laps ----------------------------------------------------------------

    def is_constant_slope(self, target: Scalar) -> SlopeReport:
        """Check that every piece has |slope| within the map's tol of target."""
        target = as_scalar(target)
        tol = self.tol
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
        parallel lists; its len() is the branch count. The pass only goes
        forward, so a q behind its last iterate raises ValueError."""
        if q < 1:
            raise ValueError("q must be >= 1")
        return self._engine.advance(q, branch_cap)

    def _recorded(self, n: int, branch_cap: int) -> "_Engine":
        """The engine, with f^1..f^n recorded within branch_cap: an n past the
        record goes on with branches_of_iterate, and one already passed only
        checks the cap against the recorded branch counts."""
        engine = self._engine
        if not 1 <= n <= len(engine.counts):
            self.branches_of_iterate(n, branch_cap)  # raises ValueError for n < 1
        else:
            _check_budget(engine.counts[:n], branch_cap)
        return engine

    def lap_growth(
        self, n_max: int, branch_cap: int = DEFAULT_BRANCH_CAP
    ) -> List[int]:
        """Lap counts L(1..n_max) of the iterates f^n, the maximal monotone
        runs of f^n. An exact map counts them and the branch counts with
        _hits, cut at the turning points (where the engine's A changes sign)
        and at every interior breakpoint; a floating one reads the branch
        pass. The first n whose branch count exceeds the cap raises
        BranchBudgetError naming n - 1 as the largest completed iterate. An
        exact map checks its branch counts to depth min(n_max, 64), then to
        twice that depth while they pass and n_max lies deeper, so the work
        stops within about twice the first depth over the cap; the laps are
        counted once, at n_max."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not self.is_exact:
            return self._recorded(n_max, branch_cap).laps[:n_max]
        inner, A = self.breakpoints[1:-1], self._engine.A
        turning = tuple(b for b, u, w in zip(inner, A, A[1:]) if (u > 0) != (w > 0))
        m = 0
        while m < n_max:
            m = min(max(2 * m, 64), n_max)
            counts = self._hits(inner, m)
            _check_budget(counts, branch_cap)
        return counts if len(turning) == len(inner) else self._hits(turning, n_max)

    def _hits(self, cuts: Tuple[Scalar, ...], n_max: int) -> List[int]:
        """1 + the number of points of the open domain whose orbit meets cuts
        within n steps, for n = 1..n_max.

        cuts is a sorted tuple of interior breakpoints holding every turning
        point. The nodes of the graph are open intervals, the root being the
        open domain; a node's children are the images of its pieces between
        the cuts inside it, equal intervals sharing one node. With C_0 = 0 and
        C_k(x) = |cuts in x| + sum of C_(k-1) over x's children, C_k(x) counts
        the points of x whose orbit meets cuts within k steps. Node ends are
        images of cuts or domain ends under at most M = n_max - 1 steps, so
        ints over the one scale S = D*R^M, each stepped by f directly (a memo
        of images measured no faster); a division with a remainder raises
        ArithmeticError."""
        e = self._engine
        A, R = e.A, e.R
        scale = R ** (n_max - 1)
        S = e.D * scale
        bs = [b * scale for b in e.B]
        vs = [v * scale for v in e.V]
        head = bs[:-1]  # so that the domain's right end lies in the last piece
        # cuts are breakpoints, so their denominators divide D
        cuts = [c.numerator * (S // c.denominator) for c in cuts]

        def f(x: int) -> int:
            k = bisect_right(head, x) - 1
            step, rem = divmod(A[k] * (x - bs[k]), R)
            if rem:
                raise ArithmeticError(f"f({x}/{S}) is not a multiple of 1/{S}")
            return vs[k] + step

        cut_images = [f(c) for c in cuts]
        root = (bs[0], bs[-1])
        nodes = [root]
        index = {root: 0}
        direct: List[int] = []
        kids: List[List[int]] = []
        found = []  # found[d]: the number of nodes at depth <= d
        for depth in range(n_max):
            start = found[-1] if found else 0
            found.append(len(nodes))
            last = depth == n_max - 1  # C_1 needs no children
            for u, v in nodes[start:]:
                i, j = bisect_right(cuts, u), bisect_left(cuts, v)
                direct.append(j - i)
                if last:
                    continue
                ys = [f(u), *cut_images[i:j], f(v)]
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
            total = totals.__getitem__
            totals = [
                d + sum(map(total, ks))
                for d, ks in zip(direct[: found[n_max - k]], kids)
            ]
            out.append(1 + totals[0])
        return out

    # -- periodic points ---------------------------------------------------------

    def periodic_points(
        self, q: int, branch_cap: int = DEFAULT_BRANCH_CAP
    ) -> List[Tuple[Scalar, int]]:
        """All fixed points of f^q with their least periods, sorted by point,
        from the Fix(f^n) the pass records (at most one per branch of f^n).

        An exact point's least period is the least divisor j of q with its
        int pair in the recorded Fix(f^j), and the pairs become Fractions in
        one pass. A floating point's is its return time, and a point that
        does not return raises OrbitNotClosedError. A branch on which f^q is
        the identity raises FixedPointContinuumError."""
        engine = self._recorded(q, branch_cap)
        points = engine.fixed[q - 1]
        if isinstance(points, _IdentityBranch):
            lo, hi = points
            itinerary = self._itinerary((lo + hi) / 2, q)
            raise FixedPointContinuumError(
                f"f^{q} is the identity on [{lo}, {hi}] (itinerary {itinerary})"
            )
        if self.is_exact:
            least = engine.least_periods(q).get
            return list(zip(_fractions(points), map(least, points, repeat(q))))
        out = self._returns(points, q)
        if len(out) < len(points):
            x = points[len(out)]
            raise OrbitNotClosedError(f"point {x!r} failed to close up after {q} steps")
        return out

    def _itinerary(self, x: Scalar, q: int) -> Tuple[int, ...]:
        """Piece index of f at each of the first q points of x's orbit, by
        bisection over the interior breakpoints as in _FloatEngine.refine."""
        inner = self.breakpoints[1:-1]
        out = []
        for _ in range(q):
            out.append(bisect_right(inner, x))
            x = self.eval(x)
        return tuple(out)

    def return_times(self, xs, n: int) -> List[Optional[int]]:
        """The least j <= n with f^j(x) = x (within the map's tol), or None,
        for each x of xs, in order. Rational points of an exact map are int
        pairs, and one walk (_walk) settles every point it passes, so each
        orbit point is walked once. Any other point takes the walk of
        _returns, as closure within a float tol does not pass along an
        orbit. An n below 0 raises ValueError in both modes."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        xs = list(map(as_scalar, xs))
        exact = self._lattice is not None
        settled: Dict[Tuple[int, int], Optional[int]] = {}
        out: List[Optional[int]] = []
        for x in xs:
            if type(x) is not Fraction or not exact:
                found = self._returns((x,), n)
                out.append(found[0][1] if found else None)
                continue
            x = self._clamp(x)  # a point outside the domain raises
            start = (x.numerator, x.denominator)
            if start not in settled:
                settled.update(self._walk(start, n, settled))
            out.append(settled[start])
        return out

    def _walk(self, start: Tuple[int, int], n: int, settled: dict) -> Dict[tuple, Optional[int]]:
        """The return times within n (or None) that the orbit of the pair
        start settles, by pair, walking at most 2n steps. Points before one
        in settled are None: its cycle was walked whole, or it has no return
        within n. The first repeat y_W = y_c closes a cycle of length P = W - c:
        its points return at P (None past n), and the points before it never
        return. With neither, no point met by step n returns within n."""
        point = self._engine.point
        index = {start: 0}
        y = start
        for step in range(1, 2 * n + 1):
            y = point(*y)
            if y in settled:
                return dict.fromkeys(index)
            c = index.get(y)
            if c is not None:
                P = step - c
                return {z: P if k >= c and P <= n else None for z, k in index.items()}
            index[y] = step
        return {z: None for z, k in index.items() if k <= n}

    @cached_property
    def _pieces(self) -> List[Tuple[Scalar, Scalar, Optional[Scalar]]]:
        """(b_k, v_k, s_k) per piece k, then (right end, its value, None): the
        entry at bisect_right(breakpoints, y) - 1 for every y in the domain."""
        bps, vals = self.breakpoints, self.values
        return [*zip(bps, vals, self.slopes), (bps[-1], vals[-1], None)]

    def _returns(self, xs, n: int) -> List[Tuple[Scalar, int]]:
        """(x, its return time within n) for the points of xs in order, up to
        the first that does not return within n steps. Each step is eval's
        _pieces step inlined, clamping only a point outside the domain."""
        tol = self.tol
        bps, pieces, clamp = self.breakpoints, self._pieces, self._clamp
        lo, hi = bps[0], bps[-1]
        steps = range(1, n + 1)
        out: List[Tuple[Scalar, int]] = []
        for x in xs:
            y = x
            for j in steps:
                if not lo <= y <= hi:
                    y = clamp(y)
                b, v, s = pieces[bisect_right(bps, y) - 1]
                y = v if y == b else v + (y - b) * s
                if abs(y - x) <= tol:
                    out.append((x, j))
                    break
            else:
                break
        return out


class _IdentityBranch(NamedTuple):
    """f^n is the identity on the branch [lo, hi]; fixed_points returns it in
    place of the fixed points, which are not isolated."""

    lo: Scalar
    hi: Scalar


class _ExactIterate:
    """The N branches of f^n in exact mode, as N + 1 shared ends: branch k
    is [xs[k], xs[k+1]] / X, and f^n maps xs[k] / X to ys[k] / Y, where
    X = D*L^(n-1) and Y = D*R^(n-1) (see _ExactEngine)."""

    __slots__ = ("n", "xs", "ys")

    def __init__(self, n: int, xs: List[int], ys: List[int]):
        self.n, self.xs, self.ys = n, xs, ys

    def __len__(self) -> int:
        return len(self.xs) - 1


class _FloatIterate:
    """The branches of f^n in floating mode: x -> slope[k]*x + offset[k] on
    [lo[k], hi[k]]."""

    __slots__ = ("n", "lo", "hi", "slope", "offset")

    def __init__(self, n: int, lo: list, hi: list, slope: list, offset: list):
        self.n, self.lo, self.hi, self.slope, self.offset = n, lo, hi, slope, offset

    def __len__(self) -> int:
        return len(self.lo)


class _Engine:
    """The forward pass over the iterates f^1, f^2, ... of one map: it
    records the branch count and Fix(f^n) of each, in order, and keeps the
    last, f^len(counts), to refine the next from. Subclasses supply the
    arithmetic."""

    def __init__(self) -> None:
        self.counts: List[int] = []
        # fixed[n - 1]: Fix(f^n) as fixed_points returns it, either the points
        # or the _IdentityBranch that periodic_points(n) reports
        self.fixed: list = []
        self.last = None  # f^len(counts); record sets it

    def advance(self, q: int, cap: int):
        """f^q for a q not behind the pass, refined forward from the last
        recorded iterate (f^1 is recorded on the first call). The first
        n <= q whose branch count exceeds cap raises BranchBudgetError."""
        if q < len(self.counts):
            raise ValueError(
                f"f^{q} is behind the branch pass, which is at f^{len(self.counts)}"
            )
        if not self.counts:
            self.record(self.first())
        _check_budget(self.counts, cap)
        it = self.last
        while it.n < q:
            it = self.refine(it, cap)
            self.record(it)
        return it

    def record(self, it) -> None:
        """Keep the branch count and fixed points of the next iterate, and
        make it the last."""
        self.counts.append(len(it))
        self.fixed.append(self.fixed_points(it))
        self.last = it


class _ExactEngine(_Engine):
    """Exact mode in plain ints over the map's lattice (D, B, V).

    L and R are the lcms of the slopes' |numerators| and denominators. A
    branch end of f^n is a preimage of a breakpoint under at most n-1 steps,
    so a multiple of 1/X with X = D*L^(n-1), and its f^n value an image of
    one, so a multiple of 1/Y with Y = D*R^(n-1). A preimage under piece j
    multiplies by c_j = R*L/A_j, an integer because |the numerator of s_j|
    divides L; the factors are made and checked once per map, here.
    """

    def __init__(self, f: "PLMap"):
        super().__init__()
        slopes = f.slopes
        self.D, self.B, self.V = f._lattice
        self.L = L = math.lcm(*(abs(s.numerator) for s in slopes))
        self.R = R = math.lcm(*(s.denominator for s in slopes))
        # f(y) = v_j + s_j (y - b_j), with s_j = A[j] / R
        self.A = A = [s.numerator * (R // s.denominator) for s in slopes]
        self.c = [R * L // a for a in A]  # the preimage factors c_j = R*L/A_j of refine
        for j, a in enumerate(A):
            if a * self.c[j] != R * L:
                raise ArithmeticError(f"preimage under piece {j} is not a multiple of 1/(D*L^n)")

    def point(self, num: int, den: int) -> Tuple[int, int]:
        """f(num/den) as a reduced pair, for a reduced pair (den > 0) in the
        domain. Over D*den the point lies at num*D, so its piece is a
        bisection over B (the domain's right end lies in the last piece)."""
        D, B, R, A = self.D, self.B, self.R, self.A
        at = num * D
        k = bisect_right(B, at // den, 0, len(A)) - 1
        y, d = self.V[k] * R * den + A[k] * (at - B[k] * den), D * R * den
        g = math.gcd(y, d)
        return y // g, d // g

    def image(self, key: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
        """f([lo, hi]) for key = (lo num, lo den, hi num, hi den), reduced
        pairs in the domain, as a key of the same kind: the extremes of f at
        the two ends and at the breakpoints between, compared by
        cross-multiplication."""
        n0, d0, n1, d1 = key
        lo = hi = self.point(n0, d0)
        y = self.point(n1, d1)
        if y[0] * lo[1] < lo[0] * y[1]:
            lo = y
        else:
            hi = y
        D, B = self.D, self.B
        inner = self.V[bisect_right(B, n0 * D // d0) : bisect_right(B, n1 * D // d1)]
        if inner:  # breakpoint values, over D
            v = min(inner)
            if v * lo[1] < lo[0] * D:
                g = math.gcd(v, D)
                lo = v // g, D // g
            v = max(inner)
            if v * hi[1] > hi[0] * D:
                g = math.gcd(v, D)
                hi = v // g, D // g
        return (*lo, *hi)

    def first(self) -> _ExactIterate:
        return _ExactIterate(1, list(self.B), list(self.V))

    def refine(self, it: _ExactIterate, cap: int) -> _ExactIterate:
        """f^(n+1) = f^n o f, by pullback. On piece j of f, the ends of
        f^(n+1) are b_j and the preimages of the ends of f^n strictly inside
        f(piece j), where f^(n+1) takes f^n's values; b_j takes f(f^n(b_j)).
        On the lattice the preimage of x over X_n is x' = B_j*L^n +
        c_j*(x - V_j*L^(n-1)) over X_(n+1), with the factor c_j made by
        __init__, and a value y over Y_n is y*R over Y_(n+1). Where c_j is 1
        or -1, as on every piece of a constant integer slope, x' is one add
        or subtract."""
        n, B, V, A, L, R = it.n, self.B, self.V, self.A, self.L, self.R
        Ln = L ** (n - 1)
        scale = R ** (n - 1)
        bs = [b * scale for b in B]  # breakpoints over Y_n
        vs = [v * scale * R for v in V]  # their values over Y_(n+1)
        xs, ys = it.xs, it.ys

        def at_breakpoint(b: int) -> int:
            """f^(n+1)(b) = f(f^n(b)) over Y_(n+1), for b over D."""
            y = ys[bisect_left(xs, b * Ln)]
            # the domain's right end lies in the last piece
            k = bisect_right(bs, y, 0, len(A)) - 1
            return vs[k] + A[k] * (y - bs[k])

        new_xs: List[int] = []
        new_ys: List[int] = []
        for b, u, w, a, c in zip(B, V, V[1:], A, self.c):
            new_xs.append(b * Ln * L)
            new_ys.append(at_breakpoint(b))
            # the ends of f^n strictly inside f(piece j), in the order of their
            # preimages
            lo, hi = (u, w) if a > 0 else (w, u)
            inside = slice(bisect_right(xs, lo * Ln), bisect_left(xs, hi * Ln))
            ends, values = xs[inside], ys[inside]
            if a < 0:
                ends.reverse()
                values.reverse()
            base = (b * L - c * u) * Ln
            # c = L/s_j is +-1 where |s_j| = L, as on every piece of a
            # constant integer slope: one add per end
            if c == 1:
                new_xs += [base + x for x in ends]
            elif c == -1:
                new_xs += [base - x for x in ends]
            else:
                new_xs += [base + c * x for x in ends]
            new_ys += values if R == 1 else [y * R for y in values]
            if len(new_xs) > cap:  # one left end per branch so far
                raise BranchBudgetError(cap, n)
        new_xs.append(B[-1] * Ln * L)
        new_ys.append(at_breakpoint(B[-1]))
        return _ExactIterate(n + 1, new_xs, new_ys)

    def fixed_points(self, it: _ExactIterate) -> List[Tuple[int, int]] | _IdentityBranch:
        """Fix(f^n) in domain order, as reduced pairs (num, den) with den > 0,
        or an _IdentityBranch where f^n is the identity on a branch.

        With sx = L^(n-1) and sy = R^(n-1), an end x over D*sx is x*sy over
        X = D*sx*sy (a list that sy = 1 skips) and a value y is y*sx over X,
        so g = (f^n(x) - x) * X is y*sx - x*sy. One loop carries the previous
        end P and its g0: a zero end is a fixed point, and a sign change
        between P and Q the zero of the branch's line, (Q*g0 - P*g1) /
        (X*(g0 - g1)). Its two-pass form is exact_fixed_points in
        tests/oracles.py."""
        sx, sy = self.L ** (it.n - 1), self.R ** (it.n - 1)
        X = self.D * sx * sy
        xs, ys = it.xs if sy == 1 else [x * sy for x in it.xs], it.ys
        P = xs[0]
        g0 = ys[0] * sx - P
        out: List[Tuple[int, int]] = []
        if g0 == 0:
            d = math.gcd(P, X)
            out.append((P // d, X // d))
        for Q, y in zip(islice(xs, 1, None), islice(ys, 1, None)):
            g1 = y * sx - Q
            if g1 > 0 and g0 < 0 or g1 < 0 and g0 > 0:
                num, den = Q * g0 - P * g1, X * (g0 - g1)
                if den < 0:
                    num, den = -num, -den
                d = math.gcd(num, den)
                out.append((num // d, den // d))
            elif g1 == 0:
                if g0 == 0:
                    return _IdentityBranch(_ratio(P, X), _ratio(Q, X))
                d = math.gcd(Q, X)
                out.append((Q // d, X // d))
            P, g0 = Q, g1
        return out

    def least_periods(self, q: int) -> Dict[Tuple[int, int], int]:
        """Each point of Fix(f^j) for a proper divisor j of q, mapped to the
        least such j; a point of Fix(f^q) not in it has least period q. The
        pass has recorded every f^j with j <= q; none is an _IdentityBranch,
        since f^q is then the identity there too."""
        least: Dict[Tuple[int, int], int] = {}
        for j in (j for j in range(q - 1, 0, -1) if q % j == 0):  # a smaller j overwrites
            least.update(dict.fromkeys(self.fixed[j - 1], j))
        return least


class _FloatEngine(_Engine):
    """Floating mode: each branch carries its slope and offset in binary64.

    Lap counts and sweep rows depend on every rounding here, so the cuts at
    (b - offset)/slope, the midpoint piece lookup and the collapse of empty
    fragments must keep their exact expressions: tests/test_float_bits.py
    checks every iterate and Fix(f^n) bit for bit against the plain loops of
    tests/oracles.py, and tests/test_engine.py pins the results. Only
    interpreter work is saved: t*b_j is made once per map, the midpoint's piece
    is one bisection over the interior breakpoints, a branch whose image holds
    no breakpoint is one fragment, and Fix(f^n) is one comprehension."""

    def __init__(self, f: "PLMap"):
        super().__init__()
        bps, slopes = f.breakpoints, f.slopes
        self.bps, self.vals, self.slopes = bps, f.values, slopes
        # the midpoint's piece, bisect_right(bps, m) - 1 clamped to the pieces,
        # is bisect_right over the interior breakpoints
        self.inner = bps[1:-1]
        # t*bps[j] is the same float inside t*o + vals[j] - t*bps[j] and in
        # f^1's offsets vals[j] - t*bps[j]
        self.tb = [t * b for t, b in zip(slopes, bps)]
        self.laps: List[int] = []

    def record(self, it: _FloatIterate) -> None:
        super().record(it)
        rising = [s > 0 for s in it.slope]  # the laps are its maximal runs
        self.laps.append(1 + sum(map(ne, rising, rising[1:])))

    def first(self) -> _FloatIterate:
        bps, slopes = self.bps, self.slopes
        offsets = [v - tb for v, tb in zip(self.vals, self.tb)]
        return _FloatIterate(1, list(bps[:-1]), list(bps[1:]), list(slopes), offsets)

    def refine(self, it: _FloatIterate, cap: int) -> _FloatIterate:
        """f^(n+1) from f^n: cut each branch at the preimages of breakpoints
        interior to its image, then compose each fragment with the piece of f
        its midpoint's image lands in. A branch whose image holds no
        breakpoint is one fragment; a fragment that collapses in floats is
        dropped."""
        bps, inner, vals, slopes, tb = self.bps, self.inner, self.vals, self.slopes, self.tb
        lo: list = []
        hi: list = []
        slope: list = []
        offset: list = []
        lo_add, hi_add, slope_add, offset_add = lo.append, hi.append, slope.append, offset.append
        for a, b, s, o in zip(it.lo, it.hi, it.slope, it.offset):
            c, d = s * a + o, s * b + o
            if not c <= d:
                c, d = d, c
            first, last = bisect_right(bps, c), bisect_left(bps, d)
            if first < last:
                idx = range(first, last)
                if s < 0:
                    idx = reversed(idx)
                for i in idx:
                    v = (bps[i] - o) / s
                    if a < v:
                        j = bisect_right(inner, s * ((a + v) / 2) + o)
                        t = slopes[j]
                        lo_add(a)
                        hi_add(v)
                        slope_add(t * s)
                        offset_add(t * o + vals[j] - tb[j])
                    a = v
            if a < b:  # the last fragment, or the whole branch
                j = bisect_right(inner, s * ((a + b) / 2) + o)
                t = slopes[j]
                lo_add(a)
                hi_add(b)
                slope_add(t * s)
                offset_add(t * o + vals[j] - tb[j])
            if len(lo) > cap:
                raise BranchBudgetError(cap, it.n)
        return _FloatIterate(it.n + 1, lo, hi, slope, offset)

    def fixed_points(self, it: _FloatIterate) -> array | _IdentityBranch:
        """Fix(f^n) sorted, each branch solved from its affine formula and
        duplicates within MERGE_TOL merged, or the first branch on which f^n
        is the identity as an _IdentityBranch. The points are kept as an
        array('d'), 8 bytes a point for the life of the map."""
        branches = zip(it.lo, it.hi, it.slope, it.offset)
        if 1 in it.slope:  # identity or translation branches
            for a, b, s, o in zip(it.lo, it.hi, it.slope, it.offset):
                if s == 1 and o == 0:
                    return _IdentityBranch(a, b)
            # a translation has no fixed point
            branches = (branch for branch in branches if branch[2] != 1)
        tol = MERGE_TOL
        raw = sorted(
            x for a, b, s, o in branches for x in (o / (1 - s),) if a - tol <= x <= b + tol
        )
        # raw ascends, so a point within tol of the last one kept is at most
        # tol above it
        kept = -math.inf
        return array("d", [kept := x for x in raw if x - kept > tol])

