"""Certification of constructed maps: type, entropy estimate, mixing.

verify_type enumerates periodic points per period and compares the realized
period set against the one the claimed type prescribes; when a labeled
partition is supplied it adds a covering-graph certificate (cycle census plus
a direct period check of the partition boundary points, which is the only way
a periodic orbit can evade the graph argument). estimate_entropy reads the
lap growth of iterates. verify_mixing iterates exact interval images until
they fill the whole domain; the seeds' orbits merge, so a trace stops at the
first image an earlier trace settled, or at a repeat of its own, which never
covers. Its reference, the plain image loop run to the cap for each seed, is
mixing_trace in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .covering import CoveringGraph, build_covering_graph, primitive_cycle_census
from .kernel import FLOAT_TOL, Scalar, _fraction, _ratio, as_scalar, is_exact, scalar_to_str
from .plmap import DEFAULT_BRANCH_CAP, BranchBudgetError, Interval, PLMap
from .sharkovskii import SharkovskiiValue, _key as _sharkovskii_key, expected_period_set

DEFAULT_Q_MAX = 13  # comfortable for the slope-2 family

__all__ = [
    "EntropyEstimate",
    "MixingReport",
    "TypeReport",
    "estimate_entropy",
    "verify_mixing",
    "verify_type",
]


# ---------------------------------------------------------------- type


@dataclass(frozen=True)
class TypeReport:
    """Outcome of a truncated type check, with witnesses and certificates."""

    claimed: SharkovskiiValue
    q_max: int
    present: Dict[int, Scalar]          # least period -> smallest witness point
    absent: Tuple[int, ...]
    expected: Tuple[int, ...]
    verdict: str                        # consistent | refuted | inconclusive
    checked_up_to: int
    refutation: Optional[str]
    census: Optional[Dict[int, int]]
    boundary_periods: Optional[Dict[str, Optional[int]]]
    excluded_odd_periods: Optional[Tuple[int, ...]]
    # the covering graph the census counted, kept for a DOT; not reported
    graph: Optional[CoveringGraph] = field(default=None, compare=False, repr=False)

    def as_dict(self) -> dict:
        return {
            "claimed": self.claimed,
            "q_max": self.q_max,
            "present": {str(q): scalar_to_str(x) for q, x in self.present.items()},
            "absent": list(self.absent),
            "expected": list(self.expected),
            "verdict": self.verdict,
            "checked_up_to": self.checked_up_to,
            "refutation": self.refutation,
            "census": None
            if self.census is None
            else {str(k): v for k, v in self.census.items()},
            "boundary_periods": self.boundary_periods,
            "excluded_odd_periods": None
            if self.excluded_odd_periods is None
            else list(self.excluded_odd_periods),
        }


def verify_type(
    f: PLMap,
    claimed: SharkovskiiValue,
    q_max: int = DEFAULT_Q_MAX,
    partition: Optional[Sequence[Tuple[str, Interval]]] = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> TypeReport:
    """Compare the realized periods <= q_max against the claimed type.

    The enumeration side is complete up to q_max (or up to the largest fully
    checked period if the branch budget runs out, downgrading the verdict to
    inconclusive). The optional graph certificate rules out odd periods below
    the claimed odd part outright: no primitive cycle of that length plus no
    boundary point of that period means no such periodic point at all. Its
    census and boundary return times run to the largest such period even
    past q_max, and are reported up to q_max.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    present: Dict[int, Scalar] = {}
    checked = 0
    truncated = False
    for q in range(1, q_max + 1):
        try:
            pts = f.periodic_points(q, branch_cap)
        except BranchBudgetError:
            truncated = True
            break
        checked = q
        for x, lp in pts:
            if lp == q:
                present[q] = x
                break

    expected = expected_period_set(claimed, q_max)
    expected_seen = {m for m in expected if m <= checked}
    absent = tuple(q for q in range(1, checked + 1) if q not in present)

    unexpected = sorted(set(present) - expected)
    missing = sorted(expected_seen - set(present))
    refutation = None
    if unexpected:
        q = unexpected[0]
        refutation = (
            f"period {q} is realized (witness {scalar_to_str(present[q])}) "
            f"but type {claimed} forbids it"
        )
    elif missing:
        refutation = f"period {missing[0]} is prescribed by type {claimed} but missing"

    if refutation is not None:
        verdict = "refuted"
    elif truncated:
        verdict = "inconclusive"
    else:
        verdict = "consistent"

    graph = census = boundary_periods = excluded = None
    if partition is not None:
        graph = build_covering_graph(f, partition)
        odd_part = _sharkovskii_key(claimed)[2]  # 0 for 2^k and 2^inf
        # the census and the boundary walk reach every odd period below the
        # odd part, so each excluded period is checked; both are reported
        # up to q_max only
        reach = max(q_max, odd_part - 2)
        census = primitive_cycle_census(graph, reach)
        returns = _boundary_periods(f, partition, reach)
        if odd_part >= 3:
            boundary_values = set(returns.values())
            excluded = tuple(
                q
                for q in range(3, odd_part, 2)
                if census[q] == 0 and q not in boundary_values
            )
        census = {n: census[n] for n in range(1, q_max + 1)}
        boundary_periods = {
            pt: None if r is None or r > q_max else r for pt, r in returns.items()
        }

    return TypeReport(
        claimed=claimed,
        q_max=q_max,
        present=present,
        absent=absent,
        expected=tuple(sorted(expected)),
        verdict=verdict,
        checked_up_to=checked,
        refutation=refutation,
        census=census,
        boundary_periods=boundary_periods,
        excluded_odd_periods=excluded,
        graph=graph,
    )


def _boundary_periods(f, partition, q_max) -> Dict[str, Optional[int]]:
    """The return time of each partition end; on an exact map the ends on
    one cycle share one walk of it (PLMap.return_times)."""
    points = sorted({pt for _name, iv in partition for pt in (iv.lo, iv.hi)})
    return dict(zip(map(scalar_to_str, points), f.return_times(points, q_max)))


# ---------------------------------------------------------------- entropy


@dataclass(frozen=True)
class EntropyEstimate:
    """Lap counts of iterates and the growth-rate estimates derived from them."""

    laps: Tuple[int, ...]
    log_ratios: Tuple[float, ...]
    h: float                 # least-squares slope of log L(n) over the tail window
    h_last_ratio: float      # log(L(n_max) / L(n_max - 1))
    h_log_over_n: float      # log L(n_max) / n_max
    fit_window: Tuple[int, int]
    target: Optional[float]
    gap: Optional[float]

    def as_dict(self) -> dict:
        return {
            "laps": list(self.laps),
            "log_ratios": list(self.log_ratios),
            "h": self.h,
            "h_last_ratio": self.h_last_ratio,
            "h_log_over_n": self.h_log_over_n,
            "fit_window": list(self.fit_window),
            "target": self.target,
            "gap": self.gap,
        }


def estimate_entropy(
    f: PLMap,
    n_max: int = 16,
    target: Optional[float] = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> EntropyEstimate:
    """Entropy estimate from the lap growth of f^1 .. f^n_max.

    The headline h fits log L(n) ~ h*n + c by least squares over the last
    eight iterates, which cancels the constant prefactor and averages out the
    period-2 ratio oscillation of square-root maps; the raw last-ratio and
    log L(n)/n readings are reported alongside. Rational maps get their lap
    counts from the interval graph of PLMap.lap_growth, floating ones from the
    branch pass. A branch count of some f^n over branch_cap (computed, in
    rational mode, not built) propagates as BranchBudgetError.
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    laps = f.lap_growth(n_max, branch_cap)
    ratios = tuple(
        math.log(b / a) for a, b in zip(laps, laps[1:])
    )
    lo_n = max(1, n_max - 7)
    pts = [(n, math.log(laps[n - 1])) for n in range(lo_n, n_max + 1)]
    h = _ls_slope(pts)
    gap = None if target is None else abs(h - target)
    return EntropyEstimate(
        laps=tuple(laps),
        log_ratios=ratios,
        h=h,
        h_last_ratio=ratios[-1],
        h_log_over_n=math.log(laps[-1]) / n_max,
        fit_window=(lo_n, n_max),
        target=target,
        gap=gap,
    )


def _ls_slope(pts: List[Tuple[int, float]]) -> float:
    """Least-squares slope. Floats are added left to right, as sum() did
    before Python 3.12 compensated its rounding, so h is the same on every
    Python."""
    n = len(pts)
    mean_x = sum(x for x, _ in pts) / n
    mean_y = reduce(add, (y for _, y in pts), 0.0) / n
    num = reduce(add, ((x - mean_x) * (y - mean_y) for x, y in pts), 0.0)
    den = reduce(add, ((x - mean_x) ** 2 for x, _ in pts), 0.0)
    return num / den


# ---------------------------------------------------------------- mixing


@dataclass(frozen=True)
class MixingReport:
    """First cover times of iterated seed-interval images."""

    seed_width: Scalar
    grid: int
    cap: int
    seeds: Tuple[Interval, ...]
    first_cover: Tuple[Optional[int], ...]
    max_n: Optional[int]
    all_covered: bool

    def as_dict(self) -> dict:
        return {
            "seed_width": scalar_to_str(as_scalar(self.seed_width)),
            "grid": self.grid,
            "cap": self.cap,
            "seeds": [
                [scalar_to_str(s.lo), scalar_to_str(s.hi)] for s in self.seeds
            ],
            "first_cover": list(self.first_cover),
            "max_n": self.max_n,
            "all_covered": self.all_covered,
        }


def _key(a: Interval) -> Tuple[int, int, int, int]:
    """An interval with rational ends as the engine's image key."""
    return (a.lo.numerator, a.lo.denominator, a.hi.numerator, a.hi.denominator)


def _first_cover(
    f: PLMap, dom: Interval, seed: Interval, cap: int, known: dict
) -> Optional[int]:
    """The first n <= cap with f^n(seed) equal to dom, f's domain (within
    FLOAT_TOL at each end on a floating map), cut short by known, a table of
    image -> first cover time (math.inf: never). An image met at step n
    with time r gives n + r, None past cap. A new image enters known as
    inf, so a repeat within the trace, a cycle that never covers, gives None
    too; it gets its true time when the trace ends, or leaves known at the
    cap. An exact map's trace iterates the engine's image step on int keys;
    a floating one's takes PLMap.image on Intervals."""
    if f.is_exact:
        image, cur, covers = f._engine.image, _key(seed), _key(dom).__eq__
    else:
        image, cur = f.image, seed
        covers = partial(Interval.encloses, other=dom, slack=FLOAT_TOL)
    if covers(cur):
        return 0
    images: list = []
    for n in range(1, cap + 1):
        cur = image(cur)
        r = known.get(cur)
        if r is None and covers(cur):
            r = 0
        if r is not None:  # cur first covers r steps after step n
            for k, img in enumerate(images, 1):
                known[img] = n - k + r
            return n + r if n + r <= cap else None
        known[cur] = math.inf
        images.append(cur)
    for img in images:  # not settled: their times exceed what the cap allowed
        del known[img]
    return None


def _exact_seeds(dom: Interval, w: Fraction, grid: int) -> List[Interval]:
    """The seeds of an exact width on an exact domain. Every end is an int
    over one common denominator M, the lcm of the denominators of the domain's
    ends, of span/(2*grid) (as 2*grid*span.denominator) and of w/2; ends are
    clipped by int comparison and reduced by one gcd each."""
    lo, hi = dom.lo, dom.hi
    span, half = hi - lo, w / 2
    step = 2 * grid * span.denominator
    M = math.lcm(lo.denominator, hi.denominator, step, half.denominator)
    a, b = lo.numerator * (M // lo.denominator), hi.numerator * (M // hi.denominator)
    unit, h = span.numerator * (M // step), half.numerator * (M // half.denominator)
    seeds = []
    for i in range(grid):
        center = a + (2 * i + 1) * unit
        seeds.append(Interval(_ratio(max(a, center - h), M), _ratio(min(b, center + h), M)))
    return seeds


def _float_seeds(dom: Interval, w: float, grid: int) -> List[Interval]:
    """The seeds of a floating map."""
    span = dom.hi - dom.lo
    seeds = []
    for i in range(grid):
        center = dom.lo + span * ((2 * i + 1) / (2 * grid))
        seeds.append(Interval(max(dom.lo, center - w / 2), min(dom.hi, center + w / 2)))
    return seeds


def verify_mixing(
    f: PLMap, seed_width, grid: int, cap: int
) -> MixingReport:
    """Check that every seed interval eventually covers the whole domain.

    Seeds of the given width are centered at (2i+1)/(2*grid) across the
    domain (clipped to it). The map decides the arithmetic. An exact map is
    traced exactly for any width, a float width taken at its binary64 value
    (2.0**-10 is 1/1024); its seeds are laid out in ints over one common
    denominator and become Fractions without Fraction.__new__, and their
    Fraction-arithmetic layout is mixing_seeds in tests/oracles.py. A
    floating map is traced in floats. Failures at the cap are recorded, not
    raised.
    The seeds' orbits merge, so each image a trace settles is kept with its
    first cover time (or as never covering), and a later trace stops at it.
    The first cover times are those of tests/oracles.py's mixing_trace, the
    plain image loop run to the cap.
    """
    w = as_scalar(seed_width)
    if not w > 0:
        raise ValueError("seed_width must be positive")
    if grid < 1 or cap < 1:
        raise ValueError("grid and cap must be >= 1")
    if not f.is_exact:
        w = float(w)
    elif not is_exact(w):
        w = _fraction(*w.as_integer_ratio())
    dom = f.domain
    seeds = (_exact_seeds if f.is_exact else _float_seeds)(dom, w, grid)
    known: dict = {}  # image -> first cover time, shared by every trace
    firsts = [_first_cover(f, dom, seed, cap, known) for seed in seeds]
    hits = [n for n in firsts if n is not None]
    return MixingReport(
        seed_width=w,
        grid=grid,
        cap=cap,
        seeds=tuple(seeds),
        first_cover=tuple(firsts),
        max_n=max(hits) if hits else None,
        all_covered=len(hits) == len(firsts),
    )
