"""Certification of constructed maps: type, entropy estimate, mixing.

verify_type enumerates periodic points per period and compares the realized
period set against the one the claimed type prescribes; when a labeled
partition is supplied it adds a covering-graph certificate (cycle census plus
a direct period check of the partition boundary points, which is the only way
a periodic orbit can evade the graph argument). estimate_entropy reads the
lap growth of iterates. verify_mixing iterates exact interval images until
they fill the whole domain; the seeds' orbits merge, so a trace stops at the
first image an earlier trace settled, or at a repeat of its own, which never
covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .covering import build_covering_graph, primitive_cycle_census
from .kernel import FLOAT_TOL, Scalar, as_scalar, is_exact, scalar_to_str
from .plmap import DEFAULT_BRANCH_CAP, BranchBudgetError, Interval, PLMap
from .sharkovskii import SharkovskiiValue, TWO_INF, expected_period_set

DEFAULT_Q_MAX = 13  # comfortable for the slope-2 family

__all__ = [
    "EntropyEstimate",
    "MixingReport",
    "TypeReport",
    "estimate_entropy",
    "mixing_trace",
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
    boundary point of that period means no such periodic point at all.
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
    for q, x in present.items():
        if f.return_time(x, q) != q:
            raise RuntimeError(f"internal: witness {x!r} does not have least period {q}")

    horizon = checked if truncated else q_max
    expected = expected_period_set(claimed, q_max)
    expected_seen = {m for m in expected if m <= horizon}
    absent = tuple(q for q in range(1, horizon + 1) if q not in present)

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

    census = boundary_periods = excluded = None
    if partition is not None:
        graph = build_covering_graph(f, partition)
        census = primitive_cycle_census(graph, q_max)
        boundary_periods = _boundary_periods(f, partition, q_max)
        odd_part = _odd_part(claimed)
        if odd_part is not None and odd_part >= 3:
            boundary_values = set(boundary_periods.values())
            excluded = tuple(
                q
                for q in range(3, odd_part, 2)
                if census.get(q, 0) == 0 and q not in boundary_values
            )

    return TypeReport(
        claimed=claimed,
        q_max=q_max,
        present=present,
        absent=absent,
        expected=tuple(sorted(expected)),
        verdict=verdict,
        checked_up_to=horizon,
        refutation=refutation,
        census=census,
        boundary_periods=boundary_periods,
        excluded_odd_periods=excluded,
    )


def _odd_part(claimed: SharkovskiiValue) -> Optional[int]:
    if claimed == TWO_INF:
        return None
    n = int(claimed)
    while n % 2 == 0:
        n //= 2
    return n


def _boundary_periods(f, partition, q_max) -> Dict[str, Optional[int]]:
    points = {pt for _name, iv in partition for pt in (iv.lo, iv.hi)}
    return {scalar_to_str(pt): f.return_time(pt, q_max) for pt in sorted(points)}


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
    n = len(pts)
    mean_x = sum(x for x, _ in pts) / n
    mean_y = sum(y for _, y in pts) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    den = sum((x - mean_x) ** 2 for x, _ in pts)
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


def _covers_domain(img: Interval, dom: Interval, exact: bool) -> bool:
    if exact:
        return img.lo == dom.lo and img.hi == dom.hi
    return img.lo <= dom.lo + FLOAT_TOL and img.hi >= dom.hi - FLOAT_TOL


def mixing_trace(
    f: PLMap, seed: Interval, cap: int
) -> Tuple[Optional[int], List[Interval]]:
    """Iterate exact images of seed until they equal the whole domain.

    Returns (first n with f^n(seed) = domain, the list of images f^1..);
    n is None if the cap is reached first. Rational mode demands exact
    equality; floating mode accepts covering up to FLOAT_TOL at each end.
    This plain loop is the reference for verify_mixing.
    """
    dom = f.domain
    exact = f.is_exact and is_exact(seed.lo) and is_exact(seed.hi)
    if _covers_domain(seed, dom, exact):
        return 0, []
    images: List[Interval] = []
    cur = seed
    for n in range(1, cap + 1):
        cur = f.image(cur)
        images.append(cur)
        if _covers_domain(cur, dom, exact):
            return n, images
    return None, images


def _first_cover(
    f: PLMap, seed: Interval, cap: int, known: Dict[Interval, float]
) -> Optional[int]:
    """mixing_trace's first cover time, cut short by known, a table of image
    -> first cover time (math.inf: never). An image met at step n with time
    r gives n + r, None past cap. A new image enters known as inf, so a
    repeat within the trace, a cycle that never covers, gives None too; it
    gets its true time when the trace ends, or leaves known at the cap."""
    dom = f.domain
    exact = f.is_exact and is_exact(seed.lo) and is_exact(seed.hi)
    if _covers_domain(seed, dom, exact):
        return 0
    images: List[Interval] = []
    cur = seed
    for n in range(1, cap + 1):
        cur = f.image(cur)
        r = known.get(cur)
        if r is None and _covers_domain(cur, dom, exact):
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


def verify_mixing(
    f: PLMap, seed_width, grid: int, cap: int
) -> MixingReport:
    """Check that every seed interval eventually covers the whole domain.

    Seeds of the given width are centered at (2i+1)/(2*grid) across the
    domain (clipped to it). Failures at the cap are recorded, not raised.
    The seeds' orbits merge, so each image a trace settles is kept with its
    first cover time (or as never covering), and a later trace stops at it.
    The first cover times are those of mixing_trace.
    """
    w = as_scalar(seed_width)
    if not w > 0:
        raise ValueError("seed_width must be positive")
    if grid < 1 or cap < 1:
        raise ValueError("grid and cap must be >= 1")
    exact = f.is_exact and is_exact(w)
    if not exact:
        w = float(w)
    dom = f.domain
    span = dom.hi - dom.lo
    seeds: List[Interval] = []
    firsts: List[Optional[int]] = []
    # image -> first cover time. Every trace of one call applies the same
    # cover test: with a float width, only a seed clipped to the whole domain
    # has exact ends, and it covers at once without images.
    known: Dict[Interval, float] = {}
    for i in range(grid):
        frac = Fraction(2 * i + 1, 2 * grid) if exact else (2 * i + 1) / (2 * grid)
        center = dom.lo + span * frac
        seed = Interval(max(dom.lo, center - w / 2), min(dom.hi, center + w / 2))
        seeds.append(seed)
        firsts.append(_first_cover(f, seed, cap, known))
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
