"""The branch engine against an independent reference, under any call order.

The reference below is the plain slope/offset refinement in ``Fraction``s: it
rebuilds f^q from f for every q, solves each branch's fixed point from its
affine formula, and finds least periods by walking the orbit. It uses nothing
from ``intervalmaps.plmap`` but the map's breakpoints and values.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from intervalmaps import (
    BranchBudgetError,
    PLMap,
    odd_type_map,
    parse_slope_text,
    square_root,
)

F = Fraction


def ref_eval(m, x):
    bps, vals = m.breakpoints, m.values
    j = min(bisect_right(bps, x) - 1, len(bps) - 2)
    return vals[j] + (x - bps[j]) * (vals[j + 1] - vals[j]) / (bps[j + 1] - bps[j])


def ref_iterates(m):
    """Yield the branches (lo, hi, slope, offset) of f^1, f^2, ..."""
    bps, vals = m.breakpoints, m.values
    slopes = [(vals[j + 1] - vals[j]) / (bps[j + 1] - bps[j]) for j in range(len(bps) - 1)]
    branches = [(bps[j], bps[j + 1], s, vals[j] - s * bps[j]) for j, s in enumerate(slopes)]
    while True:
        yield branches
        out = []
        for lo, hi, s, o in branches:
            c, d = sorted((s * lo + o, s * hi + o))
            idx = range(bisect_right(bps, c), bisect_left(bps, d))
            cuts = [lo, *sorted((bps[i] - o) / s for i in idx), hi]
            for a, b in zip(cuts, cuts[1:]):
                j = min(bisect_right(bps, s * (a + b) / 2 + o) - 1, len(slopes) - 1)
                t = slopes[j]
                out.append((a, b, t * s, t * o + vals[j] - t * bps[j]))
        branches = out


def ref_laps(m, n_max):
    laps = []
    for branches, _ in zip(ref_iterates(m), range(n_max)):
        rising = [s > 0 for _, _, s, _ in branches]
        laps.append(1 + sum(a != b for a, b in zip(rising, rising[1:])))
    return laps


def ref_periodic_points(m, q):
    branches = next(b for b, n in zip(ref_iterates(m), range(1, q + 1)) if n == q)
    assert not any(s == 1 and o == 0 for _, _, s, o in branches)
    points = sorted(
        {o / (1 - s) for lo, hi, s, o in branches if s != 1 and lo <= o / (1 - s) <= hi}
    )
    out = []
    for x in points:
        y, period = ref_eval(m, x), 1
        while y != x:
            y, period = ref_eval(m, y), period + 1
        assert q % period == 0
        out.append((x, period))
    return out


MAP_NAMES = ["f32", "f52", "f72", "stefan5", "sqrt32", "sqrt_sqrt52", "f3_9/5", "f5_17/10"]


@pytest.fixture(scope="module")
def maps(f32, f52, f72, stefan5, sqrt32):
    return {
        "f32": f32.map,
        "f52": f52.map,
        "f72": f72.map,
        "stefan5": stefan5,
        "sqrt32": sqrt32,
        "sqrt_sqrt52": square_root(square_root(f52.map)),
        "f3_9/5": odd_type_map(3, F(9, 5)).map,
        "f5_17/10": odd_type_map(5, F(17, 10)).map,
    }


def fresh(m):
    """The same map with an engine that has built nothing yet."""
    return PLMap(m.breakpoints, m.values)


@pytest.mark.parametrize("name", MAP_NAMES)
def test_periodic_points_match_reference(maps, name):
    m = fresh(maps[name])
    assert m.is_exact
    for q in range(1, 10):
        assert m.periodic_points(q) == ref_periodic_points(m, q), q


@pytest.mark.parametrize("name", MAP_NAMES)
def test_lap_growth_matches_reference(maps, name):
    m = fresh(maps[name])
    assert m.lap_growth(12) == ref_laps(m, 12)


class TestCallOrder:
    @pytest.fixture(scope="class")
    def expected(self, maps):
        m = fresh(maps["f52"])
        return {q: m.periodic_points(q) for q in range(1, 10)}, m.lap_growth(12)

    def test_descending_q(self, maps, expected):
        m = fresh(maps["f52"])
        for q in range(9, 0, -1):
            assert m.periodic_points(q) == expected[0][q]

    def test_repeated_q(self, maps, expected):
        m = fresh(maps["f52"])
        for q in (6, 6, 7, 7):
            assert m.periodic_points(q) == expected[0][q]

    def test_lap_growth_between_periodic_points(self, maps, expected):
        m = fresh(maps["f52"])
        points, laps = expected
        for q in range(1, 5):
            assert m.periodic_points(q) == points[q]
        assert m.lap_growth(12) == laps
        for q in range(5, 10):
            assert m.periodic_points(q) == points[q]
        assert m.lap_growth(7) == laps[:7]

    def test_small_cap_then_default(self, maps, expected):
        m = fresh(maps["f52"])
        points, laps = expected
        with pytest.raises(BranchBudgetError):
            m.periodic_points(9, branch_cap=100)
        assert m.periodic_points(9) == points[9]
        with pytest.raises(BranchBudgetError):
            m.lap_growth(12, branch_cap=100)
        assert m.lap_growth(12) == laps
        assert m.periodic_points(4) == points[4]


# Recorded from the per-q Fraction engine this one replaced: f32 has 30
# branches at n=4 and 67 at n=5.
@pytest.mark.parametrize("cap", [30, 40, 60])
@pytest.mark.parametrize("prelude", ["none", "deep laps", "periodic points"])
def test_budget_error_prefix(f32, cap, prelude):
    m = fresh(f32.map)
    if prelude == "deep laps":
        m.lap_growth(10)
    elif prelude == "periodic points":
        m.periodic_points(6)
    with pytest.raises(BranchBudgetError) as err:
        m.lap_growth(12, branch_cap=cap)
    assert (err.value.completed_n, err.value.laps) == (4, [4, 7, 17, 30])
    for call in (m.periodic_points, m.branches_of_iterate):
        with pytest.raises(BranchBudgetError) as err:
            call(12, branch_cap=cap)
        assert (err.value.completed_n, err.value.laps) == (4, [])
    assert str(err.value) == f"branch budget {cap} exceeded; largest completed iterate n=4"


def test_branch_counts(f32):
    m = fresh(f32.map)
    assert [len(m.branches_of_iterate(q)) for q in (1, 4, 5)] == [4, 30, 67]


def test_inexact_cut_is_caught(f52):
    m = fresh(f52.map)
    m._engine.L = 1  # wrong common denominator: f52's slopes are +-2
    with pytest.raises(ArithmeticError, match="not a multiple"):
        m.lap_growth(4)


# Recorded from the per-q float engine this one replaced; floats must not move.
FLOAT_PINS = {
    (3, 1, "lambda_p"): (
        [4, 9, 16, 24, 34, 47, 66, 90, 122, 159, 210, 275],
        [1, 3, 1, 7, 1, 9, 1, 15, 1, 23],
    ),
    (5, 0, "1.9"): (
        [6, 11, 31, 49, 111, 180, 397, 649, 1413, 2351, 5042, 8535],
        [1, 7, 1, 23, 6, 79, 29, 271, 127, 932],
    ),
}


@pytest.mark.parametrize("p, d, slope_text", sorted(FLOAT_PINS))
def test_float_engine_pinned(p, d, slope_text):
    m = odd_type_map(p, parse_slope_text(slope_text, p)).map
    for _ in range(d):
        m = square_root(m)
    assert not m.is_exact
    laps, counts = FLOAT_PINS[(p, d, slope_text)]
    assert m.lap_growth(12) == laps
    assert [len(m.periodic_points(q)) for q in range(1, 11)] == counts
