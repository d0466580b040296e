"""The branch engine against an independent reference, under any call order.

The reference below is the plain slope/offset refinement in ``Fraction``s: it
rebuilds f^q from f for every q, solves each branch's fixed point from its
affine formula, and finds least periods by walking the orbit. It uses nothing
from ``intervalmaps.plmap`` but the map's breakpoints and values.

Rational lap and branch counts come from the interval graph, not the branch
engine, so random exact maps check the two against each other as well.
"""

import gc
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from types import FrameType, TracebackType

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from intervalmaps import (
    BranchBudgetError,
    FixedPointContinuumError,
    Interval,
    PLMap,
    odd_type_map,
    parse_slope_text,
    square_root,
)
from intervalmaps.kernel import FLOAT_TOL
from intervalmaps.plmap import _FloatEngine, _FloatIterate

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
        m.branches_of_iterate(4)


def branch_laps(branches):
    """Direction runs of an iterate's branches (the branch engine's laps)."""
    rising = [u < w for u, w in zip(branches.flo, branches.fhi)]
    return 1 + sum(a != b for a, b in zip(rising, rising[1:]))


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def exact_maps(draw):
    """Continuous exact self-maps of [0, 1] with 1 to 6 non-constant pieces."""
    pieces = draw(st.integers(1, 6))
    inner = draw(st.lists(UNIT.filter(lambda x: 0 < x < 1), min_size=pieces - 1,
                          max_size=pieces - 1, unique=True))
    values = draw(st.lists(UNIT, min_size=pieces + 1, max_size=pieces + 1))
    assume(all(a != b for a, b in zip(values, values[1:])))
    return PLMap((F(0), *sorted(inner), F(1)), tuple(values))


ENGINES_AGREE = settings(derandomize=True, max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@ENGINES_AGREE
@given(exact_maps())
def test_interval_graph_matches_branch_engine(m):
    """Lap and branch counts of f^n from the interval graph against the
    branch engine, for n <= 8 while f^n has at most 3000 branches."""
    counts = m._hits(m.breakpoints[1:-1], 8)
    n_max = max(n for n in range(1, 9) if counts[n - 1] <= 3000)
    iterates = [m.branches_of_iterate(n) for n in range(1, n_max + 1)]
    assert counts[:n_max] == [len(it) for it in iterates]
    assert m.lap_growth(n_max) == [branch_laps(it) for it in iterates]


def budget_error(call, n, cap):
    try:
        call(n, branch_cap=cap)
    except BranchBudgetError as err:
        return err
    return None


@ENGINES_AGREE
@given(exact_maps(), st.integers(1, 8), st.integers(1, 400))
def test_budget_errors_agree(m, n, cap):
    """lap_growth and branches_of_iterate overrun the same cap at the same n."""
    from_laps = budget_error(m.lap_growth, n, cap)
    from_branches = budget_error(m.branches_of_iterate, n, cap)
    assert (from_laps is None) == (from_branches is None)
    if from_laps is not None:
        done = from_laps.completed_n
        assert done == from_branches.completed_n
        assert from_laps.laps == m.lap_growth(n)[:done]


def test_deep_lap_growth(maps):
    m = fresh(maps["sqrt_sqrt52"])
    start = time.perf_counter()
    laps = m.lap_growth(60, branch_cap=10**30)
    assert time.perf_counter() - start < 0.1
    assert laps[:14] == [branch_laps(m.branches_of_iterate(n)) for n in range(1, 15)]


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


# Floating mode: one pass serves lap_growth and periodic_points in any order,
# and every result equals the one a fresh map gives for that call alone.


@pytest.fixture(scope="module")
def float_maps():
    m = odd_type_map(5, 1.9).map
    return {"f5_1.9": m, "sqrt_f5_1.9": square_root(m)}


FLOAT_NAMES = ["f5_1.9", "sqrt_f5_1.9"]


class TestFloatCallOrder:
    @pytest.fixture(scope="class")
    def expected(self, float_maps):
        return {
            name: ({q: fresh(m).periodic_points(q) for q in range(1, 14)},
                   fresh(m).lap_growth(12))
            for name, m in float_maps.items()
        }

    @pytest.mark.parametrize("name", FLOAT_NAMES)
    def test_laps_then_ascending_q(self, float_maps, expected, name):
        m = fresh(float_maps[name])
        points, laps = expected[name]
        assert not m.is_exact
        assert m.lap_growth(12) == laps
        for q in range(1, 14):
            assert m.periodic_points(q) == points[q], q

    @pytest.mark.parametrize("name", FLOAT_NAMES)
    def test_descending_q(self, float_maps, expected, name):
        m = fresh(float_maps[name])
        points, laps = expected[name]
        for q in range(13, 0, -1):
            assert m.periodic_points(q) == points[q], q
        assert m.lap_growth(12) == laps

    @pytest.mark.parametrize("name", FLOAT_NAMES)
    def test_small_cap_then_default(self, float_maps, expected, name):
        m = fresh(float_maps[name])
        points, laps = expected[name]
        with pytest.raises(BranchBudgetError) as err:
            m.periodic_points(13, branch_cap=100)
        done = err.value.completed_n
        assert err.value.laps == []
        assert m.periodic_points(13) == points[13]
        with pytest.raises(BranchBudgetError) as again:  # f^13 is recorded now
            m.periodic_points(13, branch_cap=100)
        assert (again.value.completed_n, again.value.laps) == (done, [])
        with pytest.raises(BranchBudgetError) as err:
            m.lap_growth(12, branch_cap=100)
        assert (err.value.completed_n, err.value.laps) == (done, laps[:done])
        assert m.lap_growth(12) == laps
        assert m.periodic_points(4) == points[4]


def test_float_periodic_points_reuse_the_pass(float_maps, monkeypatch):
    """After lap_growth(12), periodic points of f^1..f^12 are read from the
    record, and f^13 is one refinement step away."""
    steps = []
    refine = _FloatEngine.refine

    def counting(self, it, cap):
        steps.append(it.n)
        return refine(self, it, cap)

    monkeypatch.setattr(_FloatEngine, "refine", counting)
    m = fresh(float_maps["f5_1.9"])
    m.lap_growth(12)
    assert len(steps) == 11
    for q in range(1, 13):
        m.periodic_points(q)
    assert len(steps) == 11
    m.periodic_points(13)
    assert steps[11:] == [12]


def test_float_identity_iterate():
    """x -> 1 - x in floats: the laps come from the pass, and f^2, the
    identity, is reported when its fixed points are asked for."""
    m = PLMap((0.0, 1.0), (1.0, 0.0))
    assert m.lap_growth(5) == [1, 1, 1, 1, 1]
    assert m.periodic_points(1) == [(0.5, 1)]
    message = r"f\^2 is the identity on \[0.0, 1.0\] \(itinerary \(0, 0\)\)"
    for call in (m.periodic_points, fresh(m).periodic_points):
        with pytest.raises(FixedPointContinuumError, match=f"^{message}$"):
            call(2)


def test_recorded_identity_keeps_no_iterate():
    """An identity hit is recorded without its traceback, whose frames would
    keep the iterate that raised it alive for the life of the map."""
    m = PLMap((0.0, 1.0), (1.0, 0.0))
    m.lap_growth(6)
    hits = [fix for fix in m._engine.fixed if not isinstance(fix, list)]
    assert len(hits) == 3  # f^2, f^4, f^6
    seen, stack = set(), [m._engine.fixed]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (_FloatIterate, FrameType, TracebackType)), obj
        stack.extend(gc.get_referents(obj))


UNIT_FLOAT = st.floats(0, 1)
NEAR = st.floats(0, FLOAT_TOL / 2)  # slack the domain clamp forgives


@st.composite
def float_maps_and_points(draw):
    """A float self-map of [0, 1] with 1 to 6 pieces, and points to follow:
    breakpoints, values, the domain ends, points up to FLOAT_TOL/2 outside
    it, interior points and fixed points of f^1..f^4."""
    pieces = draw(st.integers(1, 6))
    # breakpoints at least 1/1000 apart keep every slope finite
    inner = draw(st.lists(st.integers(1, 999).map(lambda k: k / 1000), min_size=pieces - 1,
                          max_size=pieces - 1, unique=True))
    values = draw(st.lists(UNIT_FLOAT, min_size=pieces + 1, max_size=pieces + 1))
    assume(all(a != b for a, b in zip(values, values[1:])))
    m = PLMap((0.0, *sorted(inner), 1.0), tuple(values))
    m.lap_growth(4)
    fixed = [x for fix in m._engine.fixed if isinstance(fix, list) for x in fix]
    points = [*m.breakpoints, *m.values, *fixed, -draw(NEAR), 1 + draw(NEAR),
              *draw(st.lists(UNIT_FLOAT, max_size=5))]
    return m, points


def eval_loop_return_time(m, x, n):
    """return_time as a plain loop over the generic PLMap.eval."""
    y = x
    for j in range(1, n + 1):
        y = m.eval(y)
        if abs(y - x) <= m.tol:
            return j
    return None


def assert_return_times_match(m, points, outside):
    for x in points:
        assert m.return_time(x, 6) == eval_loop_return_time(m, x, 6), x
    for x in outside:
        with pytest.raises(ValueError, match="outside domain"):
            m.return_time(x, 6)


@ENGINES_AGREE
@given(float_maps_and_points())
def test_float_return_time_matches_eval_loop(case):
    m, points = case
    assert_return_times_match(m, points, (-2 * FLOAT_TOL, 1 + 2 * FLOAT_TOL))


@ENGINES_AGREE
@given(exact_maps(), st.lists(UNIT, max_size=5), NEAR)
def test_exact_return_time_matches_eval_loop(m, interior, near):
    """The same loop on rational maps: exact points, fixed points of f^1..f^4,
    and floats, which the clamp forgives up to FLOAT_TOL outside the domain
    while a rational point outside it is refused."""
    m.branches_of_iterate(4)
    fixed = [F(*x) for fix in m._engine.fixed if isinstance(fix, list) for x in fix]
    points = [*m.breakpoints, *m.values, *fixed, *interior, 0.5, -near, 1 + near]
    assert_return_times_match(m, points, (F(-1, 10**9), 1 + F(1, 10**9), -2 * FLOAT_TOL))


def ref_image(m, lo, hi, evaluate):
    """The extrema of evaluate at both ends and the breakpoints inside."""
    ys = [evaluate(x) for x in (lo, hi, *(b for b in m.breakpoints if lo < b < hi))]
    return min(ys), max(ys)


def typed(*xs):
    return [(type(x), x) for x in xs]


@ENGINES_AGREE
@given(exact_maps(), st.data())
def test_lattice_image_matches_reference(m, data):
    """PLMap.image with rational ends, placed on the engine's integer lattice,
    against plain Fraction evaluation: a random subinterval, degenerate ones,
    ends on breakpoints and the whole domain. A rational end outside the
    domain is refused, and float ends keep the generic path through eval."""
    bps = m.breakpoints
    point = st.one_of(st.sampled_from(bps), st.fractions(0, 1, max_denominator=10**6))
    a, b = sorted(data.draw(st.lists(point, min_size=2, max_size=2)))
    i, j = sorted(data.draw(st.lists(st.integers(0, len(bps) - 1), min_size=2, max_size=2)))
    cases = [(a, b), (a, a), (bps[i], bps[j]), (bps[0], bps[-1]), *((x, x) for x in bps)]
    for lo, hi in cases:
        image = m.image(Interval(lo, hi))
        assert typed(image.lo, image.hi) == typed(*ref_image(m, lo, hi, lambda x: ref_eval(m, x)))
        lo, hi = float(lo), float(hi)
        image = m.image(Interval(lo, hi))
        assert typed(image.lo, image.hi) == typed(*ref_image(m, lo, hi, m.eval))
    for outside in (Interval(-F(1, 10**9), b), Interval(a, 1 + F(1, 10**9))):
        with pytest.raises(ValueError, match="outside domain"):
            m.image(outside)
