"""The branch engine against an independent reference, under any call order.

The reference below is the plain slope/offset refinement in ``Fraction``s: it
rebuilds f^q from f for every q, solves each branch's fixed point from its
affine formula, and finds least periods by walking the orbit with
``oracles.ref_eval``. It uses nothing
from ``intervalmaps.plmap`` but the map's breakpoints and values.

Rational lap and branch counts come from the interval graph, not the branch
engine, so random exact maps check the two against each other as well. The
engine builds f^(n+1) by pullback; ref_refine builds it the other way, by
cutting the branches of f^n, on the same integer lattice.
"""

import gc
import math
import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from types import FrameType, TracebackType

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
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
from intervalmaps.document import load_document
from intervalmaps.kernel import FLOAT_TOL
from intervalmaps.plmap import (
    _ExactEngine,
    _ExactIterate,
    _FloatEngine,
    _FloatIterate,
    _IdentityBranch,
)
from oracles import exact_fixed_points, ref_eval, ref_image
from test_analysis import RATIONAL_DOCS

F = Fraction


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


def assert_pass_at_record(m):
    """The pass's last iterate is the last one it recorded."""
    e = m._engine
    assert e.last.n == len(e.counts) == len(e.fixed)


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
        assert_pass_at_record(m)

    def test_repeated_q(self, maps, expected):
        m = fresh(maps["f52"])
        for q in (6, 6, 7, 7):
            assert m.periodic_points(q) == expected[0][q]
        assert_pass_at_record(m)

    def test_lap_growth_between_periodic_points(self, maps, expected):
        m = fresh(maps["f52"])
        points, laps = expected
        for q in range(1, 5):
            assert m.periodic_points(q) == points[q]
        assert m.lap_growth(12) == laps
        for q in range(5, 10):
            assert m.periodic_points(q) == points[q]
        assert m.lap_growth(7) == laps[:7]
        assert_pass_at_record(m)

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
        assert_pass_at_record(m)

    def test_behind_the_pass(self, maps, expected):
        """The pass only goes forward: an iterate behind it is refused before
        any cap check, and its fixed points are still read from the record."""
        m = fresh(maps["f52"])
        assert m.periodic_points(5) == expected[0][5]
        with pytest.raises(ValueError, match=r"^f\^2 is behind the branch pass, which is at f\^5$"):
            m.branches_of_iterate(2, branch_cap=1)
        assert m.periodic_points(2) == expected[0][2]
        assert m._engine.last.n == 5
        assert_pass_at_record(m)

    def test_first_iterate_built_once(self, maps, expected, monkeypatch):
        """Under every call order above, and after a refused request behind
        the pass, the pass has built f^1 once."""
        calls = []
        first = _ExactEngine.first
        monkeypatch.setattr(_ExactEngine, "first", lambda e: calls.append(e) or first(e))
        m = fresh(maps["f52"])
        points, laps = expected
        for q in (9, 1, 6, 6, 3, 9):
            assert m.periodic_points(q) == points[q]
        assert m.lap_growth(12) == laps
        with pytest.raises(BranchBudgetError):
            m.periodic_points(9, branch_cap=100)
        assert m.branches_of_iterate(9).n == 9
        with pytest.raises(ValueError):
            m.branches_of_iterate(2)
        assert calls == [m._engine]


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
    for call in (m.lap_growth, m.periodic_points, m.branches_of_iterate):
        with pytest.raises(BranchBudgetError) as err:
            call(12, branch_cap=cap)
        assert err.value.completed_n == 4
        assert str(err.value) == f"branch budget {cap} exceeded; largest completed iterate n=4"
    assert m.lap_growth(4, branch_cap=cap) == [4, 7, 17, 30]
    assert m._engine.last.n == (6 if prelude == "periodic points" else 4)
    assert_pass_at_record(m)


def test_budget_error_at_first_iterate(f32):
    """f32 has 4 branches, so a cap of 3 stops before f^1 in every call; the
    pass has recorded f^1 all the same and reads it under a larger cap."""
    m = fresh(f32.map)
    for call in (m.lap_growth, m.periodic_points, m.branches_of_iterate):
        with pytest.raises(BranchBudgetError) as err:
            call(3, branch_cap=3)
        assert str(err.value) == "branch budget 3 exceeded; largest completed iterate n=0"
    assert m.periodic_points(1) == [(F(1, 3), 1)]
    assert_pass_at_record(m)


def test_branch_counts(f32):
    m = fresh(f32.map)
    assert [len(m.branches_of_iterate(q)) for q in (1, 4, 5)] == [4, 30, 67]


def test_inexact_cut_is_caught(f52, monkeypatch):
    """The engine makes its preimage factors c_j = R*L/A_j once, when it is
    made, and checks each is an integer."""
    m = fresh(f52.map)
    # wrong common denominator L = 1: f52's slopes are +-2, so c_j = 1/2
    monkeypatch.setattr(math, "lcm", lambda *ints: 1)
    with pytest.raises(ArithmeticError, match="not a multiple"):
        m.branches_of_iterate(4)


def branch_laps(branches):
    """Direction runs of an iterate's branches (the branch engine's laps)."""
    rising = [u < w for u, w in zip(branches.ys, branches.ys[1:])]
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


def ref_refine(e, it):
    """f^(n+1) from f^n on the engine e's lattice, the other way round from
    its pullback: cut each branch of f^n where f^n crosses a breakpoint of f,
    at an exact integer division, and map each end of f^n by f."""
    L, R, A = e.L, e.R, e.A
    scale = R ** (it.n - 1)
    bs = [b * scale for b in e.B]  # breakpoints over Y_n
    vs = [v * scale * R for v in e.V]  # their values over Y_(n+1)
    head = bs[:-1]  # so that the domain's right end lies in the last piece
    pieces = [bisect_right(head, y) - 1 for y in it.ys]
    fys = [vs[j] + A[j] * (y - bs[j]) for y, j in zip(it.ys, pieces)]
    x0 = it.xs[0] * L
    xs, ys = [x0], [fys[0]]
    for U, W, j, k, x1, fy in zip(it.ys, it.ys[1:], pieces, pieces[1:], it.xs[1:], fys[1:]):
        x1 *= L
        if U < W:
            cut_at = range(j + 1, bisect_left(bs, W))
        else:
            cut_at = range(bisect_left(bs, U) - 1, k, -1)
        for i in cut_at:  # the breakpoints strictly inside the branch's image
            step, rem = divmod((x1 - x0) * (bs[i] - U), W - U)
            assert rem == 0
            xs.append(x0 + step)
            ys.append(vs[i])
        xs.append(x1)
        ys.append(fy)
        x0 = x1
    return _ExactIterate(it.n + 1, xs, ys)


def assert_pullback_matches_cuts(m, n_max, most=None):
    """f^1..f^n_max of the pass against ref_refine, and the Fix(f^n) the
    pass records against that of the cut iterate; stops after the first
    iterate with more than most branches."""
    e = m._engine
    ref = e.first()
    for n in range(1, n_max + 1):
        it = m.branches_of_iterate(n)
        assert (it.n, it.xs, it.ys) == (ref.n, ref.xs, ref.ys), n
        assert e.fixed[n - 1] == e.fixed_points(ref), n
        if most is not None and len(it) > most:
            break
        ref = ref_refine(e, ref)


@pytest.fixture(scope="module")
def pullback_maps(maps):
    return {
        "f5_17/10": maps["f5_17/10"],
        "f7_19/10": odd_type_map(7, F(19, 10)).map,
        "f3_5/2": odd_type_map(3, F(5, 2)).map,
        "f3_3": odd_type_map(3, F(3)).map,
        "sqrt_sqrt52": maps["sqrt_sqrt52"],
    }


@pytest.mark.parametrize("name", ["f5_17/10", "f7_19/10", "f3_5/2", "f3_3", "sqrt_sqrt52"])
def test_pullback_matches_cuts(pullback_maps, name):
    """Slopes 17/10, 19/10, 5/2 and 3, and the double square root (L = 266,
    R = 24), up to n = 12 or the first f^n past 30,000 branches."""
    assert_pullback_matches_cuts(fresh(pullback_maps[name]), 12, most=30_000)


def test_both_integer_slope_sides_covered(pullback_maps):
    """refine maps the ends of a piece with c = R*L/A_j = +-1 by one add and
    any other c by a multiply-add, and fixed_points skips the rescaling of
    the ends when R = 1: test_pullback_matches_cuts runs pieces of both
    kinds (slope 3 against 17/10), and test_scan_matches_two_passes maps of
    both kinds (slope 2 against 17/10)."""
    multipliers = set()
    for m in pullback_maps.values():
        e = m._engine
        multipliers |= {abs(e.R * e.L // a) for a in e.A}
    assert 1 in multipliers and max(multipliers) > 1
    scales = {load_document(str(path)).map._engine.R for path in RATIONAL_DOCS}
    assert 1 in scales and max(scales) > 1


@ENGINES_AGREE
@given(exact_maps())
def test_pullback_matches_cuts_on_random_maps(m):
    """The same on random maps, for n <= 10 while f^n has at most 3000
    branches."""
    counts = m._hits(m.breakpoints[1:-1], 10)
    assert_pullback_matches_cuts(m, max(n for n in range(1, 11) if counts[n - 1] <= 3000))


def assert_scan_matches_two_passes(m, most=None):
    """Fix(f^n) as the pass records it against oracles.exact_fixed_points,
    the two-pass scan, on the same iterate, for n <= 10; stops after the
    first iterate with more than most branches."""
    e = m._engine
    for n in range(1, 11):
        it = m.branches_of_iterate(n)
        assert e.fixed[n - 1] == exact_fixed_points(e, it), n
        if most is not None and len(it) > most:
            break


@pytest.mark.parametrize("path", RATIONAL_DOCS, ids=lambda path: path.stem)
def test_scan_matches_two_passes(path):
    assert_scan_matches_two_passes(load_document(str(path)).map)


@st.composite
def exact_maps_fixing_breakpoints(draw):
    """exact_maps with a drawn set of breakpoints, maybe none, moved onto
    the diagonal: f^n(x) - x is then zero at some branch ends, and two
    neighbouring ones make a piece on which f is the identity."""
    m = draw(exact_maps())
    bps = m.breakpoints
    fixed = draw(st.sets(st.integers(0, len(bps) - 1)))
    values = tuple(b if k in fixed else v for k, (b, v) in enumerate(zip(bps, m.values)))
    assume(all(a != b for a, b in zip(values, values[1:])))
    return PLMap(bps, values)


@ENGINES_AGREE
@given(exact_maps_fixing_breakpoints())
# x -> 1 - x with a breakpoint at 1/2 (test_identity_itinerary_crosses_pieces):
# f^2 is the identity on its first branch
@example(PLMap((F(0), F(1, 2), F(1)), (F(1), F(1, 2), F(0))))
def test_scan_matches_two_passes_on_random_maps(m):
    """The same on random maps, for n <= 10 while f^n has at most 3000
    branches."""
    assert_scan_matches_two_passes(m, most=3000)


def completed_n(call, n, cap):
    """The completed_n of the BranchBudgetError that call(n) raises, or None."""
    try:
        call(n, branch_cap=cap)
    except BranchBudgetError as err:
        return err.completed_n
    except FixedPointContinuumError:
        pass  # raised after the cap check passed
    return None


@ENGINES_AGREE
@given(exact_maps(), st.integers(1, 8), st.integers(1, 400))
def test_budget_errors_agree(m, n, cap):
    """lap_growth, periodic_points and branches_of_iterate overrun the same
    cap at the same n, and the completed prefix is within the cap."""
    done = completed_n(m.lap_growth, n, cap)
    assert completed_n(m.periodic_points, n, cap) == done
    assert completed_n(m.branches_of_iterate, n, cap) == done
    if done:
        assert m.lap_growth(done, branch_cap=cap) == m.lap_growth(n)[:done]


def test_deep_lap_growth(maps):
    m = fresh(maps["sqrt_sqrt52"])
    start = time.perf_counter()
    laps = m.lap_growth(60, branch_cap=10**30)
    assert time.perf_counter() - start < 0.1
    assert laps[:14] == [branch_laps(m.branches_of_iterate(n)) for n in range(1, 15)]


def ref_hits(m, cuts, n_max):
    """The interval graph of PLMap._hits in plain Fractions: 1 + the number of
    points of the open domain whose orbit meets cuts within n steps, for
    n = 1..n_max. A node is an open interval (u, v), its children are the
    images of its pieces between the cuts inside it, and equal intervals share
    a node; C_k(x) = |cuts in x| + the sum of C_(k-1) over x's children."""
    root = (m.breakpoints[0], m.breakpoints[-1])
    nodes, index = [root], {root: 0}
    direct, kids, found = [], [], []
    for depth in range(n_max):
        start = found[-1] if found else 0
        found.append(len(nodes))
        for u, v in nodes[start:]:
            inside = [c for c in cuts if u < c < v]
            direct.append(len(inside))
            if depth == n_max - 1:
                continue
            ys = [ref_eval(m, x) for x in (u, *inside, v)]
            children = []
            for a, b in zip(ys, ys[1:]):
                key = (min(a, b), max(a, b))
                if key not in index:
                    index[key] = len(nodes)
                    nodes.append(key)
                children.append(index[key])
            kids.append(children)
    totals, out = direct, [1 + direct[0]]
    for k in range(2, n_max + 1):
        totals = [direct[x] + sum(totals[c] for c in kids[x])
                  for x in range(found[n_max - k])]
        out.append(1 + totals[0])
    return out


def cut_sets(m):
    """All interior breakpoints, and the turning points alone."""
    inner = m.breakpoints[1:-1]
    rising = [s > 0 for s in m.slopes]
    return inner, tuple(b for b, u, w in zip(inner, rising, rising[1:]) if u != w)


@ENGINES_AGREE
@given(exact_maps(), st.integers(1, 12))
def test_lattice_graph_matches_fraction_graph(m, n):
    """_hits on the integer lattice against the Fraction graph, for both cut
    sets, on maps whose slopes have denominators (so R > 1)."""
    for cuts in cut_sets(m):
        assert m._hits(cuts, n) == ref_hits(m, cuts, n)


@pytest.fixture(scope="module")
def deep_maps(maps):
    return {
        "f5_17/10": maps["f5_17/10"],
        "f7_19/10": odd_type_map(7, F(19, 10)).map,
        "f3_5/2": odd_type_map(3, F(5, 2)).map,
        "f52": maps["f52"],
        "sqrt_sqrt52": maps["sqrt_sqrt52"],
    }


@pytest.mark.parametrize("name", ["f5_17/10", "f7_19/10", "f3_5/2", "f52", "sqrt_sqrt52"])
@pytest.mark.parametrize("n", [20, 40, 60])
def test_deep_lattice_graph_matches_fraction_graph(deep_maps, name, n):
    m = fresh(deep_maps[name])
    inner, turning = cut_sets(m)
    assert m._hits(inner, n) == ref_hits(m, inner, n)
    assert m.lap_growth(n, branch_cap=10**30) == ref_hits(m, turning, n)


def test_off_lattice_node_end_is_caught(maps):
    """_hits steps node ends with the engine's own A and R, so a node end
    off the lattice comes from a cut that is no breakpoint: 1/3 lies off
    the scale D*R^7 of f5_17/10 (D = 1670420, R = 10), and f of it is no
    multiple of 1/S."""
    m = fresh(maps["f5_17/10"])
    with pytest.raises(ArithmeticError, match="not a multiple"):
        m._hits((F(1, 3),), 8)


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
        assert done >= 1
        assert m.periodic_points(13) == points[13]
        # f^13 is recorded now: the same cap fails at the same n in every call
        for call in (m.periodic_points, m.lap_growth, m.branches_of_iterate):
            with pytest.raises(BranchBudgetError) as again:
                call(13, branch_cap=100)
            assert again.value.completed_n == done
        assert m.lap_growth(done, branch_cap=100) == laps[:done]
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


@pytest.mark.parametrize("m, message", [
    (PLMap((Fraction(0), Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(1, 2), Fraction(0))),
     r"f\^2 is the identity on \[0, 1/2\] \(itinerary \(0, 1\)\)"),
    (PLMap((0.0, 0.5, 1.0), (1.0, 0.5, 0.0)),
     r"f\^2 is the identity on \[0.0, 0.5\] \(itinerary \(0, 1\)\)"),
], ids=["exact", "float"])
def test_identity_itinerary_crosses_pieces(m, message):
    """x -> 1 - x with a breakpoint at 1/2: the orbit of 1/4 visits both
    pieces, so the itinerary in the error names each of them."""
    assert m.periodic_points(1) == [(m.breakpoints[1], 1)]
    with pytest.raises(FixedPointContinuumError, match=f"^{message}$"):
        m.periodic_points(2)


def test_recorded_identity_keeps_no_iterate():
    """An identity hit is recorded as the ends of its branch alone, so the
    record keeps no iterate alive for the life of the map."""
    m = PLMap((0.0, 1.0), (1.0, 0.0))
    m.lap_growth(6)
    hits = [fix for fix in m._engine.fixed if isinstance(fix, _IdentityBranch)]
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
    fixed = [x for fix in m._engine.fixed if not isinstance(fix, _IdentityBranch) for x in fix]
    points = [*m.breakpoints, *m.values, *fixed, -draw(NEAR), 1 + draw(NEAR),
              *draw(st.lists(UNIT_FLOAT, max_size=5))]
    return m, points


def eval_loop_return_time(m, x, n):
    """A return time as a plain loop over the generic PLMap.eval."""
    y = x
    for j in range(1, n + 1):
        y = m.eval(y)
        if abs(y - x) <= m.tol:
            return j
    return None


def assert_return_times_match(m, points, outside):
    for x in points:
        assert m.return_times((x,), 6)[0] == eval_loop_return_time(m, x, 6), x
    for x in outside:
        with pytest.raises(ValueError, match="outside domain"):
            m.return_times((x,), 6)[0]


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


@ENGINES_AGREE
@given(exact_maps(), st.lists(UNIT, max_size=5), st.integers(0, 8))
def test_return_times_match_one_walk_per_point(m, interior, n):
    """return_times walks each cycle once, and a walk past a point settles
    it: the same times as return_times one point at a time, on breakpoints,
    values, their images, periodic points of f^1..f^4 and floats."""
    m.branches_of_iterate(4)
    fixed = [F(*x) for fix in m._engine.fixed if isinstance(fix, list) for x in fix]
    points = [*m.breakpoints, *m.values, *map(m.eval, m.values), *fixed, *interior, 0.5]
    assert m.return_times(points, n) == [m.return_times((x,), n)[0] for x in points]
    assert m.return_times(points, n) == [eval_loop_return_time(m, x, n) for x in points]


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


@pytest.mark.parametrize("path", RATIONAL_DOCS, ids=lambda path: path.stem)
def test_engine_image_matches_plmap_image(path):
    """The two image paths: _ExactEngine.image on int keys, which exact
    mixing traces iterate, against PLMap.image through eval, on random
    exact subintervals (some ending on breakpoints) of a fixture map."""
    m = load_document(str(path)).map
    bps = m.breakpoints
    lo, width = bps[0], bps[-1] - bps[0]
    rng = random.Random(path.stem)

    def draw():
        if rng.random() < 0.3:
            return rng.choice(bps)
        return lo + width * F(rng.randrange(10**6 + 1), 10**6)

    for _ in range(60):
        a, b = sorted((draw(), draw()))
        image = m.image(Interval(a, b))
        key = (a.numerator, a.denominator, b.numerator, b.denominator)
        assert m._engine.image(key) == (
            image.lo.numerator, image.lo.denominator, image.hi.numerator, image.hi.denominator
        )
