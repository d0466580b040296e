"""The floating branch pass against its reference loop, bit for bit.

Lap counts, sweep rows and least periods in floating mode depend on every
rounding of the pass, so the engine must give the same binary64 results as
the plain loops in tests/oracles.py: every iterate's lo, hi, slope and
offset, every recorded Fix(f^n), every periodic_points(q) and every error.
Floats are compared by float.hex, which tells -0.0 from 0.0 where == does not.
"""

from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from intervalmaps import (
    BranchBudgetError,
    ConstructionParams,
    FixedPointContinuumError,
    OrbitNotClosedError,
    PLMap,
    odd_type_map,
    orbit_and_t,
    parse_slope_text,
    square_root,
)
from intervalmaps.cli import main
from intervalmaps.document import document_for
from intervalmaps.kernel import FLOAT_TOL
from intervalmaps.plmap import _IdentityBranch
from oracles import (
    eval_by_index,
    float_first,
    float_fixed_points,
    float_periodic_points,
    float_refine,
    left_to_right_orbit_and_t,
)
from test_engine import FLOAT_PINS

N_MAX = 10
CAP = 20_000  # keeps random maps small; the cap error is compared too


def bits(xs):
    return [float.hex(x) for x in xs]


def fix_bits(fix):
    if isinstance(fix, _IdentityBranch):
        return "identity", bits(fix)
    return bits(fix)


class Raised(NamedTuple):
    kind: type
    message: str


def outcome(call, *args):
    """The result of call(*args), or what it raised."""
    try:
        return call(*args)
    except (BranchBudgetError, FixedPointContinuumError, OrbitNotClosedError) as exc:
        return Raised(type(exc), str(exc))


def assert_pass_matches_reference(m, n_max=N_MAX, cap=CAP):
    """f^1..f^n_max and their Fix(f^n) against float_refine and
    float_fixed_points, then periodic_points(q) for every q the pass built
    against float_periodic_points; a cap error must come at the same n with
    the same message."""
    assert not m.is_exact
    ref = float_first(m)
    fixed = []
    for n in range(1, n_max + 1):
        if n > 1:
            ref = outcome(float_refine, m, ref, cap)
        it = outcome(m.branches_of_iterate, n, cap)
        if isinstance(ref, Raised):
            assert it == ref, n
            break
        assert it.n == ref.n == n
        for name in ("lo", "hi", "slope", "offset"):
            assert bits(getattr(it, name)) == bits(getattr(ref, name)), (n, name)
        fixed.append(float_fixed_points(ref))
        assert fix_bits(m._engine.fixed[n - 1]) == fix_bits(fixed[-1]), n
    for q, fix in enumerate(fixed, 1):
        got = outcome(m.periodic_points, q, cap)
        if isinstance(fix, _IdentityBranch):
            assert isinstance(got, Raised) and got.kind is FixedPointContinuumError, q
            continue
        want = outcome(float_periodic_points, m, fix, q)
        if isinstance(want, Raised):
            assert got == want, q
        else:
            assert [(float.hex(x), j) for x, j in got] == [
                (float.hex(x), j) for x, j in want
            ], q


SWEEP_CELLS = [
    (p, d, lam) for p in (3, 5, 7, 9, 11) for d in (0, 1, 2) for lam in ("lambda_p", "1.7", "1.9")
]


@pytest.mark.parametrize("p, d, lam", SWEEP_CELLS)
def test_sweep_maps_match_reference(p, d, lam):
    """The 45 maps of the floating benchmark sweep, built as sweep builds them."""
    m = document_for(ConstructionParams(p, d, parse_slope_text(lam, p))).map
    assert_pass_matches_reference(m)


@pytest.mark.parametrize("p, d, lam", sorted(FLOAT_PINS))
def test_pinned_maps_match_reference(p, d, lam):
    m = odd_type_map(p, parse_slope_text(lam, p)).map
    for _ in range(d):
        m = square_root(m)
    assert_pass_matches_reference(m)


# multiples of 1/64 give slopes of exactly +-1, so identity and translation
# branches; arbitrary floats give everything else
COORD = st.one_of(st.integers(0, 64).map(lambda k: k / 64), st.floats(0, 1))


@st.composite
def float_maps(draw):
    """A binary64 self-map of [0, 1] with 1 to 5 pieces."""
    pieces = draw(st.integers(1, 5))
    inner = sorted(draw(st.lists(COORD.filter(lambda x: 0 < x < 1), min_size=pieces - 1,
                                 max_size=pieces - 1, unique=True)))
    bps = (0.0, *inner, 1.0)
    # pieces at least 1/1000 wide keep every slope finite
    assume(all(b - a >= 1e-3 for a, b in zip(bps, bps[1:])))
    values = draw(st.lists(COORD, min_size=pieces + 1, max_size=pieces + 1))
    assume(all(a != b for a, b in zip(values, values[1:])))
    return PLMap(bps, tuple(values))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(float_maps())
def test_random_maps_match_reference(m):
    assert_pass_matches_reference(m)


def test_identity_and_translation_branches_match_reference():
    """x -> 1 - x (f^2 is the identity) and a map with a translation piece."""
    assert_pass_matches_reference(PLMap((0.0, 1.0), (1.0, 0.0)))
    assert_pass_matches_reference(PLMap((0.0, 0.25, 1.0), (0.5, 0.75, 0.0)))


# ---------------------------------------------------------------- eval


def eval_points(m):
    """Every breakpoint (the right end among them), the midpoint and two
    off-centre points of every piece, and the points FLOAT_TOL/2 outside
    each end, which eval clamps."""
    bps = m.breakpoints
    inner = [
        x for a, b in zip(bps, bps[1:]) for x in ((a + b) / 2, a + (b - a) / 3, b - (b - a) / 7)
    ]
    return [*bps, *inner, bps[0] - FLOAT_TOL / 2, bps[-1] + FLOAT_TOL / 2]


def assert_eval_matches_reference(m, xs):
    assert [float.hex(m.eval(x)) for x in xs] == [float.hex(eval_by_index(m, x)) for x in xs]


@pytest.mark.parametrize("p, d, lam", SWEEP_CELLS)
def test_sweep_maps_eval_matches_reference(p, d, lam):
    m = document_for(ConstructionParams(p, d, parse_slope_text(lam, p))).map
    assert_eval_matches_reference(m, eval_points(m))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(float_maps(), st.lists(st.floats(-FLOAT_TOL / 2, 1 + FLOAT_TOL / 2), max_size=20))
def test_random_maps_eval_matches_reference(m, xs):
    assert_eval_matches_reference(m, [*eval_points(m), *xs])


# ---------------------------------------------------------------- closure guard

OPEN_ORBIT = "point 0.05817152821456102 failed to close up after 10 steps"


def test_open_orbit_raises():
    """At slope 3.7 round-off grows faster along an orbit than FLOAT_TOL
    allows, so a fixed point of f^10 does not return."""
    with pytest.raises(OrbitNotClosedError, match=f"^{OPEN_ORBIT}$"):
        odd_type_map(5, 3.7).map.periodic_points(10)


def test_analyze_reports_open_orbit(tmp_path, capsys):
    path = tmp_path / "steep.json"
    assert main(["construct", "--p", "5", "--lambda", "3.7", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(path), "--type", "10"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {OPEN_ORBIT}"


# ---------------------------------------------------------------- orbit sums

ORBIT_CELLS = [(p, s) for p in range(11, 30, 2) for s in (1.7, 1.9, 2.3, 3.1)]


@pytest.mark.parametrize("p, s", ORBIT_CELLS)
def test_orbit_sums_run_left_to_right(p, s):
    """Float orbit points and t equal the left-to-right sums on every Python;
    the compensated sum() of Python 3.12 differs on 37 of these 40 pairs."""
    xs, t = orbit_and_t(p, s)
    want_xs, want_t = left_to_right_orbit_and_t(p, s)
    assert bits(xs) == bits(want_xs)
    assert float.hex(t) == float.hex(want_t)
