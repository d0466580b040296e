"""Fractions made only where a result is returned, from reduced int pairs.

kernel._fraction builds a Fraction from a reduced pair without
Fraction.__new__. The first test checks that it builds the Fraction that
Fraction(n, d) builds; it needs neither pytest nor hypothesis, so it runs
under every interpreter the package supports:

    PYTHONPATH=src:tests python -c "import test_fractions as t; t.test_fraction_from_reduced_pair()"

The others count Fraction.__new__ calls, so that a Fraction per periodic
point or per mixing seed cannot come back unnoticed.
"""

import math
import random
from fractions import Fraction

from intervalmaps import verify_mixing
from intervalmaps.kernel import _fraction, as_scalar, scalar_to_str


def _reduced_pairs(count, seed=15):
    """(num, den) in lowest terms with den > 0: signs, den 1, and ints from
    one bit to past 2^64."""
    rng = random.Random(seed)
    pairs = [(0, 1), (1, 1), (-1, 1), (2**64 + 1, 1), (-(2**64) - 3, 1), (1, 2**64 + 1)]
    while len(pairs) < count:
        num = rng.getrandbits(rng.choice((1, 8, 63, 64, 65, 200))) * rng.choice((1, -1))
        den = rng.getrandbits(rng.choice((1, 8, 63, 64, 65, 200))) or 1
        g = math.gcd(num, den)
        pairs.append((num // g, den // g))
    return pairs


def test_fraction_from_reduced_pair():
    for n, d in _reduced_pairs(500):
        x, ref = _fraction(n, d), Fraction(n, d)
        assert type(x) is Fraction
        assert (x.numerator, x.denominator) == (n, d)
        assert x == ref and hash(x) == hash(ref)
        assert str(x) == str(ref) and repr(x) == repr(ref)
        assert scalar_to_str(x) == scalar_to_str(ref)
        assert as_scalar(x) is x
        assert x + ref == 2 * ref and x - ref == 0 and -x == -ref
        assert x * Fraction(3, 7) == ref * Fraction(3, 7) and abs(x) == abs(ref)
        assert x < ref + 1 and x >= ref and float(x) == float(ref)
        if n:
            assert 1 / x == 1 / ref


def _count_fraction_new(monkeypatch):
    """A list that gets one entry per Fraction.__new__ call from now on."""
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


def test_recorded_periodic_points_make_no_fraction(f52, monkeypatch):
    """With f^11 already recorded, the exact witnesses of every q <= 11 are
    made from the record's int pairs without Fraction.__new__."""
    m = f52.map
    before = {q: m.periodic_points(q) for q in range(1, 12)}
    calls = _count_fraction_new(monkeypatch)
    after = {q: m.periodic_points(q) for q in range(1, 12)}
    assert calls == []
    assert after == before
    assert all(type(x) is Fraction for pts in after.values() for x, _ in pts)


def test_mixing_seeds_make_no_fraction_per_seed(f52, monkeypatch):
    """Exact seeds are laid out in ints, so the Fractions a check makes do not
    grow with the grid."""
    m, width = f52.map, Fraction(1, 1024)
    verify_mixing(m, width, 1, 200)  # the map's cached slopes and engine
    calls = _count_fraction_new(monkeypatch)
    made = {}
    for grid in (8, 64):
        calls.clear()
        report = verify_mixing(m, width, grid, 200)
        made[grid] = len(calls)
        assert report.all_covered
    assert made[8] == made[64]
