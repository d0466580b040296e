"""Fractions made only where a result is returned, from reduced int pairs.

kernel._fraction builds a Fraction from a reduced pair without
Fraction.__new__, and kernel._fractions a list of them in one loop. The first
two tests check that they build the Fraction that Fraction(n, d) builds; they
need neither pytest nor hypothesis, so they run under every interpreter the
package supports:

    PYTHONPATH=src:tests python -c "import test_fractions as t; t.test_fraction_from_reduced_pair(); t.test_fractions_from_reduced_pairs()"

The others count Fraction.__new__ calls, so that a Fraction per periodic
point or per mixing seed cannot come back unnoticed, and the last counts
Fraction arithmetic too: loading a rational document and estimating its
entropy run on the int lattice, with none.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from intervalmaps import estimate_entropy, verify_mixing
from intervalmaps.document import load_document
from intervalmaps.kernel import _fraction, _fractions, as_scalar, scalar_to_str


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


def test_fractions_from_reduced_pairs():
    pairs = _reduced_pairs(500)
    xs = _fractions(pairs)
    assert len(xs) == len(pairs)
    for x, (n, d) in zip(xs, pairs):
        ref = Fraction(n, d)
        assert type(x) is Fraction
        assert (x.numerator, x.denominator) == (n, d)
        assert x == ref and hash(x) == hash(ref) and str(x) == str(ref)
    assert _fractions(iter(pairs)) == xs and _fractions([]) == []


def _count_fraction_new(monkeypatch):
    """A list that gets one entry per Fraction.__new__ call from now on."""
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def _count_fraction_work(monkeypatch):
    """_count_fraction_new's list, which also gets one (name, args) entry per
    Fraction + - * / call from now on."""
    calls = _count_fraction_new(monkeypatch)

    def counting(name, op):
        def counted(*args):
            calls.append((name, args))
            return op(*args)
        return counted

    for name in ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    return calls


def test_load_and_entropy_make_no_fraction_work(monkeypatch):
    """From the document text to the lap counts an exact map is ints: on
    every rational fixture the load (with its re-verified params and
    markers) and the entropy estimate make no Fraction with Fraction.__new__
    and do no Fraction arithmetic."""
    paths = sorted((Path(__file__).parent / "data").glob("map_*.json"))
    rational = [p for p in paths if json.loads(p.read_text())["params"]["mode"] == "rational"]
    assert len(rational) == 13
    calls = _count_fraction_work(monkeypatch)
    made = {}
    for path in rational:
        calls.clear()
        doc = load_document(str(path))
        loading = len(calls)
        est = estimate_entropy(doc.map, 8)
        made[path.stem] = (loading, len(calls) - loading)
        assert doc.map.is_exact and len(est.laps) == 8
    assert made == dict.fromkeys(made, (0, 0))


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
