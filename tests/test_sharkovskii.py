import pytest

from intervalmaps import TWO_INF, expected_period_set
from intervalmaps.sharkovskii import sharkovskii_le

UNIVERSE = list(range(1, 65)) + [TWO_INF]


def test_order_examples():
    assert sharkovskii_le(3, 5)
    assert sharkovskii_le(5, 7) and sharkovskii_le(7, 9)
    assert sharkovskii_le(9, 2 * 3)
    assert sharkovskii_le(2 * 3, 2 * 5)
    assert sharkovskii_le(12, 8)  # 2^2*3 before 2^3
    assert sharkovskii_le(4, 2) and sharkovskii_le(2, 1)
    for n in UNIVERSE:
        assert sharkovskii_le(n, 1)


def test_two_inf_position():
    # after every 2^e * odd, before every finite power of two
    assert sharkovskii_le(48, TWO_INF)   # 16*3
    assert sharkovskii_le(3, TWO_INF)
    assert sharkovskii_le(TWO_INF, 64)
    assert sharkovskii_le(TWO_INF, 1)
    assert not sharkovskii_le(2, TWO_INF)


def test_totality_and_antisymmetry():
    for a in UNIVERSE:
        for b in UNIVERSE:
            if a == b:
                assert sharkovskii_le(a, b) and sharkovskii_le(b, a)
            else:
                assert sharkovskii_le(a, b) != sharkovskii_le(b, a)


def test_transitivity():
    import random

    rng = random.Random(7)
    for _ in range(20000):
        a, b, c = (rng.choice(UNIVERSE) for _ in range(3))
        if sharkovskii_le(a, b) and sharkovskii_le(b, c):
            assert sharkovskii_le(a, c)


def test_rejects_bad_values():
    for bad in (0, -1, 1.5, "nope"):
        with pytest.raises(ValueError):
            sharkovskii_le(bad, 1)


def test_expected_sets():
    assert expected_period_set(5, 13) == {1, 2, 4, 6, 8, 10, 12, 5, 7, 9, 11, 13}
    assert expected_period_set(6, 12) == {1, 2, 4, 6, 8, 10, 12}
    assert expected_period_set(TWO_INF, 20) == {1, 2, 4, 8, 16}
    assert expected_period_set(3, 6) == {1, 2, 3, 4, 5, 6}


def test_expected_set_matches_closed_form():
    # for type 2^d p the set is {2^e} + {2^e q : q odd >= 3, e > d} + {2^d q : q odd >= p}
    q_max = 64
    for p in (3, 5, 7):
        for d in (0, 1, 2):
            type_n = (2 ** d) * p
            closed = set()
            for m in range(1, q_max + 1):
                e = (m & -m).bit_length() - 1
                odd = m >> e
                if odd == 1:
                    closed.add(m)
                elif e > d or (e == d and odd >= p):
                    closed.add(m)
            assert expected_period_set(type_n, q_max) == closed


def test_expected_set_up_closed():
    for type_n in (3, 5, 6, 12, TWO_INF):
        periods = expected_period_set(type_n, 40)
        for m in periods:
            for m2 in range(1, 41):
                if sharkovskii_le(m, m2):
                    assert m2 in periods


def test_q_max_validation():
    with pytest.raises(ValueError):
        expected_period_set(3, 0)
