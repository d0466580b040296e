from fractions import Fraction

import pytest

from intervalmaps import odd_type_map, square_root, stefan_map


@pytest.fixture(scope="session")
def f32():
    return odd_type_map(3, Fraction(2))


@pytest.fixture(scope="session")
def f52():
    return odd_type_map(5, Fraction(2))


@pytest.fixture(scope="session")
def f72():
    return odd_type_map(7, Fraction(2))


@pytest.fixture(scope="session")
def sqrt32(f32):
    """Square root of the type-3 slope-2 map, rescaled to [0, 1]."""
    return square_root(f32.map)


@pytest.fixture(scope="session")
def sqrt52(f52):
    """Square root of the type-5 slope-2 map, rescaled to [0, 1]."""
    return square_root(f52.map)


@pytest.fixture(scope="session")
def stefan5():
    return stefan_map(5)
