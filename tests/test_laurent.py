from fractions import Fraction

import pytest

from helpers import LaurentSeries


def test_term_and_basic_arithmetic():
    a = LaurentSeries.term(Fraction(1, 2), 0)
    b = LaurentSeries.term(3, 1)
    s = a + b
    assert s[0] == Fraction(1, 2) and s[1] == 3
    assert (s - b) == a
    assert -b == LaurentSeries.term(-3, 1)


def test_multiplication_and_scalars():
    a = LaurentSeries({0: 1, 1: 2})
    b = LaurentSeries({1: 1})
    assert a * b == LaurentSeries({1: 1, 2: 2})
    assert 2 * a == LaurentSeries({0: 2, 1: 4})
    assert a * Fraction(1, 2) == LaurentSeries({0: Fraction(1, 2), 1: 1})
    assert a / 2 == a * Fraction(1, 2)
    assert (a + 0) == a and (0 + a) == a


def test_negative_powers_are_polynomials_in_n():
    # n(n-1) = n^2 - n
    p = LaurentSeries({-2: 1, -1: -1})
    assert LaurentSeries({-1: 1}) * LaurentSeries({-1: 1, 0: -1}) == p
    assert p.leading_order() == -2


def test_truncation_propagates_and_drops():
    a = LaurentSeries({0: 1, 3: 5}, p_max=2)
    assert a[3] == 0
    b = LaurentSeries({1: 1})
    prod = a * b
    assert prod.p_max == 2
    assert prod[1] == 1 and prod[3] == 0
    assert a.truncate(0) == LaurentSeries({0: 1})


def test_zero_handling():
    z = LaurentSeries.zero()
    assert not z
    assert z + z == z
    assert LaurentSeries({0: 1}) - 1 == z
    with pytest.raises(TypeError):
        LaurentSeries({0: 1}) / LaurentSeries({0: 1})
