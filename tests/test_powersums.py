from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eocount.errors import SizeLimitError
from eocount.laurent import LaurentSeries
from eocount.expansion import MAX_ORDER, family_orders
from eocount import powersums
from eocount.powersums import (FIELD_BITS, code_fields, encode,
                               monomial_order_bound, mu_moment_dict)

from helpers import TYPE_ENUM_MAX_FACTORS, mu_moment, mu_monomial
from oracles import (ORACLE_MAX_FACTORS, a_coeff, b_coeff, bell_number,
                     count_partition_types, enumerate_partition_types,
                     gaussian_power_moment, mu_moment_via_types,
                     realization_count, realization_sum,
                     set_partition_moment_oracle)


def test_mu_monomial_normalization():
    assert mu_monomial([3, 1, 2, 1]) == (1, 1, 2, 3)
    with pytest.raises(ValueError):
        mu_monomial([0, 1])


@given(st.lists(st.integers(0, 40), max_size=TYPE_ENUM_MAX_FACTORS))
def test_code_fields_read_back_the_encoded_monomial(exps):
    fields = code_fields(encode(exps))
    assert [e for e, _ in fields] == sorted(set(exps))
    assert tuple(e for e, m in fields for _ in range(m)) == tuple(sorted(exps))


def test_fields_hold_every_product_the_series_engine_forms():
    # a product of M <= 13 f_K monomials has at most 2M factors, and the
    # recurrence never adds one, so no field of width FIELD_BITS overflows;
    # the tests' monomials stay inside the same width
    assert 2 * family_orders(MAX_ORDER)[0] < 1 << FIELD_BITS
    assert 2 * family_orders(MAX_ORDER)[0] <= TYPE_ENUM_MAX_FACTORS < 1 << FIELD_BITS


def test_enumerate_types_examples():
    assert list(enumerate_partition_types((2,))) == [((2,),)]
    two = sorted(enumerate_partition_types((1, 1), even_cells_only=False))
    assert two == [((1,), (1,)), ((1, 1),)]
    assert count_partition_types((1, 1), even_cells_only=False) == 2
    # odd singleton cells pruned by default
    assert count_partition_types((1, 1)) == 1


def test_enumerate_types_unique_and_counted():
    mono = (1, 1, 2, 2, 3)
    seen = list(enumerate_partition_types(mono, even_cells_only=False))
    assert len(seen) == len(set(seen))
    assert len(seen) == count_partition_types(mono, even_cells_only=False)
    for t in seen:
        merged = sorted(e for cell in t for e in cell)
        assert tuple(merged) == mono


def test_a_b_coeff_worked_example():
    t = ((1, 1, 2), (1, 1, 2), (1, 2, 2))
    # n(n-1)(n-2)/2
    assert a_coeff(t) == LaurentSeries({-3: Fraction(1, 2),
                                        -2: Fraction(-3, 2), -1: 1})
    assert b_coeff(t) == (factorial(5) // (2 * 2)) * (factorial(4) // 2)


def test_a_b_coeff_degenerate_cases():
    assert a_coeff(((2, 2),)) == LaurentSeries({-1: 1})          # single cell: n
    assert a_coeff(((3,), (2,))) == LaurentSeries({-2: 1, -1: -1})  # n(n-1)
    assert b_coeff(((1, 1, 2, 2),)) == 1
    # identical cells: position assignments counted with cell order
    assert b_coeff(((1,), (1,))) == 2
    assert realization_count(((1,), (1,))) == 1


def test_realization_sums_match_bell():
    for mono in [(1, 1), (2, 2, 2), (1, 2, 3), (2, 2, 3, 3, 4), (1,) * 6]:
        assert realization_sum(mono) == bell_number(len(mono))


def test_gaussian_power_moment():
    assert gaussian_power_moment(2) == LaurentSeries({1: 1})
    assert gaussian_power_moment(3) == LaurentSeries.zero()
    assert gaussian_power_moment(6) == LaurentSeries({3: 15})


def test_mu_moment_examples():
    assert mu_moment((2,)) == LaurentSeries({0: 1})
    assert mu_moment((1, 2)) == LaurentSeries.zero()
    assert mu_moment((2, 2)) == LaurentSeries({0: 1, 1: 2})
    assert mu_moment((4,)) == LaurentSeries({1: 3})
    # mu_1 is standard normal for any n
    assert mu_moment((1, 1)) == LaurentSeries({0: 1})
    assert mu_moment((1, 1, 1, 1)) == LaurentSeries({0: 3})
    assert mu_moment((1,) * 6) == LaurentSeries({0: 15})


def test_mu_moment_routes_agree_small_grid():
    for m in range(1, 7):
        for mono in combinations_with_replacement((1, 2, 3, 4), m):
            fast = mu_moment(mono)
            types = mu_moment_via_types(mono)
            oracle = set_partition_moment_oracle(mono)
            assert fast == types == oracle, mono


def test_mu_moment_truncation_consistency():
    for mono in [(2, 2, 2, 2, 4), (1, 1, 3, 3, 2), (4, 4, 4)]:
        full = mu_moment(mono)
        for p_max in range(4):
            assert mu_moment(mono, p_max) == full.truncate(p_max)
            assert mu_moment_via_types(mono, p_max) == full.truncate(p_max)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=10))
def test_mu_moment_is_int_and_matches_types_at_every_truncation(exps):
    mono = mu_monomial(exps)
    for p_max in [*range(sum(mono) // 2 + 1), None]:
        cut = sum(mono) // 2 if p_max is None else p_max
        assert all(type(c) is int
                   for c in mu_moment_dict(encode(mono), cut).values())
        assert mu_moment(mono, p_max) == mu_moment_via_types(mono, p_max), p_max


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda j: st.tuples(
    st.just(j), st.lists(st.sampled_from((1, 3, 4, 5)), max_size=12 - j))))
def test_mu2_closed_form_matches_oracles_at_every_truncation(case):
    # mu_2^j G takes the closed form E[G] prod_{i<j} (1 + (deg G + 2i)/n);
    # an empty memo and rising cuts make every entry on the way an upgrade
    j, rest = case
    mono = mu_monomial([2] * j + rest)
    half, odd = divmod(sum(mono), 2)
    assume(not odd)
    full = mu_moment_via_types(mono)
    if len(mono) <= ORACLE_MAX_FACTORS:
        assert full == set_partition_moment_oracle(mono)
    powersums._MOM_CACHE.clear()
    for p_max in [*range(half + 1), None]:
        cut = half if p_max is None else p_max
        coeffs = mu_moment_dict(encode(mono), cut).values()
        assert all(type(c) is int and c > 0 for c in coeffs)
        assert mu_moment(mono, p_max) == full.truncate(p_max), p_max


def test_parity_vanishing():
    for mono in [(1,), (1, 2), (3,), (1, 1, 1), (2, 3)]:
        assert not mu_moment(mono)
        assert not set_partition_moment_oracle(mono)


def test_order_bound_is_respected():
    for m in range(1, 7):
        for mono in combinations_with_replacement((1, 2, 3, 4), m):
            series = mu_moment(mono)
            lead = series.leading_order()
            if lead is not None:
                assert lead >= monomial_order_bound(mono), mono


def test_factor_caps():
    with pytest.raises(SizeLimitError):
        set_partition_moment_oracle((2,) * 11)
    with pytest.raises(SizeLimitError):
        mu_moment((2,) * 27)

