import random
from fractions import Fraction
from math import factorial

import pytest

from eocount.cumulants import double_factorial, moments_to_cumulants
from eocount.errors import SizeLimitError

from golden import BELL_22
from helpers import LaurentSeries
from oracles import (bell_number, connected_pairings,
                     cumulant_via_both_routes_check, enumerate_pairings,
                     enumerate_partitions, isserlis_moment,
                     joint_cumulant_connected, joint_cumulant_partition_sum,
                     partition_factorial_sum, stirling_second)


def rational_covariance(rng, n, symmetric_psd=False):
    """Random symmetric rational matrix; Isserlis identities are polynomial
    in the entries, so positive definiteness is not needed for them."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            m[i][j] = m[j][i] = v
    return m


def test_pairing_and_partition_counts():
    assert len(list(enumerate_pairings(4))) == 3
    assert len(list(enumerate_pairings(6))) == 15
    assert list(enumerate_pairings(3)) == []
    assert len(list(enumerate_partitions(3))) == 5
    assert len(list(enumerate_partitions(5))) == bell_number(5) == 52
    with pytest.raises(SizeLimitError):
        list(enumerate_pairings(18))


def test_bell_values():
    assert [bell_number(s) for s in range(6)] == [1, 1, 2, 5, 15, 52]
    assert bell_number(22) == BELL_22


def test_isserlis_displayed_identities():
    rng = random.Random(1)
    for _ in range(10):
        cov = rational_covariance(rng, 2)
        s11, s22, s12 = cov[0][0], cov[1][1], cov[0][1]
        assert isserlis_moment(cov, [0, 0]) == s11
        assert isserlis_moment(cov, [0, 0, 1, 1]) == s11 * s22 + 2 * s12**2
        assert (isserlis_moment(cov, [0, 0, 0, 1, 1, 1])
                == 9 * s11 * s22 * s12 + 6 * s12**3)


def test_isserlis_odd_and_empty():
    cov = [[Fraction(2)]]
    assert isserlis_moment(cov, [0]) == 0
    assert isserlis_moment(cov, [0, 0, 0]) == 0
    assert isserlis_moment(cov, []) == 1
    with pytest.raises(IndexError):
        isserlis_moment(cov, [1])


def test_connected_cumulant_examples():
    rng = random.Random(2)
    cov = rational_covariance(rng, 2)
    s12 = cov[0][1]
    # kappa of (Z1, Z1) is the covariance itself
    assert joint_cumulant_connected(cov, [[0], [0]]) == cov[0][0]
    # kappa(Z1^2, Z2^2) = E[Z1^2 Z2^2] - E[Z1^2] E[Z2^2] = 2 s12^2
    assert joint_cumulant_connected(cov, [[0, 0], [1, 1]]) == 2 * s12**2
    # odd total degree
    assert joint_cumulant_connected(cov, [[0], [1], [1]]) == 0


def test_both_routes_agree_on_random_instances():
    rng = random.Random(3)
    checked = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        cov = rational_covariance(rng, n)
        r = rng.randint(1, 3)
        parts = []
        left = 8
        for _ in range(r):
            size = rng.randint(1, min(3, left))
            left -= size
            parts.append([rng.randrange(n) for _ in range(size)])
        assert cumulant_via_both_routes_check(cov, parts), (cov, parts)
        checked += 1
    assert checked == 50


def test_joint_cumulant_multilinear():
    rng = random.Random(4)
    cov = rational_covariance(rng, 3)
    # kappa(Z_0 Z_1, Z_2^2) linear under scaling of one slot: scale Z_0 by c
    base = joint_cumulant_connected(cov, [[0, 1], [2, 2]])
    cov_scaled = [row[:] for row in cov]
    c = Fraction(3, 2)
    for j in range(3):
        cov_scaled[0][j] *= c
        cov_scaled[j][0] *= c if j != 0 else 1
    cov_scaled[0][0] = cov[0][0] * c * c
    scaled = joint_cumulant_connected(cov_scaled, [[0, 1], [2, 2]])
    assert scaled == c * base


def test_independent_blocks_vanish():
    # block-diagonal covariance: variables {0,1} independent of {2,3}
    rng = random.Random(5)
    a = rational_covariance(rng, 2)
    b = rational_covariance(rng, 2)
    cov = [[a[0][0], a[0][1], 0, 0],
           [a[1][0], a[1][1], 0, 0],
           [0, 0, b[0][0], b[0][1]],
           [0, 0, b[1][0], b[1][1]]]
    assert joint_cumulant_connected(cov, [[0, 0], [2, 2]]) == 0
    assert joint_cumulant_partition_sum(cov, [[0, 1], [2], [3]]) == 0


def test_moments_to_cumulants_examples():
    mu = Fraction(7, 3)
    assert moments_to_cumulants([mu, mu**2])[1] == 0
    assert moments_to_cumulants([Fraction(0), Fraction(1), Fraction(0),
                                 Fraction(3)]) == [0, 1, 0, 0]
    ks = moments_to_cumulants([Fraction(1), Fraction(2), Fraction(5)])
    assert ks[2] == 5 - 3 * 2 * 1 + 2 * 1**3 == 1


def test_moments_to_cumulants_matches_partition_formula():
    # kappa_r = sum over partitions of (-1)^(b-1) (b-1)! prod moments
    rng = random.Random(6)
    for _ in range(20):
        moments = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(5)]
        ks = moments_to_cumulants(moments)
        for r in range(1, 6):
            direct = Fraction(0)
            for part in enumerate_partitions(r):
                term = Fraction((-1) ** (len(part) - 1) * factorial(len(part) - 1))
                for block in part:
                    term *= moments[len(block) - 1]
                direct += term
            assert ks[r - 1] == direct


def test_moments_to_cumulants_over_series_ring():
    m1 = LaurentSeries({0: 1, 1: 2}, p_max=3)
    m2 = m1 * m1  # deterministic: kappa_2 = 0
    ks = moments_to_cumulants([m1, m2])
    assert ks[0] == m1
    assert not ks[1]


def test_stirling_identity():
    for m in range(1, 11):
        total = sum((-1) ** (k - 1) * factorial(k - 1) * stirling_second(m, k)
                    for k in range(1, m + 1))
        assert total == (1 if m == 1 else 0)


def test_partition_factorial_bound():
    for s in range(1, 13):
        assert partition_factorial_sum(s) <= Fraction(3, 2) ** s * factorial(s - 1)


def test_connected_pairing_count_bound():
    # number of connected pairings never exceeds (k-1)!!
    rng = random.Random(7)
    for parts in ([[0, 0], [1, 1]], [[0], [1], [0, 1]], [[0, 0, 1, 1], [0, 0]]):
        k = sum(len(p) for p in parts)
        n_connected = sum(1 for _ in connected_pairings(parts))
        assert n_connected <= double_factorial(k - 1)
        assert n_connected >= 1
