"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines; the exponent-series computation (criterion 3, 0.12-0.20 s on 2 cores,
gated at 12 s) is shared with criterion 4 through a module fixture.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath
import pytest

from eocount.estimator import (default_w, eo_estimate, schrijver_lower,
                               schrijver_upper_squared)
from eocount.exact import (eo_count_bruteforce,
                           eulerian_oriented_count_bruteforce, rt_count)
from eocount.expansion import evaluate_expansion, expansion_series
from eocount.graphs import circulant_graph, complete_graph, cycle_graph
from eocount.taillab import DiscreteProductSpace, alpha, check_tail_bound

from helpers import log_estimate, mu_moment, octahedron_graph, points
from oracles import (bell_number, count_partition_types,
                     cumulant_via_both_routes_check, enumerate_partition_types,
                     isserlis_moment, realization_sum,
                     set_partition_moment_oracle, torus_integral_estimate)
from golden import (BELL_22, ED_SERIES, EOG_COUNTS, EOG_SERIES,
                    PARTITION_TYPES_22, RT_COUNTS, RT_SERIES)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


@pytest.fixture(scope="module")
def order12_series():
    out = {}
    start = time.perf_counter()
    for fam in ("RT", "ED", "EOG"):
        t0 = time.perf_counter()
        out[fam] = expansion_series(fam, 12)
        print(f"[series] {fam} order 12 in {time.perf_counter() - t0:.1f}s")
    elapsed = time.perf_counter() - start
    assert elapsed < 12, f"the three order-12 series took {elapsed:.1f}s"
    return out


def test_criterion_1_rt_golden():
    with criterion("criterion 1: exact regular-tournament counts match the "
                   "reference table for odd n <= 21"):
        t0 = time.perf_counter()
        for n in range(1, 22, 2):
            assert rt_count(n) == RT_COUNTS[n], n
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60, f"took {elapsed:.1f}s"


def test_criterion_2_cross_counter_consistency():
    with criterion("criterion 2: brute-force Eulerian orientation count of "
                   "K_n equals the tournament recurrence for n in 3,5,7,9"):
        t0 = time.perf_counter()
        for n in (3, 5, 7, 9):
            assert eo_count_bruteforce(complete_graph(n)) == rt_count(n), n
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120, f"took {elapsed:.1f}s"


def test_criterion_3_series_golden(order12_series):
    with criterion("criterion 3: RT/ED/EOG exponent series match the twelve "
                   "published rational coefficients exactly"):
        for fam, golden in (("RT", RT_SERIES), ("ED", ED_SERIES),
                            ("EOG", EOG_SERIES)):
            res = order12_series[fam]
            got = [res.coeffs.get(p, Fraction(0)) for p in range(12)]
            assert got == golden, fam


def test_criterion_4_asymptotic_accuracy(order12_series):
    with criterion("criterion 4: series evaluation matches exact counts to "
                   "1e-10 at n=37, 1e-7 at n=21, improving term by term"):
        res = order12_series["RT"]
        with mpmath.workprec(320):
            log37 = mpmath.log(mpmath.mpf(RT_COUNTS[37]))
            _, logv37 = evaluate_expansion(res, 37, bits=320)
            assert abs(log37 - logv37) <= 1e-10
            log21 = mpmath.log(mpmath.mpf(RT_COUNTS[21]))
            _, logv21 = evaluate_expansion(res, 21, bits=320)
            assert abs(log21 - logv21) <= 1e-7
            prev = None
            for p in range(12):
                head = {q: c for q, c in res.coeffs.items() if q <= p}
                _, logv = evaluate_expansion(res._replace(coeffs=head), 37,
                                             bits=320)
                err = abs(log37 - logv)
                if prev is not None:
                    assert err <= prev, p
                prev = err


def test_criterion_5_partition_type_count():
    with criterion("criterion 5: the 22-factor benchmark monomial has exactly "
                   "360,847 partition types and its set-partition total is "
                   "Bell(22) = 4,506,715,738,447,323"):
        t0 = time.perf_counter()
        mono = (2,) * 10 + (3,) * 2 + (4,) * 10
        streamed = sum(1 for _ in enumerate_partition_types(mono))
        assert streamed == PARTITION_TYPES_22
        assert count_partition_types(mono) == PARTITION_TYPES_22
        total = realization_sum(mono)
        assert total == BELL_22 == bell_number(22)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60, f"took {elapsed:.1f}s"


def test_criterion_6_oracle_equivalence():
    with criterion("criterion 6: power-sum moments agree with the "
                   "set-partition oracle on the full grid (<= 8 factors, "
                   "exponents <= 4)"):
        for m in range(1, 9):
            for mono in combinations_with_replacement((1, 2, 3, 4), m):
                assert mu_moment(mono) == set_partition_moment_oracle(mono), mono


def test_criterion_7_isserlis_and_cumulant_routes():
    with criterion("criterion 7: displayed pairing-sum identities hold "
                   "symbolically and both cumulant routes agree on 50 random "
                   "instances"):
        rng = random.Random(123)
        for _ in range(20):
            cov = [[Fraction(0)] * 2 for _ in range(2)]
            for i in range(2):
                for j in range(i, 2):
                    cov[i][j] = cov[j][i] = Fraction(rng.randint(-9, 9),
                                                     rng.randint(1, 5))
            s11, s22, s12 = cov[0][0], cov[1][1], cov[0][1]
            assert isserlis_moment(cov, [0, 0, 1, 1]) == s11 * s22 + 2 * s12**2
            assert (isserlis_moment(cov, [0, 0, 0, 1, 1, 1])
                    == 9 * s11 * s22 * s12 + 6 * s12**3)
        checked = 0
        while checked < 50:
            n = rng.randint(1, 3)
            cov = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    cov[i][j] = cov[j][i] = Fraction(rng.randint(-6, 6),
                                                     rng.randint(1, 4))
            parts = []
            left = 8
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(1, min(3, left))
                left -= size
                parts.append([rng.randrange(n) for _ in range(size)])
            assert cumulant_via_both_routes_check(cov, parts), (cov, parts)
            checked += 1


def test_criterion_8_schrijver_sandwich():
    with criterion("criterion 8: sandwich bounds strictly bracket the exact "
                   "count on the six benchmark graphs"):
        graphs = {
            "K5": complete_graph(5),
            "K7": complete_graph(7),
            "C4": cycle_graph(4),
            "C6": cycle_graph(6),
            "octahedron": octahedron_graph(),
            "C8(1,2)": circulant_graph(8, (1, 2)),
        }
        for name, g in graphs.items():
            eo = eo_count_bruteforce(g)
            upper_sq = schrijver_upper_squared(g)
            lower = schrijver_lower(g, upper_sq)
            assert lower < eo, name
            assert eo * eo < upper_sq, name


def test_criterion_9_tail_bound_batch():
    with criterion("criterion 9: the cumulant tail bound holds exactly on 200 "
                   "seeded random instances (n <= 8, alphabet <= 3, "
                   "alpha < 1/200, m <= 3)"):
        t0 = time.perf_counter()
        rng = random.Random(20240101)
        done = 0
        while done < 200:
            n = rng.randint(4, 8)
            sizes = [rng.choice([2, 3]) for _ in range(n)]
            alphabets = [[Fraction(v) for v in range(s)] for s in sizes]
            weights = []
            for s in sizes:
                raw = [rng.randint(1, 9) for _ in range(s)]
                tot = sum(raw)
                weights.append([Fraction(r, tot) for r in raw])
            space = DiscreteProductSpace(alphabets, weights)
            eps = Fraction(1, rng.randint(1500, 4000))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            # the alphabet values are the indices 0..s-1: sum the pairs on
            # ints, then scale each distinct sum by eps once
            sums = [sum(x[i] * x[j] for i, j in pairs) for x in points(space)]
            scaled = {v: eps * v for v in set(sums)}
            table = tuple(scaled[v] for v in sums)
            m = rng.randint(1, 3)
            if alpha(space, table, m) >= Fraction(1, 200):
                continue
            rep = check_tail_bound(space, table, m)
            assert rep.holds, rep.to_json()
            assert rep.delta > -1
            done += 1
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120, f"took {elapsed:.1f}s"


def test_criterion_10_quadrature_cross_check():
    with criterion("criterion 10: torus quadrature recovers the exact "
                   "triangle counts for the pure-cosine and one-third "
                   "weight families"):
        k3 = complete_graph(3)
        q_rt = torus_integral_estimate(k3, (0, 1), 256)
        assert abs(q_rt - 2) <= 1e-5
        q_eog = torus_integral_estimate(k3, (Fraction(1, 3), Fraction(2, 3)), 256)
        assert abs(q_eog - eulerian_oriented_count_bruteforce(3)) <= 1e-5
        assert EOG_COUNTS[3] == 3


def test_supplementary_estimator_properties():
    with criterion("supplementary: estimator w-invariance and dense-family "
                   "convergence hold on the benchmark graphs"):
        g = circulant_graph(8, (1, 2))
        a = eo_estimate(g, M=2, K=4, w=Fraction(1))
        for w in (default_w(g), Fraction(1, 3)):
            b = eo_estimate(g, M=2, K=4, w=w)
            assert a.kappa == b.kappa and a.log_corrected == b.log_corrected
        prev = None
        for n in (5, 7, 9, 11):
            rep = eo_estimate(complete_graph(n), M=2, K=4)
            dist = abs(mpmath.log(mpmath.mpf(rt_count(n))) - log_estimate(rep, 2))
            if prev is not None:
                assert dist <= prev
            prev = dist
