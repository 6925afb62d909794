import random
from fractions import Fraction

import mpmath
import pytest

from eocount import powersums
from eocount.errors import DomainError, SizeLimitError
from eocount.expansion import (MAX_BITS, MAX_K, MIN_BITS, WeightSpec,
                               _moments_of_f, evaluate_expansion,
                               expansion_series, f_as_mu_polynomial,
                               family_orders, family_variance, log_prefactor,
                               weight_log_coeffs)
from eocount.powersums import monomial_order_bound

from golden import ED_COUNTS, ED_SERIES, EOG_COUNTS, EOG_SERIES, RT_SERIES
from oracles import (bernoulli_numbers, evaluate_mu_polynomial, f_direct,
                     log_cos_coeffs, moments_of_f_via_series,
                     orders_for_precision)


def test_log_cos_displayed_coefficients():
    c = log_cos_coeffs(4)
    assert c == [Fraction(-1, 2), Fraction(-1, 12), Fraction(-1, 45),
                 Fraction(-17, 2520)]


def test_bernoulli_basics():
    B = bernoulli_numbers(8)
    assert B[0] == 1 and B[1] == Fraction(-1, 2)
    assert B[2] == Fraction(1, 6) and B[8] == Fraction(-1, 30)
    assert all(B[k] == 0 for k in (3, 5, 7))


def test_bernoulli_route_equals_series_route():
    assert log_cos_coeffs(32) == weight_log_coeffs(WeightSpec.for_family("RT"), 32)


def test_weight_log_coeffs_families():
    rt = WeightSpec.for_family("RT")
    assert weight_log_coeffs(rt, 6) == log_cos_coeffs(6)

    ed = WeightSpec.for_family("ED")
    e = weight_log_coeffs(ed, 6)
    assert e[0] == Fraction(-1, 4) and e[1] == Fraction(-1, 96)
    # half-angle identity: log((1+cos x)/2) = 2 log cos(x/2)
    c = log_cos_coeffs(6)
    assert e == [2 * c[l] / 4 ** (l + 1) for l in range(6)]

    eog = WeightSpec.for_family("EOG")
    e2 = weight_log_coeffs(eog, 4)
    assert e2[0] == Fraction(-1, 3) and e2[1] == Fraction(-1, 36)


def test_weight_log_coeffs_numeric_cross_check():
    # compare against high-precision Taylor coefficients of log(a + b cos x)
    w = WeightSpec(Fraction(1, 3), Fraction(2, 3))
    exact = weight_log_coeffs(w, 5)
    with mpmath.workprec(256):
        taylor = mpmath.taylor(lambda x: mpmath.log(Fraction(1, 3)
                                                    + Fraction(2, 3) * mpmath.cos(x)),
                               0, 10)
        for l in range(1, 6):
            diff = abs(taylor[2 * l] - mpmath.mpf(exact[l - 1].numerator)
                       / exact[l - 1].denominator)
            assert diff < mpmath.mpf(2) ** -200
            assert abs(taylor[2 * l - 1]) < mpmath.mpf(2) ** -200


def test_weight_spec_validation():
    with pytest.raises(DomainError, match=r"need a \+ b = 1"):
        WeightSpec(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(DomainError, match=r"b > 0"):
        WeightSpec(Fraction(1), Fraction(0))
    with pytest.raises(DomainError, match="unknown family"):
        WeightSpec.for_family("nope")
    # strings are read as Fractions; equal specs hash alike
    w, v = WeightSpec(Fraction(1, 4), Fraction(3, 4)), WeightSpec("1/4", "3/4")
    assert v == w and hash(v) == hash(w) and type(v.a) is Fraction
    assert WeightSpec(Fraction(1, 4), Fraction(3, 4), "other") != w


def test_family_variance():
    assert family_variance(WeightSpec.for_family("RT")) == 1
    assert family_variance(WeightSpec.for_family("ED")) == 2
    assert family_variance(WeightSpec.for_family("EOG")) == Fraction(3, 2)
    assert family_variance(WeightSpec(Fraction(3, 4), Fraction(1, 4))) == 4


def test_f_polynomial_matches_direct_definition():
    rng = random.Random(11)
    for fam, K in (("RT", 4), ("ED", 3), ("EOG", 5)):
        w = WeightSpec.for_family(fam)
        poly = f_as_mu_polynomial(w, K)
        for n in (3, 4):
            xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n)]
            assert evaluate_mu_polynomial(poly, xs) == f_direct(
                w, K, xs, family_variance(w))


def test_f_polynomial_order_range():
    w = WeightSpec.for_family("ED")
    for K in (1, MAX_K + 1):
        with pytest.raises(DomainError):
            f_as_mu_polynomial(w, K)


def test_log_prefactor_matches_the_printed_formulas():
    # n^(1/2) * base^((n-1)/2), base as in each family's prefactor text
    bases = {"RT": lambda n: 2 ** (n + 1) / (mpmath.pi * n),
             "ED": lambda n: 4 ** n / (mpmath.pi * n),
             "EOG": lambda n: 3 ** (n + 1) / (4 * mpmath.pi * n)}
    with mpmath.workprec(256):
        for fam, base in bases.items():
            assert expansion_series(fam, 1).prefactor.startswith("n^(1/2) * (")
            for n in (1, 2, 9, 37):
                nf = mpmath.mpf(n)
                want = mpmath.log(mpmath.sqrt(nf) * base(nf) ** ((nf - 1) / 2))
                assert abs(log_prefactor(fam, n) - want) < mpmath.mpf(2) ** -240
    for name in ("custom", "rt", "XYZ"):
        with pytest.raises(DomainError):
            log_prefactor(name, 5)


def test_f_polynomial_excludes_quadratic_term():
    poly = f_as_mu_polynomial(WeightSpec.for_family("RT"), 2)
    # leading term: c_4 (mu_0 mu_4 - 4 mu_1 mu_3 + 3 mu_2^2), mu_0 = n
    c4 = Fraction(-1, 12)
    assert poly == {(0, 4): c4, (1, 3): -4 * c4, (2, 2): 3 * c4}


def test_moments_of_f_custom_weight_matches_series_products():
    # denominators 5 and 7, coprime to the families' 2 and 3: the common
    # denominator D of f is not 1, so E[f^r] must be divided by D^r
    w = WeightSpec(Fraction(2, 7), Fraction(5, 7))
    for c in range(1, 7):
        _, K = family_orders(c)
        poly = f_as_mu_polynomial(w, K)
        got = _moments_of_f(poly, 3, c - 1)
        assert got == moments_of_f_via_series(poly, 3, c - 1), c
        assert all(m.p_max == c - 1 for m in got)


@pytest.mark.parametrize("family", ["RT", "ED", "EOG"])
def test_order_bound_adds_up_over_products_of_f_monomials(family):
    # _moments_of_f buckets the products of f_K^r by the sum of their
    # factors' bounds, so that sum must be the product's bound
    w = WeightSpec.for_family(family)
    for K in range(2, MAX_K + 1):
        monos = list(f_as_mu_polynomial(w, K))
        bounds = [monomial_order_bound(m) for m in monos]
        for i, m1 in enumerate(monos):
            for m2, b2 in zip(monos[i:], bounds[i:]):
                assert monomial_order_bound(m1 + m2) == bounds[i] + b2, (K, m1, m2)


def test_moments_of_f_at_full_M_match_series_products():
    # the series itself takes M = c + 1, past the M = 3 of the test above
    weights = [WeightSpec.for_family(f) for f in ("RT", "ED", "EOG")]
    weights.append(WeightSpec(Fraction(2, 7), Fraction(5, 7)))
    cases = [(w, c) for w in weights for c in (1, 2, 3)] + [(weights[0], 4)]
    for w, c in cases:
        M, K = family_orders(c)
        poly = f_as_mu_polynomial(w, K)
        assert _moments_of_f(poly, M, c - 1) == moments_of_f_via_series(
            poly, M, c - 1), (w, c)


def test_series_memo_size_after_order_7():
    powersums._MOM_CACHE.clear()
    powersums._MU2_FACTORS.clear()
    expansion_series("RT", 7)
    cold = len(powersums._MOM_CACHE)
    for fam in ("ED", "EOG"):
        expansion_series(fam, 7)
    # the families share their product codes, so a warm series finds every
    # one memoized under its full code and adds no entry
    assert len(powersums._MOM_CACHE) == cold == 8619
    # one factor polynomial per (deg G, j) met, not per monomial
    assert len(powersums._MU2_FACTORS) == 205


def test_orders_for_precision():
    assert family_orders(12) == (13, 13)
    M, K = orders_for_precision(mpmath.e ** 100, mpmath.e ** 10, 1)
    assert M == int(200 / (10 - 2 * mpmath.log(100)))
    assert K == int(200 / (10 - mpmath.log(100)))
    with pytest.raises(DomainError):
        orders_for_precision(1e6, 4.0, 2)  # d below (log n)^2


def test_expansion_series_low_order_golden():
    r = expansion_series("RT", 5)
    assert [r.coeffs.get(p, Fraction(0)) for p in range(5)] == RT_SERIES[:5]
    assert r.M == 6 and r.K == 6
    e = expansion_series("ED", 5)
    assert [e.coeffs.get(p, Fraction(0)) for p in range(5)] == ED_SERIES[:5]
    g = expansion_series("EOG", 5)
    assert [g.coeffs.get(p, Fraction(0)) for p in range(5)] == EOG_SERIES[:5]


def test_kappa_decay_matches_order():
    r = expansion_series("RT", 6)
    for idx, kap in enumerate(r.cumulants, start=1):
        lead = kap.leading_order()
        if lead is not None:
            assert lead >= idx - 1


def test_expansion_order_caps():
    with pytest.raises(SizeLimitError):
        expansion_series("RT", 13)
    with pytest.raises(DomainError):
        expansion_series("RT", 0)


def test_evaluate_small_n_accuracy():
    r = expansion_series("RT", 6)
    val, _ = evaluate_expansion(r, 5)
    assert 0.75 * 24 < float(val) < 1.25 * 24
    with pytest.raises(DomainError):
        evaluate_expansion(r, 6)        # parity
    with pytest.raises(DomainError):
        evaluate_expansion(r, 5, bits=64)


def test_evaluate_precision_bounds_checked_first(monkeypatch):
    r = expansion_series("RT", 3)

    def fail(*args, **kwargs):
        raise AssertionError("evaluated before the precision check")

    monkeypatch.setattr("eocount.expansion.log_prefactor", fail)
    monkeypatch.setattr("eocount.expansion.require_eval_point", fail)
    for bits, error in ((16, DomainError), (MIN_BITS - 1, DomainError),
                        (MAX_BITS + 1, SizeLimitError),
                        (5 * 10**7, SizeLimitError)):
        with pytest.raises(error):
            evaluate_expansion(r, 21, bits=bits)


def test_evaluate_matches_scan_counts():
    # the asymptotic series is already informative at n = 4, 5
    e = expansion_series("ED", 6)
    g = expansion_series("EOG", 6)
    for n in (4, 5):
        ve, _ = evaluate_expansion(e, n)
        vg, _ = evaluate_expansion(g, n)
        assert abs(float(ve) / ED_COUNTS[n] - 1) < 0.15
        assert abs(float(vg) / EOG_COUNTS[n] - 1) < 0.15


def test_exp_log_round_trip():
    r = expansion_series("RT", 4)
    with mpmath.workprec(384):
        _, logv = evaluate_expansion(r, 101, bits=384)
        val = mpmath.exp(logv)
        assert abs(mpmath.log(val) - logv) < mpmath.mpf(2) ** -300


def test_custom_family_exposes_series_only():
    w = WeightSpec(Fraction(1, 4), Fraction(3, 4))
    r = expansion_series(w, 3)
    assert r.family == "custom" and r.prefactor == ""
    assert r.coeffs[0] != 0
    with pytest.raises(DomainError):
        evaluate_expansion(r, 11)


def test_evaluate_rejects_points_outside_the_domain():
    for fam, n in (("ED", 0), ("EOG", -4), ("RT", 2)):
        with pytest.raises(DomainError):
            evaluate_expansion(expansion_series(fam, 3), n)


def test_series_json_shape():
    r = expansion_series("RT", 3)
    js = r.to_json()
    assert js["coeffs"] == {"0": "-1/2", "1": "1/4", "2": "1/4"}
    assert js["prefactor"].startswith("n^(1/2)")
