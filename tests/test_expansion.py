import random
import time
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocount import expansion, powersums
from eocount.errors import DomainError, SizeLimitError
from eocount.expansion import (MAX_K, MAX_ORDER, WeightSpec, evaluate_expansion,
                               expansion_series, f_as_mu_polynomial,
                               family_facts, log_closed_form,
                               weight_log_coeffs)
from eocount.numeric import MAX_BITS, MIN_BITS, context
from eocount.powersums import monomial_order_bound

from golden import ED_COUNTS, ED_SERIES, EOG_COUNTS, EOG_SERIES, RT_SERIES
from helpers import LaurentSeries, series_cumulants
from oracles import (bernoulli_numbers, evaluate_mu_polynomial, f_direct,
                     f_power_sums, log_cos_coeffs, moments_of_f_via_series,
                     orders_for_precision, printed_log_prefactor,
                     series_ungraded,
                     t_joint_cumulants_via_partitions,
                     weight_log_coeffs_via_fractions)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50).flatmap(
    lambda q: st.tuples(st.integers(1, q), st.just(q))), st.integers(1, 64))
def test_weight_log_coeffs_match_the_fraction_recursion(pq, L):
    # the shipped recursion runs on s^k m_k, ints only for the right s
    b = Fraction(*pq)
    got = weight_log_coeffs(WeightSpec(1 - b, b), L)
    assert all(type(e) is Fraction for e in got)
    assert got == weight_log_coeffs_via_fractions(WeightSpec(1 - b, b), L)


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


def test_f_polynomial_matches_direct_definition():
    rng = random.Random(11)
    for fam, K in (("RT", 4), ("ED", 3), ("EOG", 5)):
        w = WeightSpec.for_family(fam)
        f = f_as_mu_polynomial(w, K)
        assert set(f) == set(range(2, K + 1))
        for n in (3, 4):
            xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n)]
            assert evaluate_mu_polynomial(f, xs) == f_direct(
                w, K, xs, 1 / w.b)


def test_f_polynomial_order_range():
    w = WeightSpec.for_family("ED")
    for K, error in ((1, DomainError), (MAX_K + 1, SizeLimitError)):
        with pytest.raises(error):
            f_as_mu_polynomial(w, K)
    assert len(f_as_mu_polynomial(w, MAX_K)) == MAX_K - 1


def test_log_prefactor_matches_the_printed_formulas():
    # the closed form on K_n, tau = n^(n-2), at exponent 0
    ctx = context(256)
    with mpmath.workprec(256):
        for fam in ("RT", "ED", "EOG"):
            w = WeightSpec.for_family(fam)
            assert expansion_series(fam, 1).prefactor.startswith("n^(1/2) * (")
            for n in (1, 2, 9, 37):
                log_tau = ctx.multiply(ctx.ln(n), n - 2)
                got = log_closed_form(w, n, n * (n - 1) // 2, log_tau, Fraction(0), 256)
                assert abs(got - printed_log_prefactor(fam, n)) < mpmath.mpf(2) ** -240
    for name in ("custom", "rt", "XYZ"):
        with pytest.raises(DomainError):
            family_facts(name)


def test_closed_form_edge_factor_is_the_least_integer_weight():
    # q = lcm(den a, den(b/2)): each edge adds log q to the closed form
    with mpmath.workprec(320):
        for fam, q in (("RT", 2), ("ED", 4), ("EOG", 3)):
            w = WeightSpec.for_family(fam)
            step = (mpmath.mpf(log_closed_form(w, 5, 11, Decimal(3), Fraction(0), 256))
                    - mpmath.mpf(log_closed_form(w, 5, 10, Decimal(3), Fraction(0), 256)))
            assert abs(step - mpmath.log(q)) < mpmath.mpf(2) ** -250, fam
            assert min(d for d in range(1, 13)
                       if (d * w.a).denominator == (d * w.b / 2).denominator == 1) == q


def test_evaluate_rounds_the_exact_exponent_once():
    # against the printed prefactor and the exact sum of the series, both at
    # 1024 bits
    for fam, ns in (("RT", (5, 37)), ("ED", (5, 36)), ("EOG", (5, 36))):
        res = expansion_series(fam, 12)
        for n in ns:
            exponent = sum(c / Fraction(n) ** p for p, c in res.coeffs.items())
            with mpmath.workprec(1024):
                want = printed_log_prefactor(fam, n) + mpmath.mpf(
                    exponent.numerator) / exponent.denominator
                got = evaluate_expansion(res, n)[1]
                assert abs(got - want) <= abs(want) * mpmath.mpf(2) ** -250, (fam, n)


def test_f_polynomial_excludes_quadratic_term():
    # f_2 = c_2 T_2 alone, c_2 = e_4 = -1/12 for log cos; the quadratic
    # term e_2 is the Gaussian's and is not part of f_K
    f = f_as_mu_polynomial(WeightSpec.for_family("RT"), 2)
    assert f == {2: Fraction(-1, 12)}
    # T_2 = mu_0 mu_4 - 4 mu_1 mu_3 + 3 mu_2^2, mu_0 = n
    c2 = Fraction(-1, 12)
    assert f_power_sums(f) == {(0, 4): c2, (1, 3): -4 * c2, (2, 2): 3 * c2}


def record_rows(p_max):
    # {L: (r!/prod mult!, kappa(T_L))} from the rows of one cut's record
    return {L: (ways, values) for L, ways, values in expansion._T_CUMULANTS[p_max][1]}


def admissible(L, p_max):
    return len(L) >= 2 and sum(l - 2 for l in L) <= p_max + 1 - len(L)


def test_t_cumulants_match_the_partition_formula(monkeypatch):
    # every entry of the weight-free table at c = 1..6, all int
    # coefficients of n^-0 .. n^-(c-1), against the set-partition formula
    # on the ungraded uncentered moments in Fractions, the t = 1 terms of
    # T_l kept: the table comes from centered power sums without them, so
    # this leans on no translation invariance; the weight that fills the
    # table does not matter, and D and the c_l are checked through the
    # series
    monkeypatch.setattr(expansion, "_T_CUMULANTS", {})
    for c in range(1, 7):
        expansion_series(WeightSpec(Fraction(2, 7), Fraction(5, 7)), c)
        table = record_rows(c - 1)
        want = t_joint_cumulants_via_partitions(c - 1)
        assert set(table) == set(want), c
        for L, (_, values) in table.items():
            assert all(type(v) is int and v and 0 <= p < c
                       for p, v in values.items()), (c, L)
            assert LaurentSeries(values, c - 1) == want[L], (c, L)


def assert_moments_of_f_match(w, c, M):
    # E[f^r], r = 1..M, rebuilt from the series' kappa_1..kappa_M by
    # E[f^r] = sum_k C(r-1, k-1) kappa_k E[f^(r-k)], against the powers of
    # f multiplied out on Fraction coefficients
    p_max = c - 1
    kappas = [LaurentSeries(k, p_max) for k in series_cumulants(w, c)]
    want = moments_of_f_via_series(f_as_mu_polynomial(w, c + 1), M, p_max)
    assert M <= len(kappas) and len(want) == M
    moments = [LaurentSeries.term(1, 0, p_max)]
    for r in range(1, M + 1):
        m = LaurentSeries.zero(p_max)
        for k in range(1, r + 1):
            m = m + kappas[k - 1] * moments[r - k] * comb(r - 1, k - 1)
        assert m == want[r - 1], (w.family, c, r)
        moments.append(m)


def test_moments_of_f_custom_weight_matches_series_products():
    # denominators 5 and 7, coprime to the families' 2 and 3: the common
    # denominator D of f is not 1, so D^r kappa_r must be divided by D^r
    w = WeightSpec(Fraction(2, 7), Fraction(5, 7))
    for c in range(1, 7):
        assert_moments_of_f_match(w, c, min(3, c))


@pytest.mark.parametrize("family", ["RT", "ED", "EOG"])
def test_order_bound_adds_up_over_products_of_f_monomials(family):
    # the E[T_L] walk buckets the products of the T_l by the sum of their
    # factors' bounds, so that sum must be the product's bound; the series
    # takes K up to MAX_ORDER + 1
    w = WeightSpec.for_family(family)
    for K in range(2, MAX_ORDER + 2):
        monos = list(f_power_sums(f_as_mu_polynomial(w, K)))
        bounds = [monomial_order_bound(m) for m in monos]
        for i, m1 in enumerate(monos):
            for m2, b2 in zip(monos[i:], bounds[i:]):
                assert monomial_order_bound(m1 + m2) == bounds[i] + b2, (K, m1, m2)


def test_moments_of_f_at_full_M_match_series_products():
    # the series itself takes M = c, past the M = 3 of the test above
    weights = [WeightSpec.for_family(f) for f in ("RT", "ED", "EOG")]
    weights.append(WeightSpec(Fraction(2, 7), Fraction(5, 7)))
    cases = [(w, c) for w in weights for c in (1, 2, 3)] + [(weights[0], 4)]
    for w, c in cases:
        assert_moments_of_f_match(w, c, c)


# the a of a + b cos: denominators other than the families' 2 and 3, a
# weight near each end, and RT's (0, 1) as a custom weight
CUSTOM_A = ["2/7", "3/5", "9/10", "0", "1/11"]


def assert_series_matches_ungraded(w, c):
    # the excess cut and M = c lose nothing: the coefficients and
    # kappa_1..kappa_c equal the whole expansion's through n^-(c-1), and
    # its kappa_{c+1} is zero there; like the oracle's series, each
    # cumulant map keeps only nonzero coefficients of n^-p, p <= c - 1
    res = expansion_series(w, c)
    coeffs, kappas = series_ungraded(w, c)
    cumulants = series_cumulants(w, c)
    assert res.coeffs == coeffs, (w.a, c)
    assert cumulants == tuple(k.coeffs for k in kappas[:c]), (w.a, c)
    assert all(type(v) is Fraction and v and 0 <= p < c
               for kap in cumulants for p, v in kap.items()), (w.a, c)
    assert len(kappas) == c + 1 and not kappas[c], (w.a, c)


@pytest.mark.parametrize("weight", ["RT", "ED", "EOG"] + CUSTOM_A)
def test_series_equals_the_ungraded_expansion(weight):
    w = (WeightSpec.for_family(weight) if weight in ("RT", "ED", "EOG")
         else WeightSpec(weight, 1 - Fraction(weight)))
    for c in range(1, 9):
        assert_series_matches_ungraded(w, c)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda q: st.tuples(st.integers(0, q - 1), st.just(q))), st.integers(1, 5))
def test_series_equals_the_ungraded_expansion_for_any_weight(pq, c):
    a = Fraction(*pq)
    assert_series_matches_ungraded(WeightSpec(a, 1 - a), c)


def test_series_memo_size_after_order_7():
    powersums._MOM_CACHE.clear()
    expansion._T_CUMULANTS.clear()  # a warm table would skip the products
    expansion_series("RT", 7)
    cold = len(powersums._MOM_CACHE)
    for fam in ("ED", "EOG"):
        expansion_series(fam, 7)
    # a warm series reads the kappa(T_L) table and asks only for f_K's own
    # monomials, which RT memoized, so it adds no entry; no code with a p_1
    # factor is memoized.  The recurrence removes one p_2 per step, so each
    # p_2^i G on the way down a p_2 chain is an entry of its own
    assert len(powersums._MOM_CACHE) == cold == 429


def test_series_memo_size_after_order_12():
    powersums._MOM_CACHE.clear()
    expansion._T_CUMULANTS.clear()
    for fam in ("RT", "ED", "EOG"):
        expansion_series(fam, 12)
    # one entry per p_2^i G on each p_2 chain, as at order 7
    assert len(powersums._MOM_CACHE) == 6550


def table_size(table):
    # rows over every cut of the record map
    return sum(len(rows) for _, rows in table.values())


def singleton_codes(K):
    # the codes of the monomials of T_2 .. T_K with their mu_0 dropped
    return {powersums.encode(e for e in m if e)
            for l in range(2, K + 1) for m in expansion._folded_t(l)}


def record_codes(monkeypatch):
    seen = []
    inner = expansion.mu_moment_dict

    def spy(code, cut):
        seen.append(code)
        return inner(code, cut)

    monkeypatch.setattr(expansion, "mu_moment_dict", spy)
    return seen


def test_second_weight_at_a_computed_order_skips_the_products(monkeypatch):
    monkeypatch.setattr(expansion, "_T_CUMULANTS", {})
    expansion_series("RT", 7)
    size = table_size(expansion._T_CUMULANTS)
    seen = record_codes(monkeypatch)
    for w in ("ED", WeightSpec(Fraction(2, 7), Fraction(5, 7))):
        seen.clear()
        expansion_series(w, 7)
        assert table_size(expansion._T_CUMULANTS) == size
        assert seen and set(seen) <= singleton_codes(8)


def test_warm_series_still_calls_mu_moment_dict(monkeypatch):
    # the tracer times powersums, f_K and the log coefficients' recursion
    # through these names, so a warm call must still pass through each
    expansion_series("RT", 3)
    seen = record_codes(monkeypatch)
    called = []
    for name in ("f_as_mu_polynomial", "moments_to_cumulants"):
        def spy(*args, inner=getattr(expansion, name), name=name):
            called.append(name)
            return inner(*args)
        monkeypatch.setattr(expansion, name, spy)
    expansion_series("RT", 3)
    assert seen
    assert set(called) == {"f_as_mu_polynomial", "moments_to_cumulants"}


def test_table_fill_order_changes_no_series(monkeypatch):
    weights = [WeightSpec.for_family("RT"), WeightSpec.for_family("EOG"),
               WeightSpec(Fraction(2, 7), Fraction(5, 7))]
    results = []
    for order in (weights, weights[1:] + weights[:1]):
        monkeypatch.setattr(expansion, "_T_CUMULANTS", {})
        results.append({(w, c): (expansion_series(w, c).coeffs, series_cumulants(w, c))
                        for c in range(1, 9) for w in order})
    assert results[0] == results[1]


def test_table_size_after_rt_at_orders_1_to_12(monkeypatch):
    monkeypatch.setattr(expansion, "_T_CUMULANTS", {})
    for c in range(1, 13):
        expansion_series("RT", c)
    assert sorted(expansion._T_CUMULANTS) == list(range(12))
    assert table_size(expansion._T_CUMULANTS) == 799


def test_table_keys_stay_within_the_order_cap(monkeypatch):
    # the record of each cut, the items of T_l and the rows with their
    # multinomials, outlives every call, so only the MAX_ORDER cuts may
    # fill the map: an order outside 1..MAX_ORDER is refused before the fill
    monkeypatch.setattr(expansion, "_T_CUMULANTS", {})
    for c in (-1, 0, MAX_ORDER + 1, 2 * MAX_ORDER):
        with pytest.raises((DomainError, SizeLimitError)):
            expansion_series("ED", c)
    assert expansion._T_CUMULANTS == {}
    for c in range(1, 9):
        for w in ("EOG", WeightSpec(Fraction(1, 11), Fraction(10, 11))):
            expansion_series(w, c)
    assert sorted(expansion._T_CUMULANTS) == list(range(8))
    for p_max, (items, rows) in expansion._T_CUMULANTS.items():
        assert sorted(items) == list(range(2, p_max + 3))
        assert len({L for L, _, _ in rows}) == len(rows)
        for L, ways, _ in rows:
            assert admissible(L, p_max) and list(L) == sorted(L)
            assert ways == factorial(len(L)) // prod(factorial(L.count(l)) for l in set(L))


def test_cuts_agree_on_their_common_rows(monkeypatch):
    # each cut fills its record on its own: the record of a shallower cut
    # must be a deeper cut's, restricted to the L admissible there and to
    # p <= its cut, so a record computed once at the deepest cut could
    # serve every shallower one
    monkeypatch.setattr(expansion, "_T_CUMULANTS", {})
    records = {}
    for c in range(1, MAX_ORDER + 1):
        expansion_series("RT", c)
        records[c - 1] = expansion._T_CUMULANTS.pop(c - 1)
        assert not expansion._T_CUMULANTS
    for deep, (deep_items, deep_rows) in records.items():
        for cut in range(deep):
            items, rows = records[cut]
            assert items == {l: deep_items[l] for l in range(2, cut + 3)}
            assert len(rows) == len({L for L, _, _ in rows})
            assert {L: (ways, values) for L, ways, values in rows} == {
                L: (ways, {p: v for p, v in values.items() if p <= cut})
                for L, ways, values in deep_rows if admissible(L, cut)}


def test_t_items_drop_the_p1_monomials():
    # p_1 = 0 for the centered power sums, so T_l keeps t = 0 and 2..l
    for l, items in expansion._t_cumulants(6)[0].items():
        assert sorted(code for code, _, _ in items) == sorted(
            powersums.encode(m) for m in expansion._folded_t(l) if 1 not in m)


def test_second_and_third_family_at_order_12_read_the_table():
    expansion_series("RT", 12)
    for fam in ("ED", "EOG"):
        t0 = time.perf_counter()
        expansion_series(fam, 12)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.02, f"{fam} at order 12 after RT took {elapsed:.3f}s"


def test_orders_for_precision():
    M, K = orders_for_precision(mpmath.e ** 100, mpmath.e ** 10, 1)
    assert M == int(200 / (10 - 2 * mpmath.log(100)))
    assert K == int(200 / (10 - mpmath.log(100)))
    with pytest.raises(DomainError):
        orders_for_precision(1e6, 4.0, 2)  # d below (log n)^2


def test_expansion_series_low_order_golden():
    r = expansion_series("RT", 5)
    assert [r.coeffs.get(p, Fraction(0)) for p in range(5)] == RT_SERIES[:5]
    e = expansion_series("ED", 5)
    assert [e.coeffs.get(p, Fraction(0)) for p in range(5)] == ED_SERIES[:5]
    g = expansion_series("EOG", 5)
    assert [g.coeffs.get(p, Fraction(0)) for p in range(5)] == EOG_SERIES[:5]


def test_kappa_decay_matches_order():
    for idx, kap in enumerate(series_cumulants("RT", 6), start=1):
        lead = min(kap, default=None)
        if lead is not None:
            assert lead >= idx - 1
    # the excess cut rests on the finer decay: kappa(T_L) of excess e is
    # O(n^-(|L|-1+e)), so each row is zero below it; the raw moments
    # E[T_L] are not, so the fill's cancellation is real
    for c in range(1, 9):
        expansion_series("RT", c)
        items, rows = expansion._T_CUMULANTS[c - 1]
        moments = expansion._t_moments(items, c - 1)
        assert all(all(m.values()) for m in moments.values())  # zeros dropped
        for L, _, values in rows:
            decay = len(L) - 1 + sum(L) - 2 * len(L)
            assert min(values, default=decay) >= decay, (c, L)
            assert any(p < decay for p in moments[L]), (c, L)


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

    monkeypatch.setattr("eocount.expansion.log_closed_form", fail)
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
