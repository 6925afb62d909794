import random
import time
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eocount.cumulants import double_factorial
from eocount.errors import DomainError, SizeLimitError
from eocount.estimator import (_closed_form_logs, covariance_sigma, default_w,
                               degree_sum_reference, edge_matrix, eo_estimate,
                               eo_hat_log, kappa1_f, kappa2_f, schrijver_lower,
                               schrijver_upper_squared)
from eocount.expansion import (MAX_BITS, MAX_K, MIN_BITS, WeightSpec,
                               evaluate_expansion, expansion_series,
                               f_as_mu_polynomial, log_prefactor)
from eocount.exact import eo_count_bruteforce, rt_count
from eocount.graphs import (DENSE_MAX_N, Graph, all_degrees_even,
                            circulant_graph, complete_graph,
                            complete_multipartite, cycle_graph,
                            spanning_tree_count)
from helpers import laplacian, log_estimate, octahedron_graph, sigma_w
from oracles import (bivariate_even_moment, exact_inverse, kappa12_per_order,
                     kappa2_pairwise, kn_kappas, log_cos_coeffs)

RT = WeightSpec.for_family("RT")


def log_cos_map(K):
    # f_K's map {l: c_l}, l = 2..K, from the Bernoulli closed form
    return dict(enumerate(log_cos_coeffs(K)[1:], 2))


def inverse_of_shifted_laplacian(g, w):
    L = laplacian(g)
    return exact_inverse([[L[i][j] + w for j in range(g.n)] for i in range(g.n)])


def edge_cov(sigma, e, f):
    """Cov(X_j - X_k, X_s - X_t) read off a covariance matrix."""
    (j, k), (s, t) = e, f
    return sigma[j][s] - sigma[j][t] - sigma[k][s] + sigma[k][t]


def norm_inf(matrix):
    return max(sum(abs(x) for x in row) for row in matrix)


def test_exact_inverse_oracle():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = exact_inverse(m)
    assert inv == [[1, -1], [-1, 2]]
    with pytest.raises(DomainError):
        exact_inverse([[0, 0], [0, 0]])


def test_covariance_matches_exact_inverse():
    for g, w in ((complete_graph(3), default_w(complete_graph(3))),
                 (cycle_graph(4), Fraction(1))):
        inv = inverse_of_shifted_laplacian(g, w)
        cov = covariance_sigma(g)
        assert sigma_w(cov, w) == inv
        assert cov.norm_inf(w) == norm_inf(inv)


def test_integer_sigma_matches_exact_inverse():
    # every connected graph of this file with n <= 12
    graphs = ([Graph.from_edges(2, [(0, 1)]), cycle_graph(4), cycle_graph(6),
               octahedron_graph(), circulant_graph(8, (1, 2))]
              + [complete_graph(n) for n in range(3, 13)])
    for g in graphs:
        cov = covariance_sigma(g)
        for w in {default_w(g), Fraction(1), Fraction(3, 7)}:
            inv = inverse_of_shifted_laplacian(g, w)
            assert sigma_w(cov, w) == inv, (g, w)
            assert cov.norm_inf(w) == norm_inf(inv), (g, w)
        # the integer edge matrix over tau is the edge-difference covariance
        edges = sorted(g.edges)
        for e, row in enumerate(edge_matrix(g, cov)):
            for i, x in enumerate(row):
                assert Fraction(x, cov.tau) == edge_cov(inv, edges[e], edges[e + i])


def test_edge_matrix_diagonal_is_the_stored_variance():
    # effective resistance of an edge: 2/n in K_n, (n - 1)/n in C_n
    for g, resistance in ([(complete_graph(n), Fraction(2, n)) for n in range(3, 10)]
                          + [(cycle_graph(n), Fraction(n - 1, n))
                             for n in range(3, 13)]):
        cov = covariance_sigma(g)
        assert [row[0] for row in edge_matrix(g, cov)] == cov.var
        assert {Fraction(v, cov.tau) for v in cov.var} == {resistance}


def test_estimate_below_m2_never_builds_the_edge_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("edge matrix built")

    monkeypatch.setattr("eocount.estimator.edge_matrix", refuse)
    g = circulant_graph(9, (1, 2))
    for M in (0, 1):
        assert set(eo_estimate(g, M=M).kappa) == set(range(1, M + 1))
    with pytest.raises(AssertionError, match="edge matrix"):
        eo_estimate(g, M=2)


def test_precision_floor():
    g = complete_graph(5)
    with pytest.raises(DomainError):
        eo_estimate(g, bits=MIN_BITS - 1)
    with pytest.raises(DomainError):
        eo_hat_log(g, bits=MIN_BITS - 1)
    assert eo_estimate(g, M=1, K=2, bits=MIN_BITS).bits == MIN_BITS


def fail_if_called(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} reached before the precondition check")
    return fail


def test_precision_bounds_checked_before_any_work(monkeypatch):
    monkeypatch.setattr(Graph, "is_connected", fail_if_called("connectivity"))
    for name in ("spanning_tree_count", "l_plus_j_adjugate", "schrijver_upper_squared",
                 "cheeger_constant", "covariance_sigma"):
        monkeypatch.setattr(f"eocount.estimator.{name}", fail_if_called(name))
    g = complete_graph(5)
    # 5e7 bits ran past 20 s before the ceiling existed
    for bits, error in ((16, DomainError), (MIN_BITS - 1, DomainError),
                        (MAX_BITS + 1, SizeLimitError),
                        (5 * 10**7, SizeLimitError)):
        for fn in (eo_estimate, eo_hat_log):
            with pytest.raises(error):
                fn(g, bits=bits)


def test_dense_cap_checked_before_the_bounds_and_scans(monkeypatch):
    # above DENSE_MAX_N the estimate is refused at once: on C_200000(1,2) the
    # connectivity check and the bounds took 1.1 s before the refusal
    monkeypatch.setattr(Graph, "is_connected", fail_if_called("connectivity"))
    for name in ("schrijver_upper_squared", "cheeger_constant"):
        monkeypatch.setattr(f"eocount.estimator.{name}", fail_if_called(name))
    g = circulant_graph(DENSE_MAX_N + 1, (1, 2))
    for M in (0, 1, 2):
        with pytest.raises(SizeLimitError, match="dense"):
            eo_estimate(g, M=M)


def test_sparse_estimate_at_the_dense_cap_is_fast():
    # 0.28 s on 2 shared cores with CPython 3.11 (6.5 s with a dense
    # elimination of L + J)
    g = circulant_graph(DENSE_MAX_N, (1, 2, 3))
    t0 = time.perf_counter()
    eo_estimate(g, M=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 3, f"{elapsed:.2f}s"


def test_covariance_complete_graph_symmetry():
    sigma = sigma_w(covariance_sigma(complete_graph(5)), Fraction(2))
    diag = {sigma[i][i] for i in range(5)}
    off = {sigma[i][j] for i in range(5) for j in range(5) if i != j}
    assert len(diag) == 1 and len(off) == 1


def test_covariance_requires_connected():
    with pytest.raises(DomainError):
        covariance_sigma(Graph.from_edges(4, [(0, 1), (2, 3)]))
    cov = covariance_sigma(complete_graph(4))
    for w in (0, Fraction(-1, 2)):
        with pytest.raises(DomainError):
            cov.norm_inf(w)


def test_edge_covariance_w_invariance():
    g = complete_graph(4)
    cov = covariance_sigma(g)
    s1, s2 = sigma_w(cov, Fraction(1)), sigma_w(cov, default_w(g))
    for e in ((0, 1), (1, 2)):
        for f in ((0, 1), (2, 3), (0, 2)):
            assert edge_cov(s1, e, f) == edge_cov(s2, e, f)


def test_eo_hat_examples():
    ratio5 = mpmath.exp(eo_hat_log(complete_graph(5))) / 24
    assert 0.5 < ratio5 < 2
    ratio7 = mpmath.exp(eo_hat_log(complete_graph(7))) / 2640
    assert abs(mpmath.log(ratio7)) < abs(mpmath.log(ratio5))
    # C_4: sparse, recorded only; just require a finite positive value
    assert mpmath.isfinite(eo_hat_log(cycle_graph(4)))
    with pytest.raises(DomainError):
        eo_hat_log(complete_graph(4))


def test_kappa1_single_edge_formula():
    # one edge: kappa_1 = sum_l c_2l (2l-1)!! sigma_ee^l; check K=2 term shape
    g = Graph.from_edges(2, [(0, 1)])
    cov = covariance_sigma(g)
    see = edge_cov(sigma_w(cov, Fraction(1)), (0, 1), (0, 1))
    assert kappa1_f(g, cov, log_cos_map(2)) == Fraction(-1, 12) * 3 * see**2
    assert degree_sum_reference(g) == -Fraction(1)


def random_even_graph(n, p, seed):
    """A seeded G(n, p), then the odd-degree vertices paired off in order,
    each pair's edge toggled: every degree even."""
    rng = random.Random(seed)
    edges = {e for e in combinations(range(n), 2) if rng.random() < p}
    odd = [v for v in range(n) if sum(v in e for e in edges) % 2]
    edges ^= set(zip(odd[::2], odd[1::2]))
    return Graph.from_edges(n, edges)


def test_degree_sum_reference_on_irregular_graphs():
    # the per-edge sum of (1/d_j + 1/d_k)^2 is the oracle
    rim = 8  # two hubs over C_8: rim degree 4, hub degree 8
    double_wheel = Graph.from_edges(rim + 2, [(i, (i + 1) % rim) for i in range(rim)]
                                    + [(i, h) for i in range(rim)
                                       for h in (rim, rim + 1)])
    even = random_even_graph(13, 0.5, 4)
    assert all_degrees_even(double_wheel) and all_degrees_even(even)
    assert len(set(even.degrees)) > 2
    for g in (complete_multipartite(3, 3, 2), double_wheel, even):
        deg = g.degrees
        oracle = -sum((Fraction(1, deg[u]) + Fraction(1, deg[v])) ** 2
                      for u, v in g.edges) / 4
        assert degree_sum_reference(g) == oracle


def test_kappa1_w_invariance():
    # the definition on Sigma_w's edge variances gives kappa_1 for every w
    g = complete_graph(6)
    cov = covariance_sigma(g)
    cs = log_cos_map(4)
    for w in (Fraction(1), Fraction(3)):
        sigma = sigma_w(cov, w)
        direct = sum(cs[l] * double_factorial(2 * l - 1) * edge_cov(sigma, e, e) ** l
                     for e in g.edges for l in range(2, 5))
        assert kappa1_f(g, cov, cs) == direct


def test_kappa1_consistency_envelope():
    # kappa_1 approaches -1/4 sum (1/d_j + 1/d_k)^2 within the covariance
    # -norm envelope, K capped at delta/2
    for n in range(4, 16):
        g = complete_graph(n)
        cov = covariance_sigma(g)
        norm = cov.norm_inf(default_w(g))
        K = max(2, min(4, min(g.degrees) // 2))
        k1 = kappa1_f(g, cov, log_cos_map(K))
        ref = degree_sum_reference(g)
        d, delta = g.max_degree(), min(g.degrees)
        envelope = (Fraction(n, delta) * norm
                    + Fraction(n * d, delta**2) * norm**2)
        gap = abs(k1 - ref)
        assert gap <= 2 * envelope, (n, float(gap), float(envelope))


def test_kappa2_disconnected_edges_contribute_zero():
    # independent edge differences: joint part cancels exactly
    suu = Fraction(1, 3)
    joint = bivariate_even_moment(4, 6, suu, suu, Fraction(0))
    assert joint == (3 * suu**2) * (15 * suu**3)


def test_kappa2_diagonal_matches_univariate():
    # e = f: kappa(X^2l1, X^2l2) = E X^(2l1+2l2) - E X^2l1 E X^2l2
    s = Fraction(2, 5)
    for l1 in (2, 3):
        for l2 in (2, 4):
            joint = bivariate_even_moment(2 * l1, 2 * l2, s, s, s)
            assert joint == double_factorial(2 * (l1 + l2) - 1) * s ** (l1 + l2)


def test_kappa2_within_second_order_bound():
    for n in (5, 7, 9):
        g = complete_graph(n)
        cov = covariance_sigma(g)
        norm = cov.norm_inf(default_w(g))
        k2 = kappa2_f(g, cov, log_cos_map(4))
        d, delta, r = g.max_degree(), min(g.degrees), 2
        bound = (Fraction(n, 2 * delta) * Fraction(5 * d, delta) ** r
                 * norm ** (r - 1) * double_factorial(4 * r - 1))
        assert abs(k2) <= bound


def test_kappa2_matches_pairwise_oracle():
    graphs = [complete_graph(5), complete_graph(7), complete_graph(9),
              octahedron_graph(), circulant_graph(8, (1, 2)),
              circulant_graph(13, (1, 2, 3))]
    for g in graphs:
        cov = covariance_sigma(g)
        sigma = sigma_w(cov, default_w(g))
        # K = 8 only where the per-pair oracle stays cheap
        for K in (2, 4) + ((8,) if g.edge_count <= 16 else ()):
            assert kappa2_f(g, cov, log_cos_map(K)) == kappa2_pairwise(
                g, sigma, K), (g, K)


def test_kappas_match_the_per_order_fraction_route():
    graphs = [complete_graph(n) for n in range(3, 12)] + [
        circulant_graph(13, (1, 2, 3)), circulant_graph(18, (1, 3, 8))]
    cases = [(g, K) for g in graphs for K in (2, 4, 8)] + [(complete_graph(5), 64)]
    for g, K in cases:
        cov = covariance_sigma(g)
        coeffs = log_cos_map(K)
        got = kappa1_f(g, cov, coeffs), kappa2_f(g, cov, coeffs)
        assert all(type(k) is Fraction for k in got)
        assert got == kappa12_per_order(g, cov, K), (g.n, g.edge_count, K)


@settings(max_examples=24, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 12).map(lambda k: 2 * k + 1))
@example(4, 7)  # a cut of 14, past the series' own
def test_kappas_on_kn_equal_the_series_record(K, n):
    # one map f_K fed to both routes: the Hadamard contractions of K_n's
    # edge matrix (n odd for even degrees) and the series engine's record
    # at a cut past 2K - 1
    c = f_as_mu_polynomial(RT, K)
    g = complete_graph(n)
    cov = covariance_sigma(g)
    got = kappa1_f(g, cov, c), kappa2_f(g, cov, c)
    assert got == kn_kappas(c, n, 3 * K + 2), (K, n)


def test_closed_forms_agree_on_kn():
    # tau(K_n) = n^(n-2) makes the estimator's closed-form base the RT
    # prefactor; the M = 2, K = 3 exponent, exact on K_n, then differs from
    # the order-2 series, exact through n^-1, by O(n^-2): n^2 times the gap
    # read 11.03, 10.88, 10.73 and 10.57 at these n
    series = expansion_series("RT", 2)
    with mpmath.workprec(256):
        for n in (21, 25, 31, 41):
            g = complete_graph(n)
            base, _ = _closed_form_logs(g, spanning_tree_count(g), 256)
            assert abs(base - log_prefactor("RT", n)) < mpmath.mpf(2) ** -240, n
            corrected = eo_estimate(g, M=2, K=3).log_corrected[2]
            gap = n**2 * (corrected - evaluate_expansion(series, n)[1])
            assert 0 < gap < 12, (n, gap)


def test_estimate_uses_K_for_kappa2():
    g = complete_graph(5)
    rep = eo_estimate(g, M=2, K=8)
    cov = covariance_sigma(g)
    assert rep.kappa[2] == kappa2_f(g, cov, log_cos_map(8))
    assert rep.kappa[2] != kappa2_f(g, cov, log_cos_map(6))


def test_cumulant_order_cap():
    g = complete_graph(5)
    cov = covariance_sigma(g)
    assert isinstance(kappa1_f(g, cov, log_cos_map(MAX_K)), Fraction)
    for fn in (kappa1_f, kappa2_f):
        with pytest.raises(SizeLimitError):  # K is the map's largest l
            fn(g, cov, {MAX_K + 1: Fraction(-1)})
        with pytest.raises(DomainError):  # K = 0: no Taylor term at all
            fn(g, cov, {})
    with pytest.raises(SizeLimitError):
        eo_estimate(g, M=1, K=MAX_K + 1)
    assert eo_estimate(g, M=0, K=MAX_K + 1).kappa == {}


def test_schrijver_bounds_bracket_exact_counts():
    for g in (complete_graph(5), complete_graph(7), cycle_graph(4),
              cycle_graph(6), octahedron_graph(), circulant_graph(8, (1, 2))):
        eo = eo_count_bruteforce(g)
        upper_sq = schrijver_upper_squared(g)
        lower = schrijver_lower(g, upper_sq)
        assert lower == Fraction(upper_sq, 2 ** g.edge_count)
        assert lower <= eo
        assert eo * eo <= upper_sq
    # the power of two leaves B by the popcounts of d/2 (d = 8, 14, 16, 40)
    for g in (complete_graph(9), complete_graph(15), complete_graph(17),
              complete_multipartite(8, 8, 8, 8, 8, 8)):
        upper_sq = schrijver_upper_squared(g)
        assert schrijver_lower(g, upper_sq) == Fraction(upper_sq, 2 ** g.edge_count)
    with pytest.raises(DomainError):
        schrijver_upper_squared(complete_graph(4))


def test_estimate_report_k5():
    rep = eo_estimate(complete_graph(5), M=2, K=4, graph_id="k5")
    assert rep.schrijver_lower < 24
    assert 24 * 24 < rep.schrijver_upper_sq
    assert rep.in_hypothesis
    assert rep.cheeger_ratio == Fraction(3, 4)
    assert rep.cheeger_skipped is None
    js = rep.to_json()
    assert js["graph"] == "k5"
    assert set(js["kappa"]) == {"1", "2"}
    # in_hypothesis tests only ||Sigma_w||_inf <= 1/2; the M = 2 estimate
    # (log 4.982) still lies above the proven upper bound (log 4.479)
    assert js["in_hypothesis"] is True
    assert js["within_sandwich"] == {"0": True, "1": True, "2": False}


def test_within_sandwich_k9():
    rep = eo_estimate(complete_graph(9), M=2, K=4)
    assert rep.within_sandwich() == {0: True, 1: True, 2: True}
    assert rep.to_json()["within_sandwich"] == {"0": True, "1": True, "2": True}


def test_within_sandwich_c20_m2_lies_above_the_upper_bound():
    # K5 (the defaults M = 2, K = 4; EO(K5) = 24) is inside the Sigma
    # hypothesis, yet its estimate 145.8 lies above the upper bound 88.2: on
    # small graphs the corrections are not yet asymptotic
    for g, est_log, up_log in ((circulant_graph(20, [1, 2]), "32.59", "17.92"),
                               (complete_graph(5), "4.982", "4.479")):
        rep = eo_estimate(g, M=2, K=4)
        upper_log = mpmath.log(rep.schrijver_upper_sq) / 2
        assert abs(log_estimate(rep, 2) - mpmath.mpf(est_log)) < 0.01
        assert abs(upper_log - mpmath.mpf(up_log)) < 0.01
        assert rep.within_sandwich()[2] is False
        assert rep.to_json()["within_sandwich"]["2"] is False
    assert rep.in_hypothesis
    assert rep.within_sandwich() == {0: True, 1: True, 2: False}


def test_log_estimate_reads_each_order():
    rep = eo_estimate(complete_graph(7), M=2, K=4)
    assert log_estimate(rep, 0) == rep.log_eo_hat
    assert log_estimate(rep, 1) == rep.log_corrected[1]
    assert log_estimate(rep) == log_estimate(rep, 2) == rep.log_corrected[2]
    assert len({log_estimate(rep, M) for M in (0, 1, 2)}) == 3
    with pytest.raises(KeyError):
        log_estimate(rep, 3)
    closed = eo_estimate(complete_graph(7), M=0)
    assert log_estimate(closed) == log_estimate(closed, 0) == closed.log_eo_hat


def test_estimate_octahedron_vs_bruteforce():
    g = octahedron_graph()
    exact = eo_count_bruteforce(g)
    rep = eo_estimate(g, M=1, K=2, graph_id="octahedron")
    est = mpmath.exp(log_estimate(rep, 1))
    assert exact == 38
    # moderate agreement at this size; the value is recorded in the report
    assert 0.25 < float(est) / exact < 4


def test_estimate_dense_family_convergence():
    prev = None
    for n in (5, 7, 9, 11):
        rep = eo_estimate(complete_graph(n), M=2, K=4)
        dist = abs(mpmath.log(mpmath.mpf(rt_count(n))) - log_estimate(rep, 2))
        if prev is not None:
            assert dist <= prev
        prev = dist


def test_estimate_m1_improves_on_closed_form_for_k7():
    rep = eo_estimate(complete_graph(7), M=1, K=2)
    exact = mpmath.log(mpmath.mpf(2640))
    assert abs(exact - log_estimate(rep, 1)) < abs(exact - rep.log_eo_hat)


def test_estimate_w_invariance():
    g = circulant_graph(8, (1, 2))
    a = eo_estimate(g, M=2, K=4, w=Fraction(1))
    for w in (default_w(g), Fraction(1, 3)):
        b = eo_estimate(g, M=2, K=4, w=w)
        assert a.kappa == b.kappa and a.log_corrected == b.log_corrected


def test_estimate_preconditions():
    with pytest.raises(DomainError):
        eo_estimate(complete_graph(4))
    with pytest.raises(DomainError):
        eo_estimate(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(DomainError):
        eo_estimate(complete_graph(5), M=3)
    with pytest.raises(DomainError):
        eo_estimate(complete_graph(5), w=0)
    for n in (0, 1):
        for fn in (eo_estimate, eo_hat_log, covariance_sigma):
            with pytest.raises(DomainError):
                fn(Graph.from_edges(n, []))
