import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations, islice

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eocount.cumulants import double_factorial
from eocount.errors import DomainError, SizeLimitError
from eocount.estimator import (_closed_form_logs, _row, covariance_sigma,
                               default_w, degree_sum_reference, eo_estimate,
                               eo_hat_log, kappa1_f, kappa2_f, schrijver_lower,
                               schrijver_upper_squared)
from eocount.expansion import (MAX_K, WeightSpec, evaluate_expansion,
                               expansion_series, f_as_mu_polynomial)
from eocount.exact import eo_count_bruteforce, rt_count
from eocount.graphs import (DENSE_MAX_N, Graph, all_degrees_even,
                            circulant_graph, complete_graph,
                            complete_multipartite, cycle_graph,
                            l_plus_j_adjugate, spanning_tree_count)
from eocount.numeric import MAX_BITS, MIN_BITS
from helpers import laplacian, log_estimate, octahedron_graph, shuffled, sigma_w
from oracles import (bivariate_even_moment, edge_matrix, exact_inverse,
                     kappa12_per_order, kappa2_pairwise, kn_kappas,
                     log_cos_coeffs, printed_log_prefactor)

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
        assert sigma_w(g, w) == inv
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
            assert sigma_w(g, w) == inv, (g, w)
            assert cov.norm_inf(w) == norm_inf(inv), (g, w)
        # the integer edge matrix over tau is the edge-difference covariance
        edges = sorted(g.edges)
        for e, row in enumerate(edge_matrix(g)):
            for i, x in enumerate(row):
                assert Fraction(x, cov.tau) == edge_cov(inv, edges[e], edges[e + i])


def test_edge_matrix_diagonal_is_the_stored_variance():
    # effective resistance of an edge: 2/n in K_n, (n - 1)/n in C_n; in
    # natural labels var holds one entry per offset class, relabelled one
    # per sorted edge; on either route every edge's block holds its entry
    # of M's diagonal
    for g, resistance in ([(complete_graph(n), Fraction(2, n)) for n in range(3, 10)]
                          + [(cycle_graph(n), Fraction(n - 1, n))
                             for n in range(3, 13)]):
        cov = covariance_sigma(g)
        assert set(cov.var) == {row[0] for row in edge_matrix(g)}
        assert len(cov.var) == len(cov.blocks) == len(offset_classes(g))
        h = shuffled(g)
        ref = covariance_sigma(h)
        if max(ref.blocks) == 1:
            assert ref.edges == sorted(h.edges)
            assert [row[0] for row in edge_matrix(h)] == ref.var
        for x, c in ((g, cov), (h, ref)):
            diagonal = dict(zip(sorted(x.edges), (row[0] for row in edge_matrix(x))))
            assert edge_variances(c) == diagonal
            assert {Fraction(v, c.tau) for v in c.var} == {resistance}


def test_estimate_below_m2_never_runs_kappa2(monkeypatch):
    def refuse(*args):
        raise AssertionError("kappa_2 computed")

    monkeypatch.setattr("eocount.estimator.kappa2_f", refuse)
    g = circulant_graph(9, (1, 2))
    for M in (0, 1):
        assert set(eo_estimate(g, M=M).kappa) == set(range(1, M + 1))
    with pytest.raises(AssertionError, match="kappa_2"):
        eo_estimate(g, M=2)


def list_bytes(rows):
    return sys.getsizeof(rows) + sum(
        sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in rows)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kappa2_holds_no_edge_matrix():
    # the rows of M are streamed: the peak stays below adj(L + J) itself,
    # where the m x m triangles of M, its square and a Hadamard power took
    # 12.9 MiB on this graph (m = 240); relabelled, kappa2_f reads the full
    # adjugate, in natural labels its row 0
    g = circulant_graph(80, (1, 2, 3))
    adj_bytes = list_bytes(l_plus_j_adjugate(g)[1])
    for h in (g, shuffled(g)):
        cov, coeffs = covariance_sigma(h), log_cos_map(4)
        # natural labels: row 0 and one block per offset class
        assert (len(cov.adj), len(cov.blocks)) == ((1, 3) if h is g else (h.n, 240))
        peak = traced_peak(kappa2_f, h, cov, coeffs)
        assert peak < adj_bytes, (peak, adj_bytes)


def test_circulant_route_holds_one_adjugate_row():
    # covariance_sigma and kappa2_f together peak at 1.5 MiB, below a quarter
    # of the one n x n adjugate (10.6 MiB of ints) that the general route
    # holds on this graph
    g = circulant_graph(DENSE_MAX_N, (1, 2, 3))
    adj_bytes = list_bytes(l_plus_j_adjugate(g)[1])
    peak = traced_peak(lambda: kappa2_f(g, covariance_sigma(g), log_cos_map(4)))
    assert peak < adj_bytes / 4, (peak, adj_bytes)


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
    # 0.28 s relabelled on 2 shared cores with CPython 3.11 (6.5 s with a
    # dense elimination of L + J), 0.02 s in natural labels
    g = circulant_graph(DENSE_MAX_N, (1, 2, 3))
    for h in (g, shuffled(g)):
        t0 = time.perf_counter()
        eo_estimate(h, M=1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 3, f"{elapsed:.2f}s"


def test_circulant_kappa2_at_the_dense_cap_is_fast():
    # 0.07 s on 2 shared cores with CPython 3.11; relabelled, where kappa_2
    # sums over every edge pair, 6.7 s
    g = circulant_graph(DENSE_MAX_N, (1, 2, 3))
    t0 = time.perf_counter()
    eo_estimate(g, M=2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.5, f"{elapsed:.2f}s"


def test_kappa2_edge_cap_checked_before_the_elimination(monkeypatch):
    # C_251(1,2,3,4,5): 1,255 edges, past kappa_2's isqrt(10^6) = 1,000, on
    # n <= DENSE_MAX_N with even degrees, so only the edge-pair cap refuses it
    monkeypatch.setattr("eocount.graphs._eliminated", fail_if_called("the elimination"))
    g = circulant_graph(251, (1, 2, 3, 4, 5))
    assert g.edge_count == 1255 and g.n <= DENSE_MAX_N and all_degrees_even(g)
    with pytest.raises(SizeLimitError, match="edge-pair cap"):
        eo_estimate(g, M=2)


def test_covariance_complete_graph_symmetry():
    sigma = sigma_w(complete_graph(5), Fraction(2))
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
    s1, s2 = sigma_w(g, Fraction(1)), sigma_w(g, default_w(g))
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
    see = edge_cov(sigma_w(g, Fraction(1)), (0, 1), (0, 1))
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
        sigma = sigma_w(g, w)
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


# graphs that are not regular: on K_n A_j is constant over the edges, so a row
# of M read against a misaligned slice of A_j goes unseen there
IRREGULAR = [complete_multipartite(2, 4), random_even_graph(11, 0.5, 3)]


def test_kappa2_matches_pairwise_oracle():
    circulants = [circulant_graph(8, (1, 2)), circulant_graph(13, (1, 2, 3))]
    graphs = [complete_graph(5), complete_graph(7), complete_graph(9),
              octahedron_graph()] + circulants + list(map(shuffled, circulants)) \
        + IRREGULAR
    for g in graphs:
        cov = covariance_sigma(g)
        sigma = sigma_w(g, default_w(g))
        # K = 8 only where the per-pair oracle stays cheap
        for K in (2, 4) + ((8,) if g.edge_count <= 16 else ()):
            assert kappa2_f(g, cov, log_cos_map(K)) == kappa2_pairwise(
                g, sigma, K), (g, K)


def test_kappas_match_the_per_order_fraction_route():
    circulants = [circulant_graph(13, (1, 2, 3)), circulant_graph(18, (1, 3, 8))]
    graphs = [complete_graph(n) for n in range(3, 12)] + circulants \
        + list(map(shuffled, circulants)) + IRREGULAR
    cases = [(g, K) for g in graphs for K in (2, 4, 8)] + [(complete_graph(5), 64)]
    for g, K in cases:
        cov = covariance_sigma(g)
        coeffs = log_cos_map(K)
        got = kappa1_f(g, cov, coeffs), kappa2_f(g, cov, coeffs)
        assert all(type(k) is Fraction for k in got)
        assert got == kappa12_per_order(g, K), (g.n, g.edge_count, K)


def offset_classes(g) -> set:
    return {min(v - u, g.n - v + u) for u, v in g.edges}


def edge_variances(cov) -> dict:
    """Each edge, its endpoints sorted, to its block's entry of ``cov.var``."""
    out, edges = {}, iter(cov.edges)
    for count, v in zip(cov.blocks, cov.var):
        out.update((tuple(sorted(e)), v) for e in islice(edges, count))
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40),
       st.sets(st.integers(1, 20), min_size=1, max_size=4) | st.just({0}),
       st.integers(0, 2**32))
@example(9, {0}, 1)
@example(10, {0}, 1)   # K_10: an n/2 class of 5 edges
@example(12, {1, 6}, 1)
@example(2, {1}, 1)    # one edge, the class s = n/2 of K_2
def test_circulant_route_matches_a_relabelled_copy(n, offsets, seed):
    # offsets are taken into 1..n/2; {0} stands for all of them, K_n
    half = n // 2
    offsets = range(1, half + 1) if offsets == {0} else {(s - 1) % half + 1
                                                         for s in offsets}
    g = circulant_graph(n, offsets)
    assume(g.is_connected())
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
    cov, ref = covariance_sigma(g), covariance_sigma(h)
    # one block per offset class s, from its representative (0, s), and
    # every edge once
    starts = list(accumulate(cov.blocks, initial=0))
    assert [cov.edges[i] for i in starts[:-1]] == [(0, s) for s in sorted(offsets)]
    assert sorted(tuple(sorted(e)) for e in cov.edges) == sorted(g.edges)
    tau, adj = l_plus_j_adjugate(g)
    assert cov.tau == ref.tau == tau and cov.adj == [adj[0]]
    assert all(_row(cov.adj, v) == adj[v] for v in range(n))
    for w in (default_w(g), Fraction(1), Fraction(3, 7)):
        assert cov.norm_inf(w) == ref.norm_inf(w)
    mine, theirs = edge_variances(cov), edge_variances(ref)
    assert len(mine) == g.edge_count
    assert all(x == theirs[min(perm[u], perm[v]), max(perm[u], perm[v])]
               for (u, v), x in mine.items())
    for K in (2, 4, 8):
        coeffs = log_cos_map(K)
        assert kappa1_f(g, cov, coeffs) == kappa1_f(h, ref, coeffs), K
        assert kappa2_f(g, cov, coeffs) == kappa2_f(h, ref, coeffs), K


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
    # tau(K_n) = n^(n-2) makes the estimator's closed-form base the printed
    # RT prefactor; the M = 2, K = 3 exponent, exact on K_n, then differs from
    # the order-2 series, exact through n^-1, by O(n^-2): n^2 times the gap
    # read 11.03, 10.88, 10.73 and 10.57 at these n
    series = expansion_series("RT", 2)
    with mpmath.workprec(256):
        for n in (21, 25, 31, 41):
            g = complete_graph(n)
            base, _ = _closed_form_logs(g, spanning_tree_count(g), 256)
            want = printed_log_prefactor("RT", n)
            assert abs(base - want) < mpmath.mpf(2) ** -240, n
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
