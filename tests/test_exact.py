import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocount.errors import DomainError, SizeLimitError
from eocount.exact import (BALANCED_MAX_N, RT_KNOWN_COUNTS, _balanced_count,
                           _kn_count, eo_count_bruteforce,
                           eulerian_digraph_count_bruteforce,
                           eulerian_oriented_count_bruteforce, rt_count)
from eocount.graphs import (Graph, circulant_graph, complete_graph,
                            complete_multipartite, cycle_graph)

from golden import ED_COUNTS, EOG_COUNTS, RT_COUNTS
from helpers import octahedron_graph, path_graph
from oracles import balanced_count_backtracking, torus_integral_estimate

EO_MOVES = ((1, 1), (-1, 1))


def test_eo_examples():
    assert eo_count_bruteforce(complete_graph(3)) == 2
    assert eo_count_bruteforce(complete_graph(5)) == 24
    assert eo_count_bruteforce(cycle_graph(4)) == 2
    assert eo_count_bruteforce(cycle_graph(7)) == 2


def test_eo_odd_degree_zero_and_empty():
    assert eo_count_bruteforce(complete_graph(4)) == 0
    assert eo_count_bruteforce(path_graph(3)) == 0
    assert eo_count_bruteforce(Graph.from_edges(3, [])) == 1


def test_eo_count_is_even_with_edges():
    # reversing every edge is a fixed-point-free involution
    for g in [complete_graph(3), complete_graph(5), cycle_graph(4),
              octahedron_graph(), circulant_graph(8, (1, 2))]:
        assert eo_count_bruteforce(g) % 2 == 0


def test_eo_edge_cap():
    with pytest.raises(SizeLimitError):
        eo_count_bruteforce(complete_graph(10))


def test_eo_matches_rt_small():
    for n in (3, 5, 7):
        assert eo_count_bruteforce(complete_graph(n)) == rt_count(n)


@st.composite
def even_graphs(draw, max_n: int = 10, max_edges: int = 24):
    """The symmetric difference of random cycles (an even graph, maybe
    edgeless), with one edge toggled now and then to make odd degrees; at
    most ``max_edges`` edges."""
    n = draw(st.integers(0, max_n))
    edges: set[tuple[int, int]] = set()
    for _ in range(draw(st.integers(0, 8)) if n >= 3 else 0):
        cyc = draw(st.permutations(range(n)))[:draw(st.integers(3, n))]
        new = edges ^ {tuple(sorted(e)) for e in zip(cyc, cyc[1:] + cyc[:1])}
        if len(new) < max_edges:   # room for the toggle below
            edges = new
    if n >= 2 and draw(st.integers(0, 3)) == 3:
        edges ^= {draw(st.sampled_from(list(combinations(range(n), 2))))}
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=150, deadline=None)
@given(even_graphs(), st.randoms(use_true_random=False))
def test_transfer_matches_backtracking(g, rnd):
    pairs = sorted(g.edges)
    expected = balanced_count_backtracking(g.n, pairs, EO_MOVES)
    assert _balanced_count(pairs) == expected
    assert eo_count_bruteforce(g) == expected
    rnd.shuffle(pairs)     # the count does not depend on the pair order
    assert _balanced_count(pairs) == expected


# (w0, w1) of the K_n counter and the backtracker's moves for RT, ED and EOG
KN_FAMILIES = (((0, 1), EO_MOVES),
               ((2, 1), ((0, 2), (1, 1), (-1, 1))),
               ((1, 1), ((0, 1), (1, 1), (-1, 1))))


def test_kn_count_matches_backtracking():
    # even n has no regular tournament: both routes give 0 there
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for (w0, w1), moves in KN_FAMILIES:
            assert _kn_count(n, w0, w1) == balanced_count_backtracking(n, pairs, moves)
    # the backtracker takes seconds at n = 7; its values are pinned in golden.py


def test_eo_k2_2k_is_central_binomial():
    # each leaf passes one unit from one hub to the other; the hubs balance
    # when k leaves go each way
    for k in range(11):
        assert eo_count_bruteforce(complete_multipartite(2 * k, 2)) == comb(2 * k, k)
        if k <= 6:
            assert eo_count_bruteforce(complete_multipartite(2, 2 * k)) == comb(2 * k, k)


def test_eo_pinned_counts():
    # counts that the transfer and the backtracking search both gave
    assert eo_count_bruteforce(circulant_graph(10, (1, 2, 3, 4))) == 14_747_896
    assert eo_count_bruteforce(circulant_graph(13, (1, 2, 3))) == 891_288
    assert eo_count_bruteforce(circulant_graph(13, (1, 3))) == 810
    assert eo_count_bruteforce(complete_multipartite(4, 4)) == 90


def test_eo_at_the_edge_cap_is_fast():
    # 40 edges; the backtracking search takes over 30 s here, the transfer
    # about 20-30 ms
    g = circulant_graph(10, (1, 2, 3, 4))
    assert g.edge_count == 40
    t0 = time.perf_counter()
    eo_count_bruteforce(g)
    assert time.perf_counter() - t0 < 1.0


def test_rt_golden_small():
    for n in (1, 3, 5, 7, 9, 11, 13):
        assert rt_count(n) == RT_COUNTS[n]
        assert RT_KNOWN_COUNTS[n] == RT_COUNTS[n]


def test_rt_parity_and_cap():
    with pytest.raises(DomainError):
        rt_count(4)
    with pytest.raises(DomainError):
        rt_count(-3)
    with pytest.raises(SizeLimitError):
        rt_count(23)


def test_balanced_digraph_counts():
    # n = 13 is checked by the timing gate below; n = 14 (over 1 s each)
    # is left to the CLI
    for n in range(1, 13):
        assert eulerian_digraph_count_bruteforce(n) == ED_COUNTS[n]
        assert eulerian_oriented_count_bruteforce(n) == EOG_COUNTS[n]
    for counter in (eulerian_digraph_count_bruteforce,
                    eulerian_oriented_count_bruteforce):
        with pytest.raises(DomainError):
            counter(0)
        with pytest.raises(SizeLimitError):
            counter(BALANCED_MAX_N + 1)


def test_balanced_counts_at_n13_are_fast():
    # each takes about 0.3-0.6 s
    for counter, table in ((eulerian_digraph_count_bruteforce, ED_COUNTS),
                           (eulerian_oriented_count_bruteforce, EOG_COUNTS)):
        t0 = time.perf_counter()
        assert counter(13) == table[13]
        assert time.perf_counter() - t0 < 10.0


def test_quadrature_triangle_families():
    k3 = complete_graph(3)
    assert abs(torus_integral_estimate(k3, (0, 1), 256) - 2) < 1e-6
    assert abs(torus_integral_estimate(k3, (Fraction(1, 3), Fraction(2, 3)), 256)
               - EOG_COUNTS[3]) < 1e-5
    assert abs(torus_integral_estimate(k3, (Fraction(1, 2), Fraction(1, 2)), 256)
               - ED_COUNTS[3]) < 1e-5


def test_quadrature_single_edge_vanishes():
    assert abs(torus_integral_estimate(complete_graph(2), (0, 1), 256)) < 1e-9


def test_quadrature_validates_scan_at_n4():
    k4 = complete_graph(4)
    assert abs(torus_integral_estimate(k4, (Fraction(1, 2), Fraction(1, 2)), 128)
               - ED_COUNTS[4]) < 1e-4
    assert abs(torus_integral_estimate(k4, (Fraction(1, 3), Fraction(2, 3)), 128)
               - EOG_COUNTS[4]) < 1e-5


def test_quadrature_preconditions():
    with pytest.raises(SizeLimitError):
        torus_integral_estimate(complete_graph(5), (0, 1), 256)
    with pytest.raises(DomainError):
        torus_integral_estimate(complete_graph(3), (0, 1), 32)
    with pytest.raises(DomainError):
        torus_integral_estimate(complete_graph(3), (Fraction(1, 2), Fraction(1, 3)))
