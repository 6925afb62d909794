from fractions import Fraction

import pytest

from eocount.errors import DomainError, SizeLimitError
from eocount.exact import (RT_KNOWN_COUNTS, eo_count_bruteforce,
                           eulerian_digraph_count_bruteforce,
                           eulerian_oriented_count_bruteforce, rt_count)
from eocount.graphs import Graph, circulant_graph, complete_graph, cycle_graph

from golden import ED_COUNTS, EOG_COUNTS, RT_COUNTS
from helpers import octahedron_graph, path_graph
from oracles import torus_integral_estimate


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
    for n, expected in ED_COUNTS.items():
        assert eulerian_digraph_count_bruteforce(n) == expected
    for n, expected in EOG_COUNTS.items():
        assert eulerian_oriented_count_bruteforce(n) == expected
    with pytest.raises(SizeLimitError):
        eulerian_oriented_count_bruteforce(6)


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
