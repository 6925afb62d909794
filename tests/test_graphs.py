import json
import random
import time
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eocount.errors import DomainError, SizeLimitError
from eocount.graphs import (DENSE_MAX_N, GRAPH_FILE_MAX_N, LANE_BITS, Graph,
                            _adjugate_row, _eliminated, all_degrees_even, cheeger_constant,
                            circulant_classes, circulant_graph, complete_graph,
                            complete_multipartite, cycle_graph,
                            l_plus_j_adjugate, load_graph,
                            parse_edge_list, parse_graph_json,
                            spanning_tree_count)
from helpers import graph_to_json, laplacian, octahedron_graph, path_graph, shuffled
from oracles import cheeger_gray_code, gauss_jordan_adjugate


# ---------------------------------------------------------------------------
# independent oracles

def spanning_trees_bruteforce(g: Graph) -> int:
    """Count edge subsets of size n-1 that connect all vertices."""
    edges = sorted(g.edges)
    count = 0
    for sub in combinations(edges, g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        comps = g.n
        for u, v in sub:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        if comps == 1:
            count += 1
    return count


def cheeger_bruteforce(g: Graph) -> Fraction:
    best = None
    for size in range(1, g.n // 2 + 1):
        for U in combinations(range(g.n), size):
            inside = set(U)
            cut = sum(1 for u, v in g.edges if (u in inside) != (v in inside))
            r = Fraction(cut, size)
            if best is None or r < best:
                best = r
    return best


# ---------------------------------------------------------------------------

def test_laplacian_examples():
    assert laplacian(complete_graph(2)) == [[1, -1], [-1, 1]]
    assert laplacian(complete_graph(3)) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert laplacian(path_graph(3)) == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


def test_laplacian_quadratic_form():
    rng = random.Random(42)
    for g in [complete_graph(5), cycle_graph(6), octahedron_graph(),
              circulant_graph(8, (1, 2))]:
        L = laplacian(g)
        assert all(sum(row) == 0 for row in L)
        for _ in range(10):
            x = [rng.randint(-9, 9) for _ in range(g.n)]
            quad = sum(x[i] * L[i][j] * x[j]
                       for i in range(g.n) for j in range(g.n))
            direct = sum((x[u] - x[v]) ** 2 for u, v in g.edges)
            assert quad == direct


def test_spanning_tree_examples():
    assert spanning_tree_count(path_graph(6)) == 1
    assert spanning_tree_count(complete_graph(4)) == 16
    assert spanning_tree_count(cycle_graph(5)) == 5
    assert spanning_tree_count(complete_graph(4)) == spanning_trees_bruteforce(complete_graph(4))
    assert spanning_tree_count(cycle_graph(5)) == spanning_trees_bruteforce(cycle_graph(5))
    assert spanning_tree_count(octahedron_graph()) == spanning_trees_bruteforce(octahedron_graph())


def test_spanning_tree_disconnected_is_zero():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert spanning_tree_count(g) == 0


def test_elimination_gives_tau_and_adjugate():
    graphs = [path_graph(6), cycle_graph(5), complete_graph(5),
              octahedron_graph(), circulant_graph(7, (1, 2)),
              circulant_graph(8, (1, 2)), Graph.from_edges(2, [(0, 1)])]
    for g in graphs:
        tau, adj = l_plus_j_adjugate(g)
        assert tau == spanning_trees_bruteforce(g)
        # adj (L + J) = det(L + J) I with det = n^2 tau
        A = [[x + 1 for x in row] for row in laplacian(g)]
        assert [[sum(adj[i][k] * A[k][j] for k in range(g.n))
                 for j in range(g.n)] for i in range(g.n)] == \
            [[g.n ** 2 * tau * (i == j) for j in range(g.n)] for i in range(g.n)]
    for g in (Graph.from_edges(4, [(0, 1), (2, 3)]),
              Graph.from_edges(5, [(1, 2), (2, 3), (3, 1)]), Graph(0, frozenset())):
        assert l_plus_j_adjugate(g) == (0, None)
    assert l_plus_j_adjugate(Graph(1, frozenset())) == (1, [[1]])
    with pytest.raises(SizeLimitError):
        spanning_tree_count(Graph(DENSE_MAX_N + 1, frozenset()))


@st.composite
def graphs_of_any_density(draw, max_n):
    """Graphs on 0..max_n vertices, each pair an edge with probability
    density/8 for a drawn density 0..8: empty to complete, disconnected ones
    included."""
    n = draw(st.integers(0, max_n))
    density = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    draws = draw(st.lists(st.integers(0, 7), min_size=len(pairs),
                          max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, x in zip(pairs, draws) if x < density])


@settings(max_examples=200, deadline=None)
@given(graphs_of_any_density(14))
def test_bareiss_back_sweep_matches_full_gauss_jordan(g):
    tau, adj = result = l_plus_j_adjugate(g)
    assert result == gauss_jordan_adjugate(g)
    assert (result == (0, None)) == (not g.is_connected())
    if adj is not None:
        assert all(adj[i][j] == adj[j][i]
                   for i in range(g.n) for j in range(i))


@settings(max_examples=200, deadline=None)
@given(graphs_of_any_density(14))
def test_one_row_solve_matches_the_back_sweep(g):
    # row r of adj(L + J), r the vertex at the last position, on both sides
    # of the density rule and on disconnected graphs
    tau, adj = l_plus_j_adjugate(g)
    got, r, row = _adjugate_row(g)
    assert got == tau
    assert row == (adj[r] if adj else None)


@settings(max_examples=200, deadline=None)
@given(graphs_of_any_density(14))
def test_forward_pass_tau_matches_the_adjugate_route(g):
    assert spanning_tree_count(g) == l_plus_j_adjugate(g)[0]


def test_elimination_closed_forms():
    # K_n: L + J = n I, so det = n^n, tau = n^(n-2) and adj = n^(n-1) I; the
    # elimination runs on L + J, whose band in any order is 0
    for n in range(2, 121):
        tau, adj = l_plus_j_adjugate(complete_graph(n))
        assert tau == n ** (n - 2)
        assert adj == [[n ** (n - 1) * (i == j) for j in range(n)]
                       for i in range(n)]
    # C_n: n spanning trees; (L + J) 1 = n 1, so every row of adj sums to
    # det/n = n tau
    for n in range(3, 61):
        tau, adj = l_plus_j_adjugate(cycle_graph(n))
        assert tau == n
        assert all(sum(row) == n * n for row in adj)
    for g in (circulant_graph(40, (1, 6, 19)), circulant_graph(60, (1, 2, 3, 4)),
              complete_multipartite(3, 3, 2)):
        assert l_plus_j_adjugate(g) == gauss_jordan_adjugate(g)


def test_dense_disconnected_graphs_are_singular():
    # K_(n-1) plus an isolated vertex, first or last: L + J is singular
    for n in range(4, 21):
        for isolated in (0, n - 1):
            rest = [v for v in range(n) if v != isolated]
            g = Graph.from_edges(n, combinations(rest, 2))
            assert _eliminated(g)[0] == (n == 4)  # L_0 only at 4m = n(n-1)
            assert l_plus_j_adjugate(g) == (0, None)
            assert spanning_tree_count(g) == 0


def test_both_sides_of_the_density_rule_match_full_gauss_jordan():
    # 4m = n(n-1) still grounds L; one edge more eliminates L + J
    rng = random.Random(26)
    for n in (4, 5, 8, 9, 12, 13, 16):
        pairs = list(combinations(range(n), 2))
        for extra in (0, 1):
            for _ in range(4):
                g = Graph.from_edges(n, rng.sample(pairs, len(pairs) // 2 + extra))
                assert _eliminated(g)[0] == (not extra)
                expected = gauss_jordan_adjugate(g)
                assert l_plus_j_adjugate(g) == expected
                assert spanning_tree_count(g) == expected[0]


@pytest.mark.parametrize("n", [100, 200, 300])
def test_circulant_tau_matches_the_eigenvalue_product(n):
    # tau(C_n(1,2,3)) = (1/n) prod_{k=1}^{n-1} sum_d (2 - 2 cos(2 pi k d/n)),
    # no elimination at all; each factor is at most 12, so tau < 12^n
    offsets = (1, 2, 3)
    with mpmath.workprec(4 * n + 64):
        product = mpmath.fprod(
            mpmath.fsum(2 - 2 * mpmath.cos(2 * mpmath.pi * k * d / n)
                        for d in offsets)
            for k in range(1, n))
        expected = int(mpmath.nint(product / n))
    assert spanning_tree_count(circulant_graph(n, offsets)) == expected


def test_banded_elimination_is_fast():
    # sparse: 0.016 s on C300(1,2,3) (2.6 s for the dense forward pass);
    # dense: 2.7 ms on K100, whose L + J is 100 I (29 ms dense), on 2 shared
    # cores with CPython 3.11
    for fn, g, limit in ((spanning_tree_count, circulant_graph(300, (1, 2, 3)), 0.5),
                         (l_plus_j_adjugate, complete_graph(100), 0.2)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn(g)
            times.append(time.perf_counter() - t0)
        assert min(times) < limit, f"{fn.__name__}: best of 3 {min(times):.3f}s"


def test_cheeger_examples():
    assert cheeger_constant(complete_graph(2)) == 1
    assert cheeger_constant(cycle_graph(4)) == 1
    assert cheeger_constant(complete_graph(4)) == 2


def test_cheeger_complete_graphs():
    # vertex 0 is fixed: K2 has no lane above it, K3 one lane and no walk
    for n in range(2, 11):
        expected = Fraction((n + 1) // 2)
        assert cheeger_constant(complete_graph(n)) == expected
        assert cheeger_bruteforce(complete_graph(n)) == expected


def test_cheeger_matches_bruteforce_on_assorted_graphs():
    for g in [cycle_graph(6), octahedron_graph(), circulant_graph(8, (1, 2)),
              path_graph(5)]:
        assert cheeger_constant(g) == cheeger_bruteforce(g)


@st.composite
def random_graphs(draw, max_n):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(random_graphs(9))
def test_cheeger_matches_bruteforce_on_random_graphs(g):
    assert cheeger_constant(g) == cheeger_bruteforce(g)


@settings(max_examples=100, deadline=None)
@given(random_graphs(16))
def test_cheeger_matches_gray_code_scan_on_random_graphs(g):
    # n > LANE_BITS + 1 walks the vertices above the lanes
    assert cheeger_constant(g) == cheeger_gray_code(g)


def test_cheeger_fixed_cases():
    for n in (2, 3, 5, LANE_BITS + 1, LANE_BITS + 3, 16):
        assert cheeger_constant(Graph(n, frozenset())) == 0  # edgeless
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    assert cheeger_constant(two_triangles) == 0
    rng = random.Random(7)
    for n in (LANE_BITS + 1, LANE_BITS + 2):  # walks of one and two vertices
        for p in (0.3, 0.6):
            g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                     if rng.random() < p])
            assert cheeger_constant(g) == cheeger_gray_code(g)
        assert cheeger_constant(cycle_graph(n)) == Fraction(2, n // 2)
    c18 = circulant_graph(18, (1, 4, 7))
    assert cheeger_constant(c18) == cheeger_gray_code(c18)
    # an isolated top vertex: the zero cut is S = {0..n-2}, at the step
    # where B holds every walked vertex
    g = Graph.from_edges(16, combinations(range(15), 2))
    assert cheeger_constant(g) == cheeger_gray_code(g) == 0


def _two_cliques(n, small):
    """K_{n-small} on the low labels and K_small on the top ones, joined by
    the edge (n - small - 1, n - 1)."""
    big = n - small
    return Graph.from_edges(n, [*combinations(range(big), 2),
                                *combinations(range(big, n), 2),
                                (big - 1, n - 1)])


def _half_edges(n, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [p for p in combinations(range(n), 2)
                                if rng.random() < 0.5])


@pytest.mark.parametrize("g, h", [
    (circulant_graph(18, (1, 3, 8)), Fraction(20, 9)),
    (circulant_graph(18, (1, 4, 8)), Fraction(2)),
    (circulant_graph(22, (1, 3, 8)), Fraction(24, 11)),
    # m = 231, the largest lane values (2m = 462) the size cap allows
    (complete_graph(22), Fraction(11)),
    (cycle_graph(22), Fraction(2, 11)),
    (_two_cliques(22, 11), Fraction(1, 11)),
    (_half_edges(20, 24), Fraction(33, 10)),
], ids=["C18(1,3,8)", "C18(1,4,8)", "C22(1,3,8)", "K22", "C22",
        "2K11+bridge", "G(20,1/2) seed 24"])
def test_cheeger_pinned_past_the_lanes(g, h):
    assert cheeger_constant(g) == h == cheeger_gray_code(g)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cheeger_sparsest_cut_among_the_walked_vertices(data):
    # the sparsest cut splits off the small clique on the top labels, so a
    # late Gray step must pass the screen; fewer lanes walk more vertices
    lane_bits = data.draw(st.integers(1, LANE_BITS), label="lane_bits")
    n = data.draw(st.integers(lane_bits + 2, 16), label="n")
    small = data.draw(st.integers(1, n // 2), label="small")
    g = _two_cliques(n, small)
    with patch("eocount.graphs.LANE_BITS", lane_bits):
        assert cheeger_constant(g) == Fraction(1, small) == cheeger_gray_code(g)


@st.composite
def circulants(draw, max_n):
    # gcd(n, S) > 1 gives a disconnected graph, and S empty an edgeless one
    n = draw(st.integers(2, max_n), label="n")
    return circulant_graph(n, sorted(draw(st.sets(st.integers(1, n // 2)), label="S")))


@settings(max_examples=150, deadline=None)
@given(circulants(16), st.integers(0, 2**32))
def test_cheeger_on_circulants_fixes_vertex_0(g, seed):
    # in its own labels the scan keeps vertex 0 in S; relabelled, it runs
    # the general path over every S
    h = cheeger_constant(g)
    assert h == cheeger_gray_code(g) == cheeger_constant(shuffled(g, seed))
    if g.n <= 10:
        assert h == cheeger_bruteforce(g)


@settings(max_examples=100, deadline=None)
@given(circulants(16), st.integers(1, LANE_BITS), st.integers(0, 2**32))
def test_cheeger_on_circulants_with_fewer_lanes(g, lane_bits, seed):
    # fewer lanes walk more vertices above vertex 0 and the lanes
    with patch("eocount.graphs.LANE_BITS", lane_bits):
        assert cheeger_constant(g) == cheeger_gray_code(g) \
            == cheeger_constant(shuffled(g, seed))


def test_circulant_classes_find_the_rotation():
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            for offsets in combinations(range(1, n // 2 + 1), r):
                g = circulant_graph(n, offsets)
                assert circulant_classes(g) == {s: n // 2 if 2 * s == n else n
                                                for s in offsets}
    c18 = circulant_graph(18, (1, 3, 8))
    assert circulant_classes(Graph(18, sorted(c18.edges)[1:])) == {}
    assert circulant_classes(shuffled(c18, 1)) == {}
    assert cheeger_constant(shuffled(c18, 1)) == Fraction(20, 9)


@pytest.mark.parametrize("g", [complete_graph(22), circulant_graph(22, (1, 3, 8))],
                         ids=["K22", "C22(1,3,8)"])
def test_cheeger_scan_at_the_size_cap_is_fast(g):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        cheeger_constant(g)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.05, f"best of 3: {min(times):.3f}s"


def test_cheeger_preconditions():
    with pytest.raises(DomainError):
        cheeger_constant(complete_graph(1))
    with pytest.raises(SizeLimitError):
        cheeger_constant(path_graph(30))


def test_connectivity_of_tiny_graphs():
    # the empty graph has no spanning tree, so it is not connected
    assert not Graph(0, frozenset()).is_connected()
    assert spanning_tree_count(Graph(0, frozenset())) == 0
    assert Graph(1, frozenset()).is_connected()
    assert spanning_tree_count(Graph(1, frozenset())) == 1
    assert not Graph(2, frozenset()).is_connected()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                                  st.integers(0, max(n - 1, 0)))))))
def test_connectivity_agrees_with_the_spanning_tree_count(case):
    n, pairs = case
    g = Graph(n, frozenset((u, v) for u, v in pairs if u < v))
    assert g.is_connected() == (spanning_tree_count(g) > 0)


def test_connectivity_of_disconnected_graphs():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    assert not two_triangles.is_connected()
    assert not Graph.from_edges(4, [(0, 1), (1, 2)]).is_connected()
    assert Graph.from_edges(4, [(0, 1), (1, 2), (3, 2)]).is_connected()


def test_all_degrees_even():
    assert all_degrees_even(cycle_graph(4))
    assert not all_degrees_even(complete_graph(4))
    assert all_degrees_even(complete_graph(5))


def test_graphs_count_their_degrees_as_they_check_the_pairs():
    # the edge rule counts the degrees in the pass that checks the pairs
    rng = random.Random(5)
    for n in (0, 1, 2, 7, 30):
        pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.4]
        recount = [sum(v in e for e in pairs) for v in range(n)]
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
        assert g.edges == frozenset(pairs) and list(g.degrees) == recount
        text = "\n".join([str(n)] + [f"{u + 1} {v + 1}" for u, v in pairs])
        assert list(parse_edge_list(text).degrees) == recount


def test_graph_validation():
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(0, 5)])
    for pairs in ([(0, 1), (1, 0)], [(1, 2), (0, 1), (1, 2)]):
        # the same undirected edge twice is rejected, not merged
        with pytest.raises(DomainError, match="repeated edge"):
            Graph.from_edges(3, pairs)
    assert Graph.from_edges(3, [(1, 0), (2, 1)]).edges == {(0, 1), (1, 2)}
    # the edge rule of the graph files: a pair is two ints, never a bool
    for pair in ((0, 1, 2), (0.0, 1.0), (True, 2), "ab", {0, 1}):
        with pytest.raises(DomainError, match="bad edge"):
            Graph.from_edges(3, [pair])
    with pytest.raises(DomainError, match="nonnegative"):
        Graph(-1, frozenset())
    for pairs in ([], [(0, 1)]):
        with pytest.raises(DomainError, match="nonnegative"):
            Graph.from_edges(-1, pairs)
    # a direct Graph follows the same rule: either order, labels 0..n-1
    assert Graph(3, {(1, 0)}).edges == {(0, 1)}
    for edges in ({(0, 3)}, {(-1, 1)}):
        with pytest.raises(DomainError, match=r"out of range 0\.\.2"):
            Graph(3, edges)
    with pytest.raises(DomainError, match="n >= 3"):
        cycle_graph(2)
    with pytest.raises(DomainError, match="self-loop"):
        circulant_graph(5, [5])
    for n in (0, -3):  # not a ZeroDivisionError from the offset's residue
        with pytest.raises(DomainError, match="n >= 1"):
            circulant_graph(n, [1])


# bad pairs on labels 0..2, and the refusal that names them from label base b
BAD_PAIRS = [
    ([[1, 1]], lambda b: f"self-loop at vertex {1 + b}"),
    ([[0, 1], [0, 1]], lambda b: f"repeated edge ({b}, {1 + b})"),
    ([[0, 2], [2, 0]], lambda b: f"repeated edge ({2 + b}, {b})"),
    ([[0, 3]], lambda b: f"edge ({b}, {3 + b}) out of range {b}..{2 + b}"),
    ([[-1, 1]], lambda b: f"edge ({b - 1}, {1 + b}) out of range {b}..{2 + b}"),
    ([[True, 1]], lambda b: f"bad edge: [True, {1 + b}]"),
    ([[0.0, 1]], lambda b: f"bad edge: [0.0, {1 + b}]"),
    ([[0, 1, 2]], lambda b: f"bad edge: [{b}, {1 + b}, {2 + b}]"),
]


@pytest.mark.parametrize("pairs, refusal", BAD_PAIRS)
def test_every_entry_point_refuses_a_bad_pair_alike(pairs, refusal):
    # one edge rule behind Graph, from_edges and both file formats; the
    # files' labels are 1-based, so their refusals name labels one higher
    one_based = [[x + 1 if type(x) is int else x for x in pair] for pair in pairs]
    text = "3\n" + "".join(" ".join(map(str, pair)) + "\n" for pair in one_based)
    # a bool or a float is no pair in a text file: its token is refused first
    in_text = all(type(x) is int for pair in pairs for x in pair)
    for build, message in (
            (lambda: Graph(3, pairs), refusal(0)),
            (lambda: Graph.from_edges(3, pairs), refusal(0)),
            (lambda: parse_graph_json({"n": 3, "edges": one_based}), refusal(1)),
            (lambda: parse_edge_list(text), refusal(1) if in_text else
             "graph file has a token that is not an integer")):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == message


def test_parse_edge_list():
    g = parse_edge_list("3\n1 2\n2 3\n")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})
    for text in ("2\n1 3\n", "", "abc\n", "3\n1 x\n", "3\n1 2 3\n",
                 "3\n1 2\n2 1\n"):
        with pytest.raises(DomainError):
            parse_edge_list(text)
    # errors name the file's 1-based labels
    with pytest.raises(DomainError, match="self-loop at vertex 2"):
        parse_edge_list("3\n2 2\n")
    with pytest.raises(DomainError, match=r"repeated edge \(3, 2\)"):
        parse_edge_list("3\n2 3\n1 2\n3 2\n")
    assert parse_edge_list(f"{GRAPH_FILE_MAX_N}\n").n == GRAPH_FILE_MAX_N
    # the cap comes before any edge line is read: "1 x" would be a DomainError
    for text in (f"{GRAPH_FILE_MAX_N + 1}\n", "10000000000\n1 x\n"):
        with pytest.raises(SizeLimitError):
            parse_edge_list(text)
    with pytest.raises(SizeLimitError):
        parse_graph_json({"n": 10**10, "edges": []})


def test_load_graph_reads_the_format_of_the_first_nonblank_line(tmp_path):
    files = {"lead.edges": "\n  \n# K3\n3\n\n1 2\r\n2 3\n# done\n3 1\n",
             "lead.json": '\n\n  {"n": 3,\n "edges": [[1, 2], [2, 3],\n [3, 1]]}\n'}
    for name, text in files.items():
        p = tmp_path / name
        p.write_text(text)
        assert load_graph(str(p)) == complete_graph(3)
    for text in ("", " \n\n", "# only a comment\n", "# c\n{}\n"):
        p = tmp_path / "bad.edges"
        p.write_text(text)
        with pytest.raises(DomainError):
            load_graph(str(p))


def test_graphs_compare_and_hash_by_vertex_count_and_edges():
    k4 = complete_graph(4)
    same = Graph.from_edges(4, [(v, u) for u, v in sorted(k4.edges, reverse=True)])
    assert same == k4 and hash(same) == hash(k4) and len({k4, same}) == 1
    assert k4 != Graph(5, k4.edges) and k4 != cycle_graph(4)
    assert k4 != (k4.n, k4.edges)


def test_json_round_trip():
    g = circulant_graph(8, (1, 2))
    blob = json.dumps(graph_to_json(g))
    assert parse_graph_json(blob) == g
