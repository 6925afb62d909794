"""Ground-truth exact counters: Eulerian orientations of small graphs and
balanced digraph/oriented-graph counts by one pruned transfer over vertex
pairs, regular tournaments by a residual-degree recurrence.  The pruned
backtracking search and the numeric cross-check by torus quadrature live in
the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from math import comb

from .errors import DomainError, SizeLimitError
from .graphs import Graph, all_degrees_even

EO_MAX_EDGES = 40
RT_MAX_N = 21
BALANCED_SCAN_MAX_N = 5

# Exact counts of labelled regular tournaments, for cross-checks and CLI
# reporting.  Entries for n <= 21 are reproduced by rt_count.
RT_KNOWN_COUNTS: dict[int, int] = {
    1: 1,
    3: 2,
    5: 24,
    7: 2640,
    9: 3230080,
    11: 48251508480,
    13: 9307700611292160,
    15: 24061983498249428379648,
    17: 855847205541481495117975879680,
    19: 427102683126284520201657800159366676480,
    21: 3035991776725501434069099002640396043332019814400,
    23: 311112533558482034321687955029997989477274014274150137856000,
    25: 464117534102335907615319841214866228971154350368762035567909798177406976,
    27: 10161379494935951628617799577075865434480255823888279881937948307747797076834831564800,
    29: 3287442487574407143703099545617073045735818609033816899441555600747117933832971553931993016172544000,
    31: 15808031329378794811348365612259484634453232842011608717952713991078379571024621662189552251062395890697517400064000,
    33: 1135533166724134095070627943251557483560333942677033922296317224370416674548473291631865213070402802521103574222617221588286701568000,
    35: 1223864454620140329175709860021247258263958465658118061589271234790021868020119571675308650674216477578535347448622390705831442351970257728013137346560,
    37: 19868186153037961435683620207063930198200744969481152324905085973125018814239611140803845482389539449176375862818455686143415694063802642548474151771534651864859541504000,
}


# ---------------------------------------------------------------------------
# Balanced assignments by a transfer over the pairs

def _balanced_count(pairs: list[tuple[int, int]], moves) -> int:
    """Weighted count of the ways to give every pair (j, k) one move that
    leave every vertex balanced.

    A move (d, weight) adds d to the imbalance of j and -d to that of k, with
    |d| <= 1; the moves must be closed under d -> -d with equal weights.  The
    pairs are taken in order; a state, the imbalances of the vertices met in
    ``pairs`` by first appearance, maps to its weighted ways.  A state is
    dropped once some vertex's |imbalance| exceeds its pairs left, so closed
    vertices are 0 and equal states merge.  Reversing every move is an
    involution, so the first pair takes only d >= 0, weight doubled if d > 0.
    """
    left = Counter(chain.from_iterable(pairs))   # pairs still to assign
    slot = {v: i for i, v in enumerate(left)}
    states = {(0,) * len(slot): 1}
    choices = [(d, 2 * w if d else w) for d, w in moves if d >= 0]
    for j, k in pairs:
        left[j] -= 1
        left[k] -= 1
        a, b, lj, lk = slot[j], slot[k], left[j], left[k]
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways in states.items():
            s = list(state)
            for d, weight in choices:
                s[a], s[b] = state[a] + d, state[b] - d
                if abs(s[a]) <= lj and abs(s[b]) <= lk:
                    key = tuple(s)
                    nxt[key] = nxt.get(key, 0) + ways * weight
        states = nxt
        choices = moves
    return sum(states.values())


def eo_count_bruteforce(g: Graph) -> int:
    """Exact number of Eulerian orientations by the vertex-major transfer.

    Edges are taken in sorted order, so all edges at the smallest vertex come
    first and its balance closes early; each edge gets one of two
    directions.
    """
    if g.edge_count > EO_MAX_EDGES:
        raise SizeLimitError(f"eo_count_bruteforce capped at {EO_MAX_EDGES} edges")
    if not all_degrees_even(g):
        return 0
    return _balanced_count(sorted(g.edges), ((1, 1), (-1, 1)))


# ---------------------------------------------------------------------------
# Regular tournaments by residual-degree recurrence

def rt_count(n: int) -> int:
    """Number of regular tournaments on n labelled vertices (n odd).

    Vertex-elimination recurrence: repeatedly remove a vertex of maximal
    remaining out-degree requirement and choose which opponents beat it.
    States are sorted residual tuples.  A state's other residuals are walked
    block by block, equal values together and rising, with one dict keyed by
    (new residuals so far, wins still needed): from a block of c residuals
    v >= 1, b of them beat the removed vertex in comb(c, b) ways and drop to
    v - 1.  A residual drops by at most one and the blocks rise, so every new
    state is sorted as built.  A branch that the later blocks cannot finish
    is cut at once, so every branch past the last block is a new state; the
    one vertex left after n - 1 eliminations must have residual 0.
    """
    if n < 1 or n % 2 == 0:
        raise DomainError("regular tournaments need a positive odd vertex count")
    if n > RT_MAX_N:
        raise SizeLimitError(f"rt_count capped at n={RT_MAX_N}")
    s = (n - 1) // 2
    layer: dict[tuple[int, ...], int] = {(s,) * n: 1}
    for _ in range(n - 1):
        nxt: dict[tuple[int, ...], int] = {}
        for state, weight in layer.items():
            k = len(state) - 1       # eliminate a max-residual vertex
            part = {((), k - state[-1]): weight}
            i = 0
            while i < k:
                v = state[i]
                j = i + 1
                while j < k and state[j] == v:
                    j += 1
                c, left = j - i, k - j
                step: dict[tuple[tuple[int, ...], int], int] = {}
                for (new, need), ways in part.items():
                    # the left residuals after this block are all >= 1 and
                    # can cover at most left wins; a negative need has no b
                    for b in range(max(need - left, 0), min(c if v else 0, need) + 1):
                        key = (new + (v - 1,) * b + (v,) * (c - b), need - b)
                        step[key] = step.get(key, 0) + ways * comb(c, b)
                part = step
                i = j
            for (new, _), ways in part.items():
                nxt[new] = nxt.get(new, 0) + ways
        layer = nxt
    return layer.get((0,), 0)


# ---------------------------------------------------------------------------
# Balanced digraphs / oriented graphs: every vertex pair of K_n

def _all_pairs(n: int) -> list[tuple[int, int]]:
    if n < 1:
        raise DomainError("need n >= 1")
    if n > BALANCED_SCAN_MAX_N:
        raise SizeLimitError(f"exhaustive scan capped at n={BALANCED_SCAN_MAX_N}")
    return list(combinations(range(n), 2))


def eulerian_digraph_count_bruteforce(n: int) -> int:
    """Balanced digraphs on n labelled vertices: each unordered pair carries
    any subset of the two opposite arcs (2-cycles allowed).  "No arc" and
    "both arcs" leave the balance alone and form one move of weight 2."""
    return _balanced_count(_all_pairs(n), ((0, 2), (1, 1), (-1, 1)))


def eulerian_oriented_count_bruteforce(n: int) -> int:
    """Balanced oriented graphs on n labelled vertices: at most one arc per
    unordered pair."""
    return _balanced_count(_all_pairs(n), ((0, 1), (1, 1), (-1, 1)))
