"""Ground-truth exact counters: Eulerian orientations of small graphs by a
pruned transfer over the edges, and regular tournaments, balanced digraphs
and balanced oriented graphs by one vertex-elimination count over the pairs
of K_n.  The pruned backtracking search and the numeric cross-check by torus
quadrature live in the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import comb
from typing import TYPE_CHECKING

from .errors import DomainError, SizeLimitError

if TYPE_CHECKING:
    from .graphs import Graph

EO_MAX_EDGES = 40
RT_MAX_N = 21
BALANCED_MAX_N = 14   # ED, EOG: 1.4 s at n = 14 (16 MiB), 6 s at 15 (2 cores, CPython 3.11)

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

def _balanced_count(pairs: list[tuple[int, int]]) -> int:
    """Number of ways to orient every pair (j, k) that leave every vertex
    balanced.

    The pairs are taken in order; a state, the imbalances of the vertices met
    in ``pairs`` by first appearance, maps to its ways.  A state is dropped
    once some vertex's |imbalance| exceeds its pairs left, so closed vertices
    are 0 and equal states merge.  Reversing every arc is an involution, so
    the first pair takes one direction and the ways start at 2.
    """
    left = Counter(chain.from_iterable(pairs))   # pairs still to assign
    slot = {v: i for i, v in enumerate(left)}
    states = {(0,) * len(slot): 2 if pairs else 1}
    dirs = (1,)
    for j, k in pairs:
        left[j] -= 1
        left[k] -= 1
        a, b, lj, lk = slot[j], slot[k], left[j], left[k]
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways in states.items():
            s = list(state)
            for d in dirs:
                s[a], s[b] = state[a] + d, state[b] - d
                if abs(s[a]) <= lj and abs(s[b]) <= lk:
                    key = tuple(s)
                    nxt[key] = nxt.get(key, 0) + ways
        states = nxt
        dirs = (1, -1)
    return sum(states.values())


def eo_count_bruteforce(g: Graph) -> int:
    """Exact number of Eulerian orientations by the transfer over the edges
    in sorted order, so all edges at the smallest vertex come first and its
    balance closes early."""
    from .graphs import all_degrees_even  # graphs loads for this counter alone
    if g.edge_count > EO_MAX_EDGES:
        raise SizeLimitError(f"eo_count_bruteforce capped at {EO_MAX_EDGES} edges")
    if not all_degrees_even(g):
        return 0
    return _balanced_count(sorted(g.edges))


# ---------------------------------------------------------------------------
# Every pair of K_n: regular tournaments, balanced (oriented) digraphs

def _kn_count(n: int, w0: int, w1: int) -> int:
    """Weighted count of the balanced ways to treat every pair of K_n: "no
    arc" weighs w0 and each of the two arcs weighs w1.

    A state, the sorted imbalances of the vertices left, kept canonical under
    negation, maps to its ways.  Each step eliminates a vertex of largest
    |imbalance| and walks the others in blocks of equal value v, with one
    dict keyed by (new values so far, arcs still needed): of a block of c, up
    go to v + 1 and dn to v - 1, supplying up - dn arcs, and the rest stay,
    in C(c, up) C(c - up, dn) w1^(up + dn) w0^(c - up - dn) ways.  A branch
    is cut when the later blocks cannot supply the arcs needed, when a new
    |imbalance| exceeds the pairs left, or, if w0 = 0, when a vertex stays.
    """
    layer: dict[tuple[int, ...], int] = {(0,) * n: 1}
    for _ in range(n - 1):
        nxt: dict[tuple[int, ...], int] = {}
        for state, weight in layer.items():
            if -state[0] > state[-1]:        # eliminate the last vertex
                state = tuple(-x for x in reversed(state))
            k = len(state) - 1
            part = {((), state[-1]): weight}
            left = k
            for v, c in Counter(state[:k]).items():   # blocks, rising
                left -= c
                moves = [(up - dn, (v - 1,) * dn + (v,) * (c - up - dn) + (v + 1,) * up,
                          comb(c, up) * comb(c - up, dn) * w1 ** (up + dn) * w0 ** (c - up - dn))
                         for up in range(c + 1 if v < k - 1 else 1)
                         for dn in range(c - up + 1 if v > 1 - k else 1)
                         if w0 or up + dn == c]
                step: dict[tuple[tuple[int, ...], int], int] = {}
                for (new, need), ways in part.items():
                    for arcs, seg, mult in moves:
                        if -left <= need - arcs <= left:
                            key = (new + seg, need - arcs)
                            step[key] = step.get(key, 0) + ways * mult
                part = step
            for (new, _), ways in part.items():
                new = tuple(sorted(new))
                key = min(new, tuple(-x for x in reversed(new)))
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return layer.get((0,), 0)


def rt_count(n: int) -> int:
    """Number of regular tournaments on n labelled vertices (n odd): every
    pair carries exactly one arc."""
    if n < 1 or n % 2 == 0:
        raise DomainError("regular tournaments need a positive odd vertex count")
    if n > RT_MAX_N:
        raise SizeLimitError(f"rt_count capped at n={RT_MAX_N}")
    return _kn_count(n, 0, 1)


def _balanced_guard(n: int) -> None:
    if n < 1:
        raise DomainError("need n >= 1")
    if n > BALANCED_MAX_N:
        raise SizeLimitError(f"balanced counts capped at n={BALANCED_MAX_N}")


def eulerian_digraph_count_bruteforce(n: int) -> int:
    """Balanced digraphs on n labelled vertices: each unordered pair carries
    any subset of the two opposite arcs (2-cycles allowed).  "No arc" and
    "both arcs" leave the balance alone, so staying weighs 2."""
    _balanced_guard(n)
    return _kn_count(n, 2, 1)


def eulerian_oriented_count_bruteforce(n: int) -> int:
    """Balanced oriented graphs on n labelled vertices: at most one arc per
    unordered pair."""
    _balanced_guard(n)
    return _kn_count(n, 1, 1)
