"""Exact Gaussian moment/cumulant calculus.

Moments of products of centered jointly Gaussian variables are pairing sums
over the covariance (Isserlis/Wick); joint cumulants of monomials keep only
the pairings whose block-contraction graph is connected.  A generic
moment-to-cumulant recursion works over any commutative ring supporting +, -
and * (exact rationals, floats, truncated series), so the same code path
serves numeric estimation and series work.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

from .errors import SizeLimitError

ENUMERATION_MAX = 16


# ---------------------------------------------------------------------------
# combinatorial streams and counts

def enumerate_pairings(k: int) -> Iterator[list[tuple[int, int]]]:
    """All perfect matchings of {0..k-1}, each exactly once ((k-1)!! of them)."""
    if k > ENUMERATION_MAX:
        raise SizeLimitError(f"pairing enumeration capped at k={ENUMERATION_MAX}")
    if k % 2:
        return
    items = list(range(k))

    def rec(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            for tail in rec(rest[1:i] + rest[i + 1:]):
                yield [(a, b)] + tail

    yield from rec(items)


def enumerate_partitions(s: int) -> Iterator[list[list[int]]]:
    """All set partitions of {0..s-1} into nonempty blocks (Bell(s) of them)."""
    if s > ENUMERATION_MAX:
        raise SizeLimitError(f"partition enumeration capped at s={ENUMERATION_MAX}")
    if s == 0:
        yield []
        return

    def rec(i, blocks):
        if i == s:
            yield [b[:] for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def bell_number(s: int) -> int:
    """Bell numbers by the Bell triangle; no enumeration involved."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    row = [1]
    for _ in range(s):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def double_factorial(m: int) -> int:
    r = 1
    while m > 1:
        r *= m
        m -= 2
    return r


# ---------------------------------------------------------------------------
# Isserlis / Wick pairing sums

def isserlis_moment(cov: Sequence[Sequence], indices: Sequence[int]):
    """E of a product of centered jointly Gaussian variables.

    cov[u][v] is the covariance; indices is the variable multiset (0-based,
    repetitions allowed).  Zero for odd length, pairing sum otherwise.
    """
    k = len(indices)
    N = len(cov)
    for v in indices:
        if not 0 <= v < N:
            raise IndexError(f"variable index {v} out of range")
    if k % 2:
        return 0
    if k == 0:
        return 1
    total = 0
    for pairing in enumerate_pairings(k):
        term = 1
        for i, j in pairing:
            term = term * cov[indices[i]][indices[j]]
        total = total + term
    return total


def connected_pairings(parts: Sequence[Sequence[int]]) -> Iterator[list[tuple[int, int]]]:
    """Pairings of the disjoint union of the parts whose contraction graph on
    the parts is connected.

    Enumeration pairs the lowest unpaired point first and prunes a branch as
    soon as some union-find component has no unpaired point left while other
    parts remain outside it.
    """
    sizes = [len(p) for p in parts]
    k = sum(sizes)
    if k > ENUMERATION_MAX:
        raise SizeLimitError(f"pairing enumeration capped at k={ENUMERATION_MAX}")
    if k % 2:
        return
    r = len(parts)
    block_of = []
    for bi, sz in enumerate(sizes):
        block_of.extend([bi] * sz)

    parent = list(range(r))
    open_count = sizes[:]  # unpaired points per union-find root

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(unpaired: list[int]):
        if not unpaired:
            root = find(0)
            if all(find(b) == root for b in range(r)):
                yield []
            return
        a = unpaired[0]
        ba = block_of[a]
        for idx in range(1, len(unpaired)):
            b = unpaired[idx]
            bb = block_of[b]
            ra, rb = find(ba), find(bb)
            # tentative union + open-count update
            saved = (parent[ra], parent[rb], open_count[ra], open_count[rb])
            if ra != rb:
                parent[ra] = rb
                open_count[rb] += open_count[ra]
            root = find(ba)
            open_count[root] -= 2
            # prune: a closed component that is not everything is stuck
            viable = open_count[root] > 0 or all(find(x) == root for x in range(r))
            if viable:
                rest = unpaired[1:idx] + unpaired[idx + 1:]
                for tail in rec(rest):
                    yield [(a, b)] + tail
            open_count[root] += 2
            if ra != rb:
                parent[ra], open_count[rb] = saved[0], saved[3]
    yield from rec(list(range(k)))


def joint_cumulant_connected(cov, parts: Sequence[Sequence[int]]):
    """Joint cumulant of the monomials prod_{i in P_1} Z_i, ..., via the
    connected-pairing sum. Zero when the total index count is odd."""
    flat = [v for part in parts for v in part]
    total = 0
    for pairing in connected_pairings(parts):
        term = 1
        for i, j in pairing:
            term = term * cov[flat[i]][flat[j]]
        total = total + term
    return total


# ---------------------------------------------------------------------------
# generic moment -> cumulant conversion

def moments_to_cumulants(moments: Sequence) -> list:
    """kappa_1..kappa_r from raw moments m_1..m_r of a single variable, by
    kappa_r = m_r - sum_{j<r} C(r-1, j-1) kappa_j m_{r-j}.

    Ring elements only need +, -, * among themselves and by Python ints, so
    Fractions, floats, mpmath numbers and truncated Laurent series all work.
    """
    kappas: list = []
    for r in range(1, len(moments) + 1):
        k = moments[r - 1]
        for j in range(1, r):
            k = k - comb(r - 1, j - 1) * kappas[j - 1] * moments[r - j - 1]
        kappas.append(k)
    return kappas
