"""Slow or independent reference routes kept for the tests.

The package ships one route per computation; these are the second routes the
tests check it against, and the combinatorics only they use:

* Gaussian pairing sums: the set-partition and perfect-matching streams
  ``enumerate_partitions`` and ``enumerate_pairings`` (at most
  ``ENUMERATION_MAX`` points) with ``bell_number``, the Isserlis moment
  ``isserlis_moment`` and the connected-pairing joint cumulant
  ``joint_cumulant_connected`` over ``connected_pairings``;
* partition types of a power-sum monomial: ``enumerate_partition_types``
  and ``count_partition_types`` with the index and position weights
  ``a_coeff`` and ``b_coeff`` (a partition type is a multiset of cells, a
  cell a multiset of exponents sharing one coordinate index; cells with odd
  exponent sum contribute zero, so enumeration prunes them by default), the
  univariate ``gaussian_power_moment`` and the falling factorials;
* power-sum moments: the partition-type sum ``mu_moment_via_types`` and the
  set-partition sum ``set_partition_moment_oracle`` (against ``mu_moment``,
  the uncentered moment rebuilt from the recurrence's centered ones), with
  the realization counts of partition types, and the centered moments
  ``centered_moment_oracle``, solved from the type sums through the
  independence of xbar and y = x - xbar 1 (against the recurrence itself);
* joint cumulants: the partition sum ``joint_cumulant_partition_sum``
  (against the connected-pairing sum), with ``stirling_second`` and
  ``partition_factorial_sum``;
* the series engine's inputs: ``f_direct`` and ``evaluate_mu_polynomial``
  (f_K by its edge-sum definition, and from the map {l: c_l} of
  ``f_as_mu_polynomial`` in the power-sum basis of ``f_power_sums``, which
  expands each T_l term by term, against the engine's folded T_l), the
  moments ``moments_of_f_via_series`` (the powers of f on Fraction
  coefficients, against the moments rebuilt from the series' cumulants),
  and its
  joint cumulants ``t_joint_cumulants_via_partitions`` (the ungraded
  uncentered moments of products of the T_l on Fraction coefficients,
  by the type sum, turned into
  joint cumulants by the set-partition formula, against the weight-free
  table of kappa(T_L) and its sub-multiset recursion),
  the whole series ``series_ungraded`` (every moment to M = c + 1 without
  the excess cut, against the graded series and its cumulants), the
  Bernoulli closed form ``log_cos_coeffs`` with ``bernoulli_numbers``
  (against the formal log of the cosine series, ``weight_log_coeffs`` for
  RT), ``weight_log_coeffs_via_fractions``, the same log by the recursion on
  Fraction moments (against the shipped recursion on power-scaled ints),
  and the general order formulas ``orders_for_precision``;
* the graph layer: ``cheeger_gray_code``, one Gray-code step per subset of
  {0..n-2} with incremental cut updates (against the lane-parallel
  ``cheeger_constant``), and ``gauss_jordan_adjugate``, the fraction-free
  elimination of L + J on full rows in vertex order (against
  ``l_plus_j_adjugate``, a symmetric forward elimination of the band rows
  of L_0 or L + J in RCM order and a back sweep);
* the estimator: ``exact_inverse`` (Gauss-Jordan over rationals, against the
  integer adjugate) and the per-pair route to kappa_2, ``kappa2_pairwise``,
  on Fractions: for every ordered edge pair it sums c_{l1} c_{l2} times
  the joint moment E[X_e^{2l1} X_f^{2l2}] minus the product of the univariate
  moments.  The shipped ``kappa2_f`` computes the same quantity as
  Hadamard-power contractions, without the j = 0 term that cancels here;
  ``kappa12_per_order`` runs those contractions and kappa_1 with a
  denominator per order j and Fraction coefficients (against the shipped
  single denominator and Horner's rule), on any graph; on K_n,
  ``kn_kappas`` reads kappa_1 and kappa_2 off the series engine's
  weight-free record of the kappa(T_L) at n, with no code shared past f_K's
  map (against ``kappa1_f`` and ``kappa2_f`` on ``complete_graph(n)``);
* the tail lab: the averaging operator ``conditional_expectation``;
* the exact counters: ``balanced_count_backtracking``, the pruned
  depth-first search over vertex pairs (against the edge transfer
  ``exact._balanced_count`` on graphs, and against the K_n elimination
  ``exact._kn_count`` for RT, ED and EOG on K_n, n <= 6), and
  ``torus_integral_estimate``, a product trapezoid quadrature of the
  circle-integral representation of the weighted orientation count
  (against both counters for n <= 4).
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod
from typing import Iterator, Sequence

import mpmath
import numpy as np

from eocount.cumulants import double_factorial, moments_to_cumulants
from eocount.errors import DomainError, SizeLimitError
from eocount.estimator import edge_matrix
from eocount import expansion
from eocount.expansion import WeightSpec, f_as_mu_polynomial, weight_log_coeffs
from eocount.graphs import CHEEGER_MAX_N
from eocount.powersums import (FIELD_MASK, code_fields, encode,
                               monomial_order_bound, mu_moment_dict)
from helpers import (LaurentSeries, TYPE_ENUM_MAX_FACTORS, laplacian,
                     mu_moment, mu_monomial, xbar_split)

ENUMERATION_MAX = 16
ORACLE_MAX_FACTORS = 10
TORUS_MAX_N = 4

CellType = tuple[int, ...]          # ascending exponents sharing one index
PartitionType = tuple[CellType, ...]  # cells in descending canonical order


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
# partition-type enumeration

def _counts_of(mono: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    out = []
    for e in sorted(set(mono)):
        out.append((e, mono.count(e)))
    return tuple(out)


def _subcells(remaining, cap, even_only):
    """Nonempty sub-multisets of `remaining` (as count vectors), optionally
    restricted to even exponent sum and to cells lexicographically <= cap."""
    k = len(remaining)
    exps = [e for e, _ in remaining]
    out = []

    def rec(i, acc, s, tied):
        if i == k:
            if any(acc) and not (even_only and s % 2):
                out.append((tuple(acc), s))
            return
        hi = remaining[i][1]
        if tied:
            hi = min(hi, cap[i])
        for c in range(hi, -1, -1):
            acc.append(c)
            rec(i + 1, acc, s + exps[i] * c, tied and c == cap[i])
            acc.pop()

    rec(0, [], 0, cap is not None)
    return out


def _max_cells(remaining, even_only) -> int:
    """Upper bound on how many cells the rest of a type can still have."""
    ev = sum(c for e, c in remaining if e % 2 == 0)
    od = sum(c for e, c in remaining if e % 2 == 1)
    return ev + od // 2 if even_only else ev + od


def enumerate_partition_types(mono, even_cells_only: bool = True,
                              min_cells: int = 0) -> Iterator[PartitionType]:
    """Every partition type of the monomial exactly once, cells in descending
    canonical order.

    ``even_cells_only`` drops types containing an odd-sum cell (their moment
    contribution is zero); ``min_cells`` prunes types with fewer cells, which
    implements truncation of the moment series.
    """
    mono = mu_monomial(mono)
    if len(mono) > TYPE_ENUM_MAX_FACTORS:
        raise SizeLimitError(f"type enumeration capped at {TYPE_ENUM_MAX_FACTORS} factors")
    counts = _counts_of(mono)
    exps = [e for e, _ in counts]

    def to_cell(vec) -> CellType:
        cell = []
        for e, c in zip(exps, vec):
            cell.extend([e] * c)
        return tuple(cell)

    # (remaining, cap) -> [(child remaining, cap vector, cell, its max cells)];
    # the same states recur across branches, so each step list is built once
    steps: dict = {}

    def children(remaining, cap):
        key = (remaining, cap)
        out = steps.get(key)
        if out is None:
            out = []
            for vec, _s in _subcells(remaining, cap, even_cells_only):
                rem2 = tuple((e, c - v) for (e, c), v in zip(remaining, vec))
                out.append((rem2, vec, to_cell(vec),
                            _max_cells(rem2, even_cells_only)))
            steps[key] = out
        return out

    def rec(remaining, cap, room, cells):
        if not any(c for _, c in remaining):
            if len(cells) >= min_cells:
                yield tuple(cells)
            return
        if len(cells) + room < min_cells:
            return
        for rem2, vec, cell, room2 in children(remaining, cap):
            cells.append(cell)
            yield from rec(rem2, vec, room2, cells)
            cells.pop()

    yield from rec(counts, None, _max_cells(counts, even_cells_only), [])


def count_partition_types(mono, even_cells_only: bool = True) -> int:
    """Number of partition types, by memoized recursion (no materialization)."""
    mono = mu_monomial(mono)
    if len(mono) > TYPE_ENUM_MAX_FACTORS:
        raise SizeLimitError(f"type enumeration capped at {TYPE_ENUM_MAX_FACTORS} factors")
    counts = _counts_of(mono)
    memo: dict = {}

    def rec(remaining, cap):
        if not any(c for _, c in remaining):
            return 1
        key = (remaining, cap)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0
        for vec, _s in _subcells(remaining, cap, even_cells_only):
            rem2 = tuple((e, c - v) for (e, c), v in zip(remaining, vec))
            total += rec(rem2, vec)
        memo[key] = total
        return total

    return rec(counts, None)


def a_coeff(ptype: PartitionType) -> LaurentSeries:
    """Index-assignment factor of a type: n(n-1)...(n-q+1) / prod eta!, as an
    exact polynomial in n (q = number of cells, eta = cell multiplicities)."""
    q = len(ptype)
    poly = _falling_factorial_series(q)
    for eta in _cell_multiplicities(ptype):
        poly = poly / factorial(eta)
    return poly


def b_coeff(ptype: PartitionType) -> int:
    """Position-assignment factor: per exponent k, multinomial of the k-count
    over the cells."""
    total: dict[int, int] = {}
    for cell in ptype:
        for e in cell:
            total[e] = total.get(e, 0) + 1
    num = prod(factorial(c) for c in total.values())
    den = 1
    for cell in ptype:
        per: dict[int, int] = {}
        for e in cell:
            per[e] = per.get(e, 0) + 1
        den *= prod(factorial(c) for c in per.values())
    return num // den


def _cell_multiplicities(ptype: PartitionType) -> list[int]:
    cells = sorted(ptype)  # group identical cells regardless of input order
    mults = []
    i = 0
    while i < len(cells):
        j = i
        while j < len(cells) and cells[j] == cells[i]:
            j += 1
        mults.append(j - i)
        i = j
    return mults


# ---------------------------------------------------------------------------
# single-variable moments and falling factorials

def gaussian_power_moment(m: int) -> LaurentSeries:
    """E[X^m] for X ~ N(0, 1/n): (m-1)!! n^(-m/2) for even m, else 0."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m % 2:
        return LaurentSeries.zero()
    return LaurentSeries.term(double_factorial(m - 1), m // 2)


_FALLING: list[dict[int, int]] = [{0: 1}]


def _falling_factorial_coeffs(q: int) -> dict[int, int]:
    """n(n-1)...(n-q+1) as {power_of_n: int coefficient}."""
    while len(_FALLING) <= q:
        prev = _FALLING[-1]
        j = len(_FALLING) - 1
        out: dict[int, int] = {}
        for t, c in prev.items():  # multiply by (n - j)
            out[t + 1] = out.get(t + 1, 0) + c
            out[t] = out.get(t, 0) - c * j
        _FALLING.append(out)
    return _FALLING[q]


def _falling_factorial_series(q: int) -> LaurentSeries:
    return LaurentSeries({-t: c for t, c in _falling_factorial_coeffs(q).items()})


# ---------------------------------------------------------------------------
# power-sum moments

def set_partition_moment_oracle(mono) -> LaurentSeries:
    """Exact moment by summing over all set partitions pi of the factor
    positions: sum_pi (n)_{|pi|} prod_blocks E[X^{s_b}], s_b the block's
    exponent sum.

    E[X^s] = (s-1)!! n^(-s/2) for even s and 0 for odd s, so every nonzero
    term carries n^(-D/2), D the total degree.  The double-factorial products
    are summed as ints per block count q and multiplied by the falling
    factorial (n)_q once at the end.
    """
    mono = mu_monomial(mono)
    if len(mono) > ORACLE_MAX_FACTORS:
        raise SizeLimitError(f"oracle capped at {ORACLE_MAX_FACTORS} factors")
    half, odd = divmod(sum(mono), 2)
    if odd:
        return LaurentSeries.zero()
    per_q: dict[int, int] = {}
    for part in enumerate_partitions(len(mono)):
        term = 1
        for block in part:
            s = sum(mono[i] for i in block)
            if s % 2:
                break
            term *= double_factorial(s - 1)
        else:
            per_q[len(part)] = per_q.get(len(part), 0) + term
    series: dict[int, int] = {}
    for q, total in per_q.items():
        for t, c in _falling_factorial_coeffs(q).items():
            series[half - t] = series.get(half - t, 0) + total * c
    return LaurentSeries(series)


def mu_moment_via_types(mono, p_max: int | None = None) -> LaurentSeries:
    """Same moment via the partition-type sum A_T B_T prod E[X^{sum cell}].

    Types whose cell count q satisfies q < deg/2 - p_max cannot reach the kept
    orders and are pruned during enumeration.
    """
    mono = mu_monomial(mono)
    D = sum(mono)
    if D % 2:
        return LaurentSeries.zero(p_max)
    cut = D // 2 if p_max is None else p_max
    min_cells = max(0, D // 2 - cut)
    counts = _counts_of(mono)
    norm = prod(factorial(c) for _, c in counts)

    # accumulate sum over types of prod_cells[(S-1)!!/prod nu!]/prod eta! per q
    per_q: dict[int, Fraction] = {}

    def rec(remaining, cap, run, q, weight):
        if not any(c for _, c in remaining):
            per_q[q] = per_q.get(q, Fraction(0)) + weight
            return
        if q + _max_cells(remaining, even_only=True) < min_cells:
            return
        for vec, s in _subcells(remaining, cap, even_only=True):
            w = weight * Fraction(double_factorial(s - 1),
                                  prod(factorial(c) for c in vec))
            rem2 = tuple((e, c - v) for (e, c), v in zip(remaining, vec))
            if cap is not None and vec == cap:
                rec(rem2, vec, run + 1, q + 1, w / (run + 1))
            else:
                rec(rem2, vec, 1, q + 1, w)

    rec(counts, None, 0, 0, Fraction(1))

    series: dict[int, Fraction] = {}
    for q, wsum in per_q.items():
        if wsum == 0:
            continue
        for t, fc in _falling_factorial_coeffs(q).items():
            p = D // 2 - t
            if p <= cut:
                series[p] = series.get(p, Fraction(0)) + norm * wsum * fc
    return LaurentSeries(series, p_max)


def centered_moment_oracle(mono) -> LaurentSeries:
    """E[prod p_{k_i}(y)] exactly, p_k the power sums of the centered
    y = x - xbar 1, solved from uncentered moments: xbar ~ N(0, 1/n^2) is
    independent of y, so E[prod mu_{k_i}(x)] is the sum over the terms
    ``xbar_split`` of w E[xbar^m] E[prod p_{s_i}(y)], m = sum (k_i - s_i).
    The term s = k is the wanted moment and every other one has lower
    degree, so each sub-monomial's moment is E[prod mu_{s_i}] from
    ``mu_moment_via_types`` minus its own lower terms.  Nothing here assumes
    p_1 = 0 or the recurrence."""
    return _centered_moment(mu_monomial(mono))


@cache
def _centered_moment(mono: tuple[int, ...]) -> LaurentSeries:
    total = mu_moment_via_types(mono)
    for code, (w, m) in xbar_split(mono).items():
        s = tuple(e for e, c in code_fields(code) for _ in range(c))
        z = s.count(0)
        if m and not m % 2:  # p_0 = n, E[xbar^m] = (m-1)!! n^-m
            xbar = LaurentSeries({m - z: w * double_factorial(m - 1)})
            total = total - xbar * _centered_moment(s[z:])
    return total


def realization_count(ptype) -> int:
    """Number of set partitions of the factor positions with this type:
    b_coeff / prod eta!."""
    den = prod(factorial(m) for m in _cell_multiplicities(ptype))
    b = b_coeff(ptype)
    assert b % den == 0
    return b // den


def realization_sum(mono) -> int:
    """Sum of realization counts over all types (odd cells included); equals
    the Bell number of the factor count.  Memoized recursion, exact."""
    mono = mu_monomial(mono)
    counts = _counts_of(mono)
    memo: dict = {}

    def rec(remaining, cap, run):
        if not any(c for _, c in remaining):
            return Fraction(1)
        key = (remaining, cap, run)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = Fraction(0)
        for vec, _s in _subcells(remaining, cap, even_only=False):
            w = Fraction(1, prod(factorial(c) for c in vec))
            rem2 = tuple((e, c - v) for (e, c), v in zip(remaining, vec))
            if cap is not None and vec == cap:
                total += w * rec(rem2, vec, run + 1) / (run + 1)
            else:
                total += w * rec(rem2, vec, 1)
        memo[key] = total
        return total

    s = rec(counts, None, 0) * prod(factorial(c) for _, c in counts)
    assert s.denominator == 1
    return int(s)


# ---------------------------------------------------------------------------
# joint cumulants and partition counts

def joint_cumulant_partition_sum(cov, parts):
    """Joint cumulant of the monomials prod_{i in P_1} Z_i, ... via the
    partition sum sum_tau (-1)^(|tau|-1) (|tau|-1)! prod_B E[prod over merged
    blocks]."""
    r = len(parts)
    total = 0
    for tau in enumerate_partitions(r):
        term = Fraction((-1) ** (len(tau) - 1) * factorial(len(tau) - 1))
        for block in tau:
            merged = [v for bi in block for v in parts[bi]]
            term = term * isserlis_moment(cov, merged)
        total = total + term
    return total


def cumulant_via_both_routes_check(cov, parts) -> bool:
    """Connected-pairing route equals partition-sum route."""
    return joint_cumulant_connected(cov, parts) == joint_cumulant_partition_sum(cov, parts)


def stirling_second(m: int, k: int) -> int:
    """Number of partitions of an m-set into k nonempty blocks."""
    if k < 0 or k > m:
        return 0
    if m == 0:
        return 1
    # S(m,k) = k*S(m-1,k) + S(m-1,k-1)
    row = [1] + [0] * m
    for i in range(1, m + 1):
        new = [0] * (m + 1)
        for j in range(1, i + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def partition_factorial_sum(s: int) -> int:
    """sum over set partitions of [s] of (|blocks| - 1)!, grouped by block
    count: sum_k S(s, k) (k - 1)!."""
    return sum(stirling_second(s, k) * factorial(k - 1) for k in range(1, s + 1))


# ---------------------------------------------------------------------------
# series-engine inputs

def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m by the defining recurrence (B_1 = -1/2)."""
    B = [Fraction(1)]
    for j in range(1, m + 1):
        acc = Fraction(0)
        for k in range(j):
            acc += comb(j + 1, k) * B[k]
        B.append(-acc / (j + 1))
    return B


def log_cos_coeffs(L: int) -> list[Fraction]:
    """e_2, e_4, ..., e_{2L}: Taylor coefficients of log cos x at 0, from the
    Bernoulli closed form e_{2l} = -4^l (4^l - 1) |B_{2l}| / (2l (2l)!); as
    b = 1, f_K's c_l is e_{2l}."""
    if L > 64:
        raise SizeLimitError("log cos coefficients capped at L=64")
    B = bernoulli_numbers(2 * L)
    return [-Fraction(4**l * (4**l - 1) * abs(B[2 * l]), 2 * l * factorial(2 * l))
            for l in range(1, L + 1)]


def weight_log_coeffs_via_fractions(w: WeightSpec, L: int) -> list[Fraction]:
    """e_2, ..., e_{2L} of log(a + b cos x) by the moment-to-cumulant
    recursion on the Fraction moments m_k = b (-1)^k k! / (2k)!, each step
    normalized (against the shipped recursion on power-scaled ints)."""
    moments = [w.b * Fraction((-1) ** k * factorial(k), factorial(2 * k))
               for k in range(1, L + 1)]
    return [kap / factorial(k)
            for k, kap in enumerate(moments_to_cumulants(moments), start=1)]


def f_power_sums(coeffs) -> dict[tuple[int, int], Fraction]:
    """f_K = sum_l c_l T_l, given as its map {l: c_l}, in the power-sum
    basis {(t, 2l - t): coeff}, t <= 2l - t, from
    T_l = sum_{j<k} (x_j - x_k)^(2l)
        = (1/2) sum_{t=0}^{2l} (-1)^t C(2l, t) mu_t mu_{2l-t}
    term by term, the half unfolded (against the engine's ``_folded_t``);
    the exponent 0 stands for mu_0 = n."""
    poly: dict = {}
    for l, c in coeffs.items():
        for t in range(2 * l + 1):
            key = tuple(sorted((t, 2 * l - t)))
            poly[key] = poly.get(key, 0) + c * Fraction((-1) ** t * comb(2 * l, t), 2)
    return poly


def evaluate_mu_polynomial(coeffs, xs) -> Fraction:
    """Exact value of f_K, given as its map {l: c_l}, at a rational point
    through the power sums of ``f_power_sums``; an exponent 0 sums x^0 = 1,
    giving mu_0 = n = len(xs)."""
    total = Fraction(0)
    for mono, coeff in f_power_sums(coeffs).items():
        val = coeff
        for k in mono:
            val *= sum(Fraction(x) ** k for x in xs)
        total += val
    return total


def f_direct(w: WeightSpec, K: int, xs, variance_scale=None) -> Fraction:
    """Edge-sum definition of f_K on the complete graph."""
    v = Fraction(1) if variance_scale is None else Fraction(variance_scale)
    e = weight_log_coeffs(w, K)
    n = len(xs)
    total = Fraction(0)
    for l in range(2, K + 1):
        s = Fraction(0)
        for j in range(n):
            for k in range(j + 1, n):
                s += (Fraction(xs[j]) - Fraction(xs[k])) ** (2 * l)
        total += e[l - 1] * v**l * s
    return total


def moments_of_f_via_series(coeffs, M: int, p_max: int) -> list[LaurentSeries]:
    """E[f^r], r = 1..M, truncated at n^-p_max, for f_K given as its map
    {l: c_l}: the power-sum polynomial of ``f_power_sums`` raised to the
    r-th power with its Fraction coefficients multiplied as they stand (no
    common denominator, no pruning), then mu_moment of each product
    monomial.  The z exponents 0 of a product monomial are the factor n^z,
    so the rest's moment is kept to n^-(p_max + z)."""
    poly = f_power_sums(coeffs)
    moments = []
    power = {(): Fraction(1)}
    for r in range(1, M + 1):
        nxt: dict = {}
        for mono, s in power.items():
            for m2, s2 in poly.items():
                key = tuple(sorted(mono + m2))
                nxt[key] = nxt.get(key, 0) + s * s2
        power = nxt
        total = LaurentSeries.zero(p_max)
        for mono, s in power.items():
            z = mono.count(0)
            total = total + s * LaurentSeries({-z: 1}) * mu_moment(mono[z:], p_max + z)
        moments.append(total)
    return moments


def t_joint_cumulants_via_partitions(p_max: int) -> dict[tuple[int, ...], LaurentSeries]:
    """kappa(T_L) truncated at n^-p_max for every nondecreasing L with
    |L| >= 2 and excess sum(l - 2) <= p_max + 1 - |L|, T_l = sum_{j<k}
    (x_j - x_k)^(2l) at component variance 1/n.  T_l is multiplied out as
    (1/2) sum_t (-1)^t C(2l, t) mu_t mu_{2l-t} on Fraction coefficients
    (``f_power_sums``: no folding, no pruning), the ungraded moment E[T_S] of each sub-multiset S
    is the moment of each product monomial (z exponents 0 are the factor
    n^z, so the rest is kept to n^-(p_max + z)) of the uncentered x by
    ``mu_moment_via_types``, so the t = 1 terms count and nothing assumes
    that T_l sees only differences, and the joint cumulants come from the
    set-partition (Moebius) formula
    kappa(L) = sum_pi (-1)^(|pi|-1) (|pi|-1)! prod_{B in pi} E[T_{L_B}]."""
    moments: dict = {}

    def moment(S):
        if S not in moments:
            power = {(): Fraction(1)}
            for l in S:
                nxt: dict = {}
                t_l = f_power_sums({l: 1})
                for mono, s in power.items():
                    for m2, s2 in t_l.items():
                        key = tuple(sorted(mono + m2))
                        nxt[key] = nxt.get(key, 0) + s * s2
                power = nxt
            total = LaurentSeries.zero(p_max)
            for mono, s in power.items():
                z = mono.count(0)
                total = total + s * LaurentSeries({-z: 1}) * mu_moment_via_types(
                    mono[z:], p_max + z)
            moments[S] = total
        return moments[S]

    out = {}
    for r in range(2, p_max + 2):
        for L in combinations_with_replacement(range(2, p_max + 2), r):
            if sum(L) - 2 * r > p_max + 1 - r:
                continue
            kappa = LaurentSeries.zero(p_max)
            for part in enumerate_partitions(r):
                k = len(part)
                term = LaurentSeries.term((-1) ** (k - 1) * factorial(k - 1), 0, p_max)
                for block in part:
                    term = term * moment(tuple(sorted(L[i] for i in block)))
                kappa = kappa + term
            out[L] = kappa
    return out


def _moments_of_f_ungraded(poly, M: int, p_max: int) -> list[LaurentSeries]:
    """E[f^r] for r = 1..M whole, every product of f^r with an order bound
    at most p_max kept whatever its excess: the packed-int product expansion
    of the series engine without its excess cut.  The recurrence gives the
    moments of the centered power sums p_k(y), y = x - xbar 1, and f, a sum
    over differences, is the same polynomial in them as in the mu_k(x)."""
    D = lcm(*(c.denominator for c in poly.values()))
    items = sorted(((encode((t, s)), c.numerator * (D // c.denominator),
                     monomial_order_bound((t, s))) for (t, s), c in poly.items()),
                   key=lambda it: it[2])
    moments = []
    P: dict[int, dict[int, int]] = {0: {0: 1}}  # bound -> {code: D^r f^r coeff}
    for r in range(1, M + 1):
        nxt: dict[int, dict[int, int]] = {}
        for bound, bucket in P.items():
            for code2, c2, bound2 in items:
                if bound + bound2 > p_max:
                    break
                out = nxt.setdefault(bound + bound2, {})
                for code, c in bucket.items():
                    out[code + code2] = out.get(code + code2, 0) + c * c2
        P = nxt
        mr: dict[int, int] = {}
        for bucket in P.values():
            for code, c in bucket.items():
                z = code & FIELD_MASK
                for p, mc in mu_moment_dict(code - z, p_max + z).items():
                    if p - z <= p_max:
                        mr[p - z] = mr.get(p - z, 0) + c * mc
        moments.append(LaurentSeries({p: Fraction(c, D**r) for p, c in mr.items()},
                                     p_max))
    return moments


def series_ungraded(w: WeightSpec, c: int) -> tuple[dict[int, Fraction], list[LaurentSeries]]:
    """(coeffs, [kappa_1..kappa_{c+1}]) of the exponent series through
    n^-(c-1) with M = K = c + 1 and no excess cut: every moment whole, the
    plain moment-to-cumulant recursion on LaurentSeries, and sum_r
    kappa_r / r!."""
    poly = f_power_sums(f_as_mu_polynomial(w, c + 1))
    kappas = moments_to_cumulants(_moments_of_f_ungraded(poly, c + 1, c - 1))
    total = LaurentSeries.zero(c - 1)
    for r, kap in enumerate(kappas, start=1):
        total = total + kap / factorial(r)
    return {p: total[p] for p in range(c) if total[p]}, kappas


def orders_for_precision(n: float, d: float, c: float) -> tuple[int, int]:
    """Moment order M and Taylor order K needed for a target error n^(-c):
    M = floor((c+1) log n / (log d - 2 log log n)),
    K = floor((c+1) log n / (log d - log log n))."""
    ln = mpmath.log(n)
    lld = mpmath.log(d)
    lll = mpmath.log(ln)
    dM = lld - 2 * lll
    dK = lld - lll
    if dM <= 0 or dK <= 0:
        raise DomainError("order formulas need d > (log n)^2")
    M = int(mpmath.floor((c + 1) * ln / dM))
    K = int(mpmath.floor((c + 1) * ln / dK))
    return M, K


# ---------------------------------------------------------------------------
# graphs

def cheeger_gray_code(g) -> Fraction:
    """min over nonempty U with |U| <= n/2 of |boundary(U)| / |U|, exact.

    Exhaustive: subsets S of {0..n-2} are visited in Gray-code order with
    incremental cut updates from neighbor bitmasks, so each step costs a
    few integer operations.  The candidate for S is whichever of S and its
    complement has at most n/2 vertices; ratios are compared as integer
    pairs by cross-multiplication.
    """
    n = g.n
    if n < 2:
        raise DomainError("Cheeger constant needs n >= 2")
    if n > CHEEGER_MAX_N:
        raise SizeLimitError(f"exhaustive Cheeger scan capped at n={CHEEGER_MAX_N}")
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    deg = g.degrees
    mask = 0
    cut = 0
    size = 0
    best_cut, best_size = 1, 0  # the ratio 1/0 stands for +infinity
    for step in range(1, 1 << (n - 1)):
        v = (step & -step).bit_length() - 1  # Gray code: flip lowest set bit
        bit = 1 << v
        mask ^= bit
        delta = deg[v] - 2 * (nbr[v] & mask).bit_count()
        if mask & bit:
            size += 1
            cut += delta
        else:
            size -= 1
            cut -= delta
        small = size if 2 * size <= n else n - size
        if cut * best_size < best_cut * small:
            best_cut, best_size = cut, small
    return Fraction(best_cut, best_size)


def gauss_jordan_adjugate(g) -> tuple[int, list[list[int]] | None]:
    """(tau, adj(L + J)) by fraction-free (Bareiss) Gauss-Jordan elimination
    on full rows; (0, None) for a disconnected or empty graph.

    Each row holds the columns of L + J not yet eliminated, then the identity
    columns already reached (the later ones are the pivot times a unit
    vector), so the rows end as the adjugate.  The pivot at step k is the
    leading minor of order k + 1, positive when L + J is definite, so every
    division is exact; a zero pivot means a singular L + J.
    """
    n = g.n
    if n == 0:
        return 0, None
    rows = [[x + 1 for x in row] for row in laplacian(g)]
    prev = 1
    for k in range(n):
        pk = rows[k]
        piv = pk[0]
        if piv == 0:
            return 0, None
        tail = pk[1:]
        rows = [tail + [prev] if i == k else
                [(piv * x - r[0] * y) // prev for x, y in zip(r[1:], tail)]
                + [-r[0]]
                for i, r in enumerate(rows)]
        prev = piv
    return prev // (n * n), rows


# ---------------------------------------------------------------------------
# estimator

def exact_inverse(matrix) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over exact rationals; raises on singular input.
    Capped at n = 12."""
    n = len(matrix)
    if n > 12:
        raise SizeLimitError("exact inverse capped at n=12")
    a = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise DomainError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def bivariate_even_moment(p: int, q: int, suu, svv, suv):
    """E[U^p V^q] for centered jointly Gaussian (U, V), p + q even; exact
    for Fraction (co)variances."""
    total = Fraction(0)
    jstart = (p % 2)
    for j in range(jstart, min(p, q) + 1, 2):
        term = (comb(p, j) * comb(q, j) * factorial(j)
                * double_factorial(p - j - 1) * double_factorial(q - j - 1))
        total += (term * suu ** ((p - j) // 2) * svv ** ((q - j) // 2)
                  * suv ** j)
    return total


def kappa12_per_order(g, cov, K: int) -> tuple[Fraction, Fraction]:
    """(kappa_1, kappa_2) of f_K by ``kappa2_f``'s Hadamard separation, with
    the Fraction coefficients of ``weight_log_coeffs_via_fractions``, a
    denominator of its own for each A_j and the powers of S_ee taken one by
    one (against the shipped one-denominator Horner route)."""
    cs = weight_log_coeffs_via_fractions(WeightSpec.for_family("RT"), K)
    tau = cov.tau
    rows = [[x * x for x in row] for row in edge_matrix(g, cov)]
    hadamard, kappa2 = rows, Fraction(0)
    for h in range(K + 1):
        j = 2 * h
        ws = [cs[l - 1] * comb(2 * l, j) * double_factorial(2 * l - j - 1)
              if l >= 2 else Fraction(0) for l in range(h, K + 1)]
        den = lcm(*(c.denominator for c in ws))
        coef = [c.numerator * (den // c.denominator) * tau ** (K - h - p)
                for p, c in enumerate(ws)]
        A = [sum(c * v ** p for p, c in enumerate(coef)) for v in cov.var]
        if h == 0:
            kappa1 = Fraction(sum(A), den * tau ** K)
            continue
        if h > 1:
            hadamard = [[x * y for x, y in zip(a, b)] for a, b in zip(hadamard, rows)]
        quad = sum(a * (2 * sum(x * y for x, y in zip(row, A[e:])) - row[0] * a)
                   for e, (a, row) in enumerate(zip(A, hadamard)))
        kappa2 += Fraction(factorial(j) * quad, den * den)
    return kappa1, kappa2 / tau ** (2 * K)


@cache
def _t_record(p_max: int):
    return expansion._t_cumulants(p_max)


def kn_kappas(c, n: int, p_max: int) -> tuple[Fraction, Fraction]:
    """(kappa_1, kappa_2) of f_K, given as its map {l: c_l}, on K_n, by the
    series engine at cut p_max evaluated at n in Fractions: kappa_1 =
    sum_l c_l E[T_l] from the singletons (``expansion._expect`` over the
    items of T_l with order bound <= p_max) and kappa_2 the sum of
    (2!/prod mult!) c_a c_b kappa(T_a, T_b) over the rows L = (a, b) of
    ``expansion._t_cumulants(p_max)``.  On K_n the estimator's edge
    differences have the law of the engine's x_j - x_k at variance 1/n
    (L^+ = (I - J/n)/n).  Their covariances are ints over n, and the
    counts of the pairs (and pairs of pairs) of each overlap pattern are
    polynomials in n without a constant term, so both kappas are
    polynomials in 1/n of degree at most 2K - 1: a cut p_max >= 2K - 1
    truncates nothing (against ``kappa1_f`` and ``kappa2_f`` on
    ``complete_graph(n)``, which share no code with the engine past f_K's
    map)."""
    items, rows = _t_record(p_max)

    def at_n(series):
        return sum((Fraction(v, n**p) for p, v in series.items()), Fraction(0))

    kappa1 = sum((c_l * at_n(expansion._expect(
        [(code, v) for code, v, bound in items[l] if bound <= p_max], p_max))
        for l, c_l in c.items()), Fraction(0))
    kappa2 = Fraction(0)
    for L, ways, values in rows:
        if len(L) == 2 and set(L) <= c.keys():
            kappa2 += ways * c[L[0]] * c[L[1]] * at_n(values)
    return kappa1, kappa2


def kappa2_pairwise(g, sigma, K: int) -> Fraction:
    """Second cumulant of f_K: sum over ordered edge pairs and orders of
    c_{l1} c_{l2} [E[X_e^{2l1} X_f^{2l2}] - E[X_e^{2l1}] E[X_f^{2l2}]],
    exact for a Fraction covariance matrix ``sigma`` (nested lists)."""
    def cov(e, f):
        (j, k), (s, t) = e, f
        return sigma[j][s] - sigma[j][t] - sigma[k][s] + sigma[k][t]

    edges = sorted(g.edges)
    cs = log_cos_coeffs(K)
    var = [cov(e, e) for e in edges]
    # univariate moments E[X_e^{2l}]
    mom = [[double_factorial(2 * l - 1) * var[i] ** l for l in range(2, K + 1)]
           for i in range(len(edges))]
    total = Fraction(0)
    for i in range(len(edges)):
        for j in range(i, len(edges)):
            suv = cov(edges[i], edges[j])
            pair = Fraction(0)
            for l1 in range(2, K + 1):
                for l2 in range(2, K + 1):
                    joint = bivariate_even_moment(2 * l1, 2 * l2,
                                                  var[i], var[j], suv)
                    disc = joint - mom[i][l1 - 2] * mom[j][l2 - 2]
                    pair += cs[l1 - 1] * cs[l2 - 1] * disc
            total += pair if i == j else 2 * pair
    return total


# ---------------------------------------------------------------------------
# tail lab

def conditional_expectation(space, table, j: int):
    """E^j[f]: average coordinate j out with its weights; returns a table."""
    arr = np.array(table, dtype=object).reshape(space.sizes)
    ws = space.weights[j]
    acc = None
    for y, w in enumerate(ws):
        sl = np.take(arr, y, axis=j) * w
        acc = sl if acc is None else acc + sl
    out = np.broadcast_to(np.expand_dims(acc, j), space.sizes)
    return tuple(out.reshape(-1))


# ---------------------------------------------------------------------------
# exact counts: pruned backtracking

def balanced_count_backtracking(n: int, pairs: list[tuple[int, int]], moves) -> int:
    """Weighted count of the ways to give every pair (j, k) one move that
    leave all n vertices balanced.

    A move (d, weight) adds d to the imbalance of j and -d to that of k, with
    |d| <= 1; the moves must be closed under d -> -d with equal weights.  A
    branch is pruned as soon as some vertex has a larger imbalance than it
    has pairs left.  Reversing every move is an involution, so the first
    pair takes only d >= 0, with the weight doubled when d > 0.
    """
    rem = [0] * n   # pairs still to assign at each vertex
    for j, k in pairs:
        rem[j] += 1
        rem[k] += 1
    imb = [0] * n
    m = len(pairs)

    def count_from(idx: int, choices) -> int:
        if idx == m:
            return 1
        j, k = pairs[idx]
        rem[j] -= 1
        rem[k] -= 1
        total = 0
        for d, weight in choices:
            imb[j] += d
            imb[k] -= d
            if abs(imb[j]) <= rem[j] and abs(imb[k]) <= rem[k]:
                total += weight * count_from(idx + 1, moves)
            imb[j] -= d
            imb[k] += d
        rem[j] += 1
        rem[k] += 1
        return total

    return count_from(0, [(d, 2 * w if d else w) for d, w in moves if d >= 0])


# ---------------------------------------------------------------------------
# exact counts: torus quadrature

def torus_integral_estimate(g, w, grid: int = 256) -> float:
    """Quadrature value of the circle-integral representation of the weighted
    orientation count: (2/b)^|E| times the mean over the torus of
    prod_{jk in E} (a + b cos(theta_j - theta_k)).

    w is a pair (a, b) of rationals with a + b = 1, b > 0.  One angle is fixed
    at 0 (the integrand only depends on differences), and the product
    trapezoid rule on a periodic analytic integrand converges spectrally in
    the grid size.
    """
    a, b = Fraction(w[0]), Fraction(w[1])
    if a + b != 1 or b <= 0 or a < 0:
        raise DomainError("weights must satisfy a + b = 1, b > 0, a >= 0")
    if g.n > TORUS_MAX_N:
        raise SizeLimitError(f"quadrature capped at n={TORUS_MAX_N}")
    if grid < 64:
        raise DomainError("grid must be at least 64")
    if g.n == 0:
        return 1.0
    dims = g.n - 1
    theta = 2.0 * np.pi * np.arange(grid) / grid
    af, bf = float(a), float(b)

    def axis_view(v: int):
        # angle of vertex v broadcast over the grid^dims lattice; vertex n-1 pinned at 0
        if v == g.n - 1:
            return 0.0
        shape = [1] * dims
        shape[v] = grid
        return theta.reshape(shape)

    prod = np.ones((grid,) * dims) if dims else np.ones(())
    for u, v in sorted(g.edges):
        prod = prod * (af + bf * np.cos(axis_view(u) - axis_view(v)))
    mean = float(prod.mean())
    scale = float(2 / b) ** g.edge_count
    return scale * mean
