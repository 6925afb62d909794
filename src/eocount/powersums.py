"""Exact moments of monomials in power sums mu_k = sum_j X_j^k of i.i.d.
centered Gaussians with variance 1/n, as truncated Laurent series in 1/n.

A monomial is a multiset of exponents >= 1, written as a sorted tuple, e.g.
``(2, 2, 4)`` for mu_2^2 mu_4.  The moments come from one route, Gaussian
integration by parts, which peels one factor at a time
(E[mu_k G] = (k-1)/n E[mu_{k-2} G] + (1/n) sum_a a E[mu_{a+k-2} G/mu_a])
with results memoized per monomial.  The weights k-1 and a are ints and the
base case is 1, so the recurrence and its memo run on Python ints; only
``mu_moment`` turns them into a rational LaurentSeries.  The memo is
module-global on purpose: the families share it, so a series after the
first meets it warm.  The partition-type sum and the set-partition sum over
factor positions live in the tests as independent cross-checks.

The module also enumerates and counts partition types, with their index and
position weights A_T and B_T.  A partition type is a multiset of cell types;
a cell type is a multiset of exponents sharing one coordinate index.  Cells
with odd exponent sum contribute zero, so type enumeration prunes them by
default.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterable, Iterator, Mapping

from .cumulants import double_factorial
from .errors import SizeLimitError
from .laurent import LaurentSeries

TYPE_ENUM_MAX_FACTORS = 26

CellType = tuple[int, ...]          # ascending exponents sharing one index
PartitionType = tuple[CellType, ...]  # cells in descending canonical order


def mu_monomial(source) -> tuple[int, ...]:
    """Normalize a monomial given as exponent sequence or {exponent: mult} map."""
    if isinstance(source, Mapping):
        exps = []
        for k, mult in source.items():
            if k < 1 or mult < 0:
                raise ValueError("exponents must be >= 1, multiplicities >= 0")
            exps.extend([int(k)] * int(mult))
        return tuple(sorted(exps))
    exps = tuple(sorted(int(k) for k in source))
    if exps and exps[0] < 1:
        raise ValueError("exponents must be >= 1")
    return exps


def monomial_order_bound(mono: Iterable[int]) -> int:
    """Lower bound on the leading power p of E[monomial] as a series in 1/n:
    p >= deg/2 - #even - #odd/2 (and the moment is 0 for odd total degree)."""
    mono = tuple(mono)
    odd = sum(1 for x in mono if x % 2)
    even = len(mono) - odd
    return sum(mono) // 2 - even - odd // 2


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
# fast engine: integration-by-parts recurrence

_MOM_CACHE: dict[tuple[int, ...], tuple[int, dict[int, int]]] = {}


def mu_moment_dict(mono: tuple[int, ...], cut: int) -> dict[int, int]:
    """E[prod mu_j] as {p: int coeff of n^-p}, complete for p <= cut (entries
    with p > cut may be absent; callers filter).  Memoized per monomial; the
    internal format of the series engine's hot loop.  The recurrence has int
    weights and the base case 1, so every coefficient is an int."""
    if not mono:
        return {0: 1}
    cached = _MOM_CACHE.get(mono)
    if cached is not None and cached[0] >= cut:
        return cached[1]
    if sum(mono) % 2 or monomial_order_bound(mono) > cut:
        _MOM_CACHE[mono] = (cut, {})
        return {}

    out: dict[int, int] = {}
    k = mono[-1]  # peel the largest exponent
    rest = mono[:-1]

    # replace mu_k by (k-1) mu_{k-2} / n;  mu_0 = n cancels the 1/n
    if k == 2:
        for p, c in mu_moment_dict(rest, cut).items():
            if p <= cut:
                out[p] = out.get(p, 0) + c
    elif k > 2:
        sub = mu_moment_dict(tuple(sorted(rest + (k - 2,))), cut - 1)
        w = k - 1
        for p, c in sub.items():
            if p + 1 <= cut:
                out[p + 1] = out.get(p + 1, 0) + w * c

    # merge mu_k with one other factor mu_a into mu_{a+k-2} / n
    i = 0
    L = len(rest)
    while i < L:
        j = i
        while j < L and rest[j] == rest[i]:
            j += 1
        a = rest[i]
        w = a * (j - i)
        base = rest[:i] + rest[i + 1:]
        merged = a + k - 2
        if merged >= 1:
            sub = mu_moment_dict(tuple(sorted(base + (merged,))), cut - 1)
            for p, c in sub.items():
                if p + 1 <= cut:
                    out[p + 1] = out.get(p + 1, 0) + w * c
        else:  # merged exponent 0: mu_0 = n cancels the 1/n
            for p, c in mu_moment_dict(base, cut).items():
                if p <= cut:
                    out[p] = out.get(p, 0) + w * c
        i = j

    out = {p: c for p, c in out.items() if c != 0}
    _MOM_CACHE[mono] = (cut, out)
    return out


def mu_moment(mono, p_max: int | None = None) -> LaurentSeries:
    """E[prod mu_j] truncated at n^(-p_max); exact (finite) for p_max None."""
    mono = mu_monomial(mono)
    if len(mono) > TYPE_ENUM_MAX_FACTORS:
        raise SizeLimitError(f"mu_moment capped at {TYPE_ENUM_MAX_FACTORS} factors")
    cut = sum(mono) // 2 if p_max is None else p_max
    full = mu_moment_dict(mono, cut)
    return LaurentSeries({p: c for p, c in full.items() if p <= cut}, p_max)
