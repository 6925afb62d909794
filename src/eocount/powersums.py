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
first meets it warm.  Exponents are >= 1 here; the series engine carries
mu_0 = n as the exponent 0 and strips it before calling in.  ``mu_moment``
caps the factor count and the total degree before any work.  The
partition-type sum and the set-partition sum over factor positions live in
the tests as independent cross-checks, with the partition-type enumeration
and its weights.
"""

from __future__ import annotations

from typing import Iterable

from .errors import SizeLimitError
from .laurent import LaurentSeries

TYPE_ENUM_MAX_FACTORS = 26
# Largest total degree ``mu_moment`` accepts.  The recurrence recurses once
# per degree step of 2; with CPython 3.11's default recursion limit of 1000,
# (1990,) still works from a bare interpreter and (2000,) raises
# RecursionError, so 1000 (about 500 frames) leaves room for the caller's
# own stack.
MU_MOMENT_MAX_DEGREE = 1000


def mu_monomial(source) -> tuple[int, ...]:
    """Normalize a monomial given as a sequence of exponents >= 1."""
    exps = tuple(sorted(int(k) for k in source))
    if exps and exps[0] < 1:
        raise ValueError("exponents must be >= 1")
    return exps


def monomial_order_bound(mono: Iterable[int]) -> int:
    """Lower bound on the leading power p of E[monomial] as a series in 1/n:
    p >= deg/2 - #even - #odd/2 (and the moment is 0 for odd total degree).
    An exponent 0 counts as even: it is the factor mu_0 = n, exactly -1."""
    mono = tuple(mono)
    odd = sum(1 for x in mono if x % 2)
    even = len(mono) - odd
    return sum(mono) // 2 - even - odd // 2


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
    if sum(mono) > MU_MOMENT_MAX_DEGREE:
        raise SizeLimitError(f"mu_moment capped at total degree {MU_MOMENT_MAX_DEGREE}")
    cut = sum(mono) // 2 if p_max is None else p_max
    full = mu_moment_dict(mono, cut)
    return LaurentSeries({p: c for p, c in full.items() if p <= cut}, p_max)
