"""Exact moments of monomials in the centered power sums
p_k = sum_j (X_j - Xbar)^k of i.i.d. Gaussians with variance 1/n, as
truncated series in 1/n with int coefficients.

The series engine's T_l = sum_{j<k} (x_j - x_k)^(2l) see only differences,
so they are the same in y = x - xbar 1, whose p_1 is 0.  y is Gaussian with
covariance (I - J/n)/n: E[y_j G] = (1/n) E[d_j G] - (1/n^2) sum_i E[d_i G].
A monomial is one int code, in which the multiplicity of exponent e sits in
bits [FIELD_BITS e, FIELD_BITS (e + 1)): p_2^2 p_4 is 2 << 10 | 1 << 20,
``encode((2, 2, 4))``.  Integration by parts gives three rules:

- a code with a p_1 factor is 0;
- remove one p_2: E[p_2 G] = (1 + (deg G - 1)/n) E[G], since
  sum_j y_j d_j G = deg G * G and p_1 = 0;
- otherwise peel the largest exponent k >= 3: E[p_k H] = (k-1)(1/n - 1/n^2)
  E[p_{k-2} H] + sum_a a mult_a ((1/n) E[p_{a+k-2} H/p_a]
  - (1/n^2) E[p_{k-1} p_{a-1} H/p_a]), less the terms with a p_1.

No term has more factors than its parent.  Results are memoized per code;
each rule is an int subtraction and addition on the code, and the fields are
read back only on a memo miss.  The weights are signed ints, so the
recurrence and its memo run on Python ints.  The memo is module-global:
the series engine's fill of its weight-free kappa(T_L) goes through it once
per order, and a later series at that order asks only for f_K's own
monomials.  The uncentered order bound holds: in a Wick pairing each pair
of y's is 1/n with equal indices or -1/n^2 free, and a free pair costs one
more 1/n and frees at most one index sum, worth n; a moment ends at
n^-(deg - #factors).  Exponents are >= 1 here; the series engine carries
p_0 = n as the exponent 0 and clears that field before calling in.  The
tests rebuild the uncentered moments from these and check them against the
partition-type and set-partition sums.
"""

from __future__ import annotations

from typing import Iterable

# A monomial is one int code: the multiplicity of exponent e sits in bits
# [FIELD_BITS e, FIELD_BITS (e + 1)).  The width is fixed, so the memo is
# shared by every family and order; the series engine's products of at most
# 12 f_K monomials have at most 24 < 2^FIELD_BITS factors.
FIELD_BITS = 5
FIELD_MASK = (1 << FIELD_BITS) - 1


def encode(mono: Iterable[int]) -> int:
    """The packed code of a monomial given by its exponents >= 0, each at
    most ``FIELD_MASK`` times."""
    return sum(1 << FIELD_BITS * e for e in mono)


def code_fields(code: int) -> list[tuple[int, int]]:
    """(exponent, multiplicity) for every nonzero field of a code, by rising
    exponent; the lowest set bit finds the next field, so empty fields cost
    nothing."""
    out = []
    while code:
        shift = (code & -code).bit_length() - 1
        shift -= shift % FIELD_BITS
        m = code >> shift & FIELD_MASK
        out.append((shift // FIELD_BITS, m))
        code -= m << shift
    return out


def _degree_and_bound(fields) -> tuple[int, int]:
    """Total degree and lower bound on the leading power p of E[monomial] as
    a series in 1/n: p >= deg/2 - #even - #odd/2 (and the moment is 0 for
    odd total degree).  An exponent 0 counts as even: it is the factor
    p_0 = n, exactly -1."""
    deg = odd = even = 0
    for e, m in fields:
        deg += e * m
        if e & 1:
            odd += m
        else:
            even += m
    return deg, deg // 2 - even - odd // 2


def monomial_order_bound(mono: Iterable[int]) -> int:
    """The order bound of ``_degree_and_bound`` for exponents >= 0."""
    return _degree_and_bound(code_fields(encode(mono)))[1]


# ---------------------------------------------------------------------------
# fast engine: integration-by-parts recurrence

_MOM_CACHE: dict[int, tuple[int, dict[int, int]]] = {}


def mu_moment_dict(code: int, cut: int) -> dict[int, int]:
    """E[prod p_j(y)] of the monomial with this code (its p_0 field zero) as
    {p: int coeff of n^-p}, complete for p <= cut (entries with p > cut may
    be absent; callers filter).  Memoized per code; the internal format of
    the series engine's hot loop.  Every coefficient is a signed int, and
    no sub-monomial has more factors than its parent, so no field overflows."""
    if not code:
        return {0: 1}
    if code >> FIELD_BITS & FIELD_MASK:  # p_1 = 0
        return {}
    cached = _MOM_CACHE.get(code)
    if cached is not None and cached[0] >= cut:
        return cached[1]
    fields = code_fields(code)
    deg, bound = _degree_and_bound(fields)
    if deg % 2 or bound > cut:
        _MOM_CACHE[code] = (cut, {})
        return {}

    # (sub-monomial, weight, power of 1/n)
    if code >> 2 * FIELD_BITS & FIELD_MASK:
        # remove one p_2: E[p_2 H] = (1 + (deg H - 1)/n) E[H]
        rest = code - (1 << 2 * FIELD_BITS)
        terms = [(rest, 1, 0), (rest, deg - 3, 1)]
    else:
        k, mk = fields.pop()  # peel the largest exponent, >= 3
        rest = code - (1 << FIELD_BITS * k)
        if mk > 1:
            fields.append((k, mk - 1))
        # p_{k-2} unless k = 3, then p_{a+k-2} and, unless a = 2,
        # p_{k-1} p_{a-1} for each other factor p_a
        sub = rest + (1 << FIELD_BITS * (k - 2))
        terms = [(sub, k - 1, 1), (sub, 1 - k, 2)] if k > 3 else []
        for a, m in fields:
            base = rest - (1 << FIELD_BITS * a)
            terms.append((base + (1 << FIELD_BITS * (a + k - 2)), a * m, 1))
            if a > 2:
                terms.append((base + (1 << FIELD_BITS * (k - 1))
                               + (1 << FIELD_BITS * (a - 1)), -a * m, 2))
    out: dict[int, int] = {}
    for sub, w, shift in terms:
        for p, c in mu_moment_dict(sub, cut - shift).items():
            if p + shift <= cut:
                out[p + shift] = out.get(p + shift, 0) + w * c
    _MOM_CACHE[code] = (cut, out)
    return out
