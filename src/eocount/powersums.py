"""Exact moments of monomials in power sums mu_k = sum_j X_j^k of i.i.d.
centered Gaussians with variance 1/n, as truncated series in 1/n with int
coefficients.

A monomial is one int code, in which the multiplicity of exponent e sits in
bits [FIELD_BITS e, FIELD_BITS (e + 1)): mu_2^2 mu_4 is 2 << 10 | 1 << 20,
``encode((2, 2, 4))``.  The moments come from one route, Gaussian
integration by parts, by three rules:

- mu_2 in closed form: Euler's identity sum_j X_j d_j G = (deg G) G gives
  E[mu_2 G] = (1 + deg G / n) E[G], so for a mu_2-free G
  E[mu_2^j G] = E[G] prod_{i<j} (1 + (deg G + 2i)/n);
- otherwise peel the largest exponent k: mu_k becomes (k-1)/n mu_{k-2};
- and merge it with each other factor mu_a into (a/n) mu_{a+k-2}
  (mu_0 = n), so E[mu_k G] = (k-1)/n E[mu_{k-2} G]
  + (1/n) sum_a a E[mu_{a+k-2} G/mu_a].

Results are memoized per code: clearing the mu_2 field, peeling mu_k or
merging it with mu_a is an int subtraction and addition on the code, and the
fields are read back only on a memo miss.  The weights and the base case 1
are positive ints, so the recurrence and its memo run on Python ints.  The
memo and the table of mu_2 factor polynomials are module-global: the series
engine's fill of its weight-free kappa(T_L) goes through them once per
order, and a later series at that order asks only for f_K's own monomials.
Exponents are >= 1 here; the series engine carries mu_0 = n as the exponent
0 and clears that field before calling in.  The partition-type sum and the
set-partition sum over factor positions are cross-checks in the tests.
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
    mu_0 = n, exactly -1."""
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

# prod_{i<j} (1 + (d + 2i)/n) as coefficients of n^-r, keyed by (d, j): the
# factor that j copies of mu_2 put on E[G] for a mu_2-free G of degree d.
_MU2_FACTORS: dict[tuple[int, int], list[int]] = {}

_MU2_SHIFT = 2 * FIELD_BITS


def _mu2_factor(deg: int, j: int) -> list[int]:
    key = (deg, j)
    poly = _MU2_FACTORS.get(key)
    if poly is None:
        poly = [1]
        for w in range(deg, deg + 2 * j, 2):
            if w:  # E[mu_2] = 1: the factor 1 + 0/n adds no term
                poly = [a + w * b for a, b in zip(poly + [0], [0] + poly)]
        _MU2_FACTORS[key] = poly
    return poly


def mu_moment_dict(code: int, cut: int) -> dict[int, int]:
    """E[prod mu_j] of the monomial with this code (its mu_0 field zero) as
    {p: int coeff of n^-p}, complete for p <= cut (entries with p > cut may
    be absent; callers filter).  Memoized per code; the internal format of
    the series engine's hot loop.  Every weight is a positive int and the
    base case is 1, so every coefficient is a positive int.  No sub-monomial
    has more factors than its parent, so no field overflows."""
    if not code:
        return {0: 1}
    cached = _MOM_CACHE.get(code)
    if cached is not None and cached[0] >= cut:
        return cached[1]
    fields = code_fields(code)
    deg, bound = _degree_and_bound(fields)
    if deg % 2 or bound > cut:
        _MOM_CACHE[code] = (cut, {})
        return {}

    out: dict[int, int] = {}
    j = code >> _MU2_SHIFT & FIELD_MASK
    if j:
        # Euler: E[mu_2^j G] = E[G] prod_{i<j} (1 + (deg G + 2i)/n)
        factor = _mu2_factor(deg - 2 * j, j)
        for p, c in mu_moment_dict(code - (j << _MU2_SHIFT), cut).items():
            if p <= cut:
                for r, f in enumerate(factor[:cut + 1 - p], p):
                    out[r] = out.get(r, 0) + c * f
        _MOM_CACHE[code] = (cut, out)
        return out

    k, mk = fields.pop()  # peel the largest exponent, 1 or >= 3
    rest = code - (1 << FIELD_BITS * k)
    if mk > 1:
        fields.append((k, mk - 1))

    # replace mu_k by (k-1) mu_{k-2} / n
    if k > 2:
        sub = mu_moment_dict(rest + (1 << FIELD_BITS * (k - 2)), cut - 1)
        w = k - 1
        for p, c in sub.items():
            if p + 1 <= cut:
                out[p + 1] = out.get(p + 1, 0) + w * c

    # merge mu_k with one other factor mu_a into mu_{a+k-2} / n
    for a, m in fields:
        w = a * m
        base = rest - (1 << FIELD_BITS * a)
        merged = a + k - 2
        if merged >= 1:
            sub = mu_moment_dict(base + (1 << FIELD_BITS * merged), cut - 1)
            for p, c in sub.items():
                if p + 1 <= cut:
                    out[p + 1] = out.get(p + 1, 0) + w * c
        else:  # merged exponent 0: mu_0 = n cancels the 1/n
            for p, c in mu_moment_dict(base, cut).items():
                if p <= cut:
                    out[p] = out.get(p, 0) + w * c

    _MOM_CACHE[code] = (cut, out)
    return out
