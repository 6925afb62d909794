"""Asymptotic expansions for the counts of regular tournaments (RT), Eulerian
digraphs (ED) and Eulerian oriented graphs (EOG).

Each family is the weighted orientation count of the complete graph with
per-pair factor a + b cos(theta_j - theta_k).  After the Gaussian reduction
the exponent correction is sum_{r<=M} kappa_r(f_K(X))/r! where X has i.i.d.
components of variance v/n and

    f_K(x) = sum_{l=2}^{K} e_{2l} sum_{j<k} (x_j - x_k)^{2l},

with e_{2l} the Taylor coefficients of log(a + b cos x).  Everything is exact.
With x rescaled to variance 1/n, f_K = sum_l c_l T_l with
T_l = sum_{j<k} (x_j - x_k)^(2l) and c_l = e_{2l}/b^l, so f_K is the map
{l: c_l} and the weight enters only through it: by multilinearity
kappa_r(f_K) is sum_{|L|=r} (r!/prod mult!) prod c_l kappa(T_L) over the
multisets L of Taylor orders.  The joint cumulants kappa(T_L) are
weight-free ints, computed once per order into one module record that every
weight reads: a row (L, r!/prod mult!, kappa(T_L)) per L, beside the items
of the T_l in the power-sum basis, where the exponent 0 stands for the
factor mu_0 = n.  So D^r kappa_r is one linear form in the rows with the
ints D c_l (D the common denominator of the c_l).  Every series in 1/n
inside the engine is a {p: int} map of the nonzero coefficients of n^-p, as
``mu_moment_dict`` returns it; the series sum_r D^r kappa_r / r! is
summed over one denominator, only its coefficients become Fractions, and
the closed-form prefactors are attached symbolically.  The e_{2l} come from a
moment-to-cumulant recursion on ints.  T_l sees only differences, so its
moments are those of the power sums of the centered x - xbar 1, where
p_1 = 0: T_l's monomials with an exponent 1 drop out.  A product monomial
of the T_l is one int, its exponents' multiplicities in fixed-width bit
fields, so a product is an int addition; the centered recurrence and its
memo take the same codes.  ``FAMILIES`` holds each family's weight (a, b)
and prefactor text, ``log_closed_form`` the Gaussian term of every count, a
Decimal float; ``numeric`` holds the floats, the precision and digit caps and
``to_text``, the printer of every result.

Why the cumulants decay: a joint cumulant kappa(T_{l_1}, ..., T_{l_r}) of
excess e = sum (l_i - 2) vanishes unless the r pairs form a connected
graph, which has at most r + 1 vertices, and each (x_j - x_k)^(2l) is
homogeneous of degree 2l in coordinates of variance 1/n, so it is
O(n^(r+1-sum l_i)) = O(n^(-(r-1+e))).  Through n^(-(c-1)) only r <= c and
e <= c - r count, so the record holds the L with |L| >= 2 and
e <= c - |L|, and a subset of such an L is such an L: its moments, from
which the cumulants come, need no other.  The moment E[T_L] itself is only
O(n^-e), so the cancellation that the record's fill checks is real.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, log10, prod
from operator import mul
from typing import NamedTuple

from .errors import DomainError, SizeLimitError
from .cumulants import moments_to_cumulants
from .numeric import (DEFAULT_BITS, MAX_EXPONENT_DIGITS, Real, as_decimal, exp, ln,
                      ln_constant, pi, require_precision, to_text, working)
from .powersums import FIELD_MASK, encode, monomial_order_bound, mu_moment_dict

MAX_ORDER = 12
# Largest Taylor order K of f_K, for the series and the estimator alike:
# kappa_2's ints grow as tau^(2K).
MAX_K = 64

# family -> ((a, b), prefactor): the weight a + b cos and the text of its
# K_n prefactor, which ``log_closed_form`` evaluates
FAMILIES = {
    "RT": ((Fraction(0), Fraction(1)), "n^(1/2) * (2^(n+1)/(pi n))^((n-1)/2)"),
    "ED": ((Fraction(1, 2), Fraction(1, 2)), "n^(1/2) * (4^n/(pi n))^((n-1)/2)"),
    "EOG": ((Fraction(1, 3), Fraction(2, 3)),
            "n^(1/2) * (3^(n+1)/(4 pi n))^((n-1)/2)"),
}


def family_facts(name: str) -> tuple:
    """The table entry of RT, ED or EOG; DomainError for any other name,
    "custom" included."""
    if name not in FAMILIES:
        raise DomainError(f"unknown family {name!r} (RT, ED or EOG)")
    return FAMILIES[name]


class WeightSpec:
    """Per-edge factor a + b cos(theta_j - theta_k); a + b = 1, b > 0."""

    __slots__ = ("a", "b", "family")

    def __init__(self, a, b, family: str = "custom"):
        self.a, self.b, self.family = Fraction(a), Fraction(b), family
        if self.a + self.b != 1 or self.b <= 0 or self.a < 0:
            raise DomainError("need a + b = 1, b > 0, a >= 0")

    def __eq__(self, other):
        return (type(other) is WeightSpec
                and (self.a, self.b, self.family) == (other.a, other.b, other.family))

    def __hash__(self):
        return hash((self.a, self.b, self.family))

    def leading_factor(self, n: int, edges: int) -> tuple[int, int]:
        """(q, p) of the count's leading factor q^p on n vertices and |E| =
        ``edges``: q = lcm(den a, den(b/2)), the least int that makes q a
        and q b/2 ints (2, 4 and 3 for RT, ED and EOG), and p = |E| + [a =
        0] (n - 1), where q = 2 and the n - 1 counts the 2^(n-1) saddle
        points."""
        return (lcm(self.a.denominator, (self.b / 2).denominator),
                edges + (0 if self.a else n - 1))

    @classmethod
    def for_family(cls, family: str) -> "WeightSpec":
        key = family.upper()
        (a, b), _ = family_facts(key)
        return cls(a, b, key)


# ---------------------------------------------------------------------------
# log(a + b cos) Taylor coefficients

def weight_log_coeffs(w: WeightSpec, L: int) -> list[Fraction]:
    """e_2, e_4, ..., e_{2L}: Taylor coefficients of log(a + b cos x) at 0
    (odd coefficients vanish), exact.

    In y = x^2, a + b cos x = 1 + sum_k b (-1)^k y^k / (2k)! is a moment
    generating series with moments m_k = b (-1)^k / (2^k (2k - 1)!!), so its
    log has coefficients kappa_k / k!.  An odd prime divides (2k - 1)!! at
    most k times, so with s = 2 den(b) times the odd primes below 2L every
    s^k m_k is an int, and the recursion, of degree k in the moments, gives
    the ints s^k kappa_k.
    """
    p, q = w.b.as_integer_ratio()
    half = q * prod(x for x in range(3, 2 * L, 2) if all(x % d for d in range(3, x, 2)))
    moments, t = [], 1
    for k in range(1, L + 1):
        t = t * half // (2 * k - 1)  # (s/2)^k / (2k - 1)!!, a multiple of q
        moments.append((-1) ** k * p * t // q)
    return [Fraction(kap, (2 * half) ** k * factorial(k))
            for k, kap in enumerate(moments_to_cumulants(moments), start=1)]


# ---------------------------------------------------------------------------
# f_K as the map of its coefficients

def f_as_mu_polynomial(w: WeightSpec, K: int) -> dict[int, Fraction]:
    """f_K = sum_l c_l T_l as the map {l: c_l}, l = 2..K, zeros left out;
    DomainError for K < 2 and SizeLimitError for K > ``MAX_K``.

    x is rescaled by sqrt(1/b), the family variance, so that downstream
    moments can assume component variance exactly 1/n: c_l = e_{2l}/b^l.
    The series engine and the estimator both read f_K here; perfbench's
    tracer times every series' span under this name.
    """
    if K < 2:
        raise DomainError("K must be >= 2")
    if K > MAX_K:
        raise SizeLimitError(f"K is capped at {MAX_K}")
    # the component variance of the reduced i.i.d. Gaussian, as a multiple
    # of 1/n, is 1/(2 |e_2|) = 1/b
    q, p = (1 / w.b).as_integer_ratio()
    return {l: Fraction(e.numerator * q**l, e.denominator * p**l)
            for l, e in enumerate(weight_log_coeffs(w, K)[1:], 2) if e}


def _folded_t(l: int) -> dict[tuple[int, int], int]:
    """T_l = sum_{j<k} (x_j - x_k)^(2l) as {(t, 2l - t): int coeff}: t and
    2l - t give identical monomials, so the half is folded in, leaving
    (-1)^t C(2l, t) for t < l and (-1)^l C(2l - 1, l - 1) for t = l."""
    return {(t, 2 * l - t): (-1) ** t * comb(2 * l, t) // (1 + (t == l))
            for t in range(l + 1)}


# ---------------------------------------------------------------------------
# the expansion itself

class ExpansionResult(NamedTuple):
    family: str
    order: int                      # series exact through n^-(order-1)
    prefactor: str                  # formula tag, see log_closed_form()
    coeffs: dict[int, Fraction]     # p -> coefficient of n^-p, p in 0..order-1

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "order": self.order,
            "prefactor": self.prefactor,
            "coeffs": {str(p): to_text(c) for p, c in sorted(self.coeffs.items())},
        }


# p_max -> (items, rows), the weight-free record of one cut: items maps
# l = 2 .. p_max + 2 to the monomials of T_l without a p_1, as (code, int
# coeff, order bound) by rising bound, and rows holds (L, r!/prod mult!,
# kappa(T_L)) for every nondecreasing L with |L| >= 2 and excess
# sum(l - 2) <= p_max + 1 - |L|, kappa(T_L) the {p: int} coefficients of
# n^-p, p <= p_max.  No weight enters, so every series at one order reads
# one record; MAX_ORDER bounds the map (799 rows through p_max = 11).
_T_CUMULANTS: dict[int, tuple[dict[int, list[tuple[int, int, int]]],
                              list[tuple[tuple[int, ...], int, dict[int, int]]]]] = {}


def _expect(codes, p_max: int) -> dict[int, int]:
    """sum c E[code] over (code, c) pairs, as {p: int coeff of n^-p},
    p <= p_max, zeros dropped.  The low field z of a code is the power of n
    from p_0: the recurrence gets the code with that field cleared, z
    orders deeper, and its memo answers a code met again at this cut."""
    acc: dict[int, int] = {}
    get = acc.get
    for code, c in codes:
        z = code & FIELD_MASK
        for p, mc in mu_moment_dict(code - z, p_max + z).items():
            p -= z
            if p <= p_max:
                acc[p] = get(p, 0) + c * mc
    acc = {p: v for p, v in acc.items() if v}
    if min(acc, default=0) < 0:
        raise AssertionError("a moment of T has a positive power of n")
    return acc


def _t_moments(items, p_max: int) -> dict[tuple[int, ...], dict[int, int]]:
    """{L: E[T_L]} for every admissible L at this cut, singletons included,
    by a depth-first walk over the multisets: a node multiplies its
    parent's product codes, kept in buckets by order bound, by the items of
    T_l, and drops the products whose bound passes p_max."""
    table = {}

    def walk(L, prods, ex):
        r = len(L)
        for l in range(L[-1] if L else 2, p_max + 3 - r - ex):  # admissible
            nxt: dict = {}
            for bound, bucket in prods.items():
                for code2, c2, bound2 in items[l]:
                    if bound + bound2 > p_max:
                        break
                    out = nxt.setdefault(bound + bound2, {})
                    get = out.get
                    for code, c in bucket.items():
                        key = code + code2
                        out[key] = get(key, 0) + c * c2
            nxt = {b: {code: v for code, v in bucket.items() if v}
                   for b, bucket in nxt.items()}
            table[L + (l,)] = _expect(
                (kv for bucket in nxt.values() for kv in bucket.items()), p_max)
            walk(L + (l,), nxt, ex + l - 2)

    walk((), {0: {0: 1}}, 0)
    del walk  # a cycle through its own cell would keep ``table`` until a gc pass
    return table


def _splits(S: tuple[int, ...]) -> list:
    """(B, S - B, ways) for every sub-multiset B != S of S that holds one
    designated element, a copy of S's rarest value (the fewest splits):
    ways is the number of index sets of B's type that hold that element."""
    vals = sorted(set(S))
    mult = [S.count(x) for x in vals]
    rare = vals[mult.index(min(mult))]
    out = [((), (), 1)]
    for x, m in zip(vals, mult):
        d = x == rare
        out = [(B + (x,) * b, R + (x,) * (m - b), w * comb(m - d, b - d))
               for B, R, w in out for b in range(d, m + 1)]
    return out[:-1]  # the last B is S


def _t_cumulants(p_max: int) -> tuple[dict, list]:
    """The ``_T_CUMULANTS`` record of this cut: the items of the T_l, then
    kappa(T_L) for every admissible L with |L| >= 2, from the moments of
    ``_t_moments`` by kappa(S) = E[S] - sum ways(B) kappa(B) E[S - B] over
    the B of ``_splits``, on {p: int} maps truncated at p_max (a subset of
    an admissible L is admissible).  AssertionError if some kappa(T_L) is
    nonzero below n^-(|L|-1+e) (module docstring)."""
    items = {l: sorted(((encode(m), c, monomial_order_bound(m))
                        for m, c in _folded_t(l).items() if m[0] != 1),
                       key=lambda it: it[2])
             for l in range(2, p_max + 3)}
    moments = _t_moments(items, p_max)
    kappas = {}
    for S in sorted(moments, key=len):
        k = dict(moments[S])
        get = k.get
        for B, rest, ways in _splits(S):
            m = moments[rest]
            for i, kb in kappas[B].items():
                u = ways * kb
                for j, v in m.items():
                    if i + j <= p_max:
                        k[i + j] = get(i + j, 0) - u * v
        k = kappas[S] = {p: v for p, v in k.items() if v}
        if min(k, default=p_max + 1) < sum(S) - len(S) - 1:
            raise AssertionError(f"kappa(T_{S}) is nonzero below its decay order")
    return items, [(L, factorial(len(L)) // prod(factorial(L.count(l)) for l in set(L)), k)
                   for L, k in kappas.items() if len(L) > 1]


def expansion_series(family: str | WeightSpec, c: int = 12) -> ExpansionResult:
    """Exponent-series coefficients through n^-(c-1), exact rationals.

    f_K = sum_l c_l T_l, the map of ``f_as_mu_polynomial``, and D the common
    denominator of the c_l, so by multilinearity D^r kappa_r =
    sum_{|L|=r} (r!/prod mult!) prod (D c_l) kappa(T_L): a linear form in
    the rows of the weight-free ``_T_CUMULANTS`` record, filled once per
    cut, and the singletons kappa(T_l) = E[T_l] with multinomial 1, read
    through ``mu_moment_dict`` on every call.  The series sum_r kappa_r / r!
    is summed on ints over the one denominator D^M M!.
    """
    if c > MAX_ORDER:
        raise SizeLimitError(f"expansion order capped at c={MAX_ORDER}")
    if c < 1:
        raise DomainError("order must be >= 1")
    w = WeightSpec.for_family(family) if isinstance(family, str) else family
    # the error target n^-c: kappa_{c+1} and the Taylor terms past l = c + 1
    # start there (module docstring)
    M, K = c, c + 1
    p_max = c - 1
    f = f_as_mu_polynomial(w, K)
    D = lcm(*(e.denominator for e in f.values()))
    dc = {l: e.numerator * (D // e.denominator) for l, e in f.items()}
    if p_max not in _T_CUMULANTS:
        _T_CUMULANTS[p_max] = _t_cumulants(p_max)
    items, rows = _T_CUMULANTS[p_max]
    singles = [((l,), 1, _expect([(code, c) for code, c, b in items[l] if b <= p_max],
                                 p_max)) for l in dc]  # l <= K = p_max + 2
    sums = [[0] * (p_max + 1) for _ in range(M)]
    for L, ways, values in singles + rows:
        w_L = ways * prod(dc.get(l, 0) for l in L)
        if w_L:
            acc = sums[len(L) - 1]
            for p, v in values.items():
                acc[p] += w_L * v
    # sum_r kappa_r / r! over the one denominator D^M M!
    scale = [D ** (M - r) * factorial(M) // factorial(r) for r in range(1, M + 1)]
    totals = [sum(map(mul, column, scale)) for column in zip(*sums)]
    coeffs = {p: Fraction(v, D**M * factorial(M)) for p, v in enumerate(totals) if v}
    return ExpansionResult(
        family=w.family, order=c,
        prefactor=FAMILIES[w.family][1] if w.family in FAMILIES else "",
        coeffs=coeffs,
    )


# ---------------------------------------------------------------------------
# numeric evaluation

def log_closed_form(w: WeightSpec, n: int, edges: int, log_tau, exponent,
                    bits: int) -> Real:
    """|E| log q - log(tau)/2 - ((n-1)/2) log(2 pi b) + [a = 0] (n-1) log 2 +
    exponent at ``bits``, the exact exponent rounded once: the log count of
    a graph with n vertices, |E| = ``edges`` and tau spanning trees
    (``log_tau`` = log tau, a Decimal), with q and the saddle term from
    ``WeightSpec.leading_factor``.  On K_n, tau = n^(n-2), it is the
    prefactor."""
    q, p = w.leading_factor(n, edges)
    with working(bits):
        log_2_pi_b = ln_constant(2 * pi() * as_decimal(w.b), bits)
        return Real(p * ln_constant(q, bits)
                    - log_tau / 2 - (n - 1) * log_2_pi_b / 2 + as_decimal(exponent))


def require_eval_point(family: str, n: int) -> None:
    """Reject an evaluation point outside the family's domain: n >= 1, n odd
    for regular tournaments, and a family with a closed-form prefactor; and,
    before the series, an n whose leading factor q^p on K_n
    (``WeightSpec.leading_factor``) passes 10^(10^18) by 1%: the others move
    its log by under 10^-7 there, so nearer it ``numeric.exp`` decides."""
    if n < 1:
        raise DomainError("evaluation needs n >= 1")
    if family == "RT" and n % 2 == 0:
        raise DomainError("regular tournaments need odd n")
    (a, b), _ = family_facts(family)
    q, lead = WeightSpec(a, b).leading_factor(n, n * (n - 1) // 2)
    if lead and log10(lead) + log10(log10(q)) > MAX_EXPONENT_DIGITS + log10(1.01):
        raise SizeLimitError(f"the value would pass 10^(10^{MAX_EXPONENT_DIGITS})")


def evaluate_expansion(result: ExpansionResult, n: int, bits: int = DEFAULT_BITS):
    """(value, log_value) of prefactor * exp(truncated series) at this n, two
    Reals: ``log_closed_form`` on K_n with the exact series rounded once."""
    require_precision(bits)
    require_eval_point(result.family, n)
    P, den = max(result.coeffs, default=0), lcm(*(c.denominator for c in result.coeffs.values()))
    exponent = Fraction(sum(c.numerator * (den // c.denominator) * n ** (P - p)  # one denominator
                            for p, c in result.coeffs.items()), den * n**P)
    with working(bits):
        log_val = log_closed_form(WeightSpec.for_family(result.family), n,
                                  n * (n - 1) // 2, (n - 2) * ln(n),
                                  exponent, bits)
        return Real(exp(log_val)), log_val
