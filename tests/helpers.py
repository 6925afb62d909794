"""Thin wrappers over the shipped code that only the tests call, and the
tests' series type.

The package keeps each computation in the form its callers need: the moment
recurrence on packed int codes, the exponent series as a plain {p:
coefficient} map (its cumulants only inside one int sum), Sigma_w as
integer rows over one denominator, reports and instances as the CLI reads
and prints them.  These helpers give the tests the friendlier forms:
``LaurentSeries``, a truncated series in 1/n with its arithmetic, for the
oracles' independent routes; a power-sum moment of a sequence of exponents
as a LaurentSeries (the uncentered one, rebuilt from the recurrence's
centered moments), the series' kappa_r as {p: Fraction} maps, Sigma_w as Fractions,
a log estimate by order, the small named graphs, the Laplacian as a dense
matrix, fair-bit product spaces and tables built from a Python function,
and graph and instance objects in their file formats.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from typing import Mapping

from eocount import expansion
from eocount.cumulants import double_factorial
from eocount.errors import SizeLimitError
from eocount.graphs import Graph, complete_multipartite, l_plus_j_adjugate
from eocount.powersums import FIELD_BITS, FIELD_MASK, encode, mu_moment_dict
from eocount.taillab import DiscreteProductSpace

# Most factors of a monomial here and in the partition-type oracles; the
# series engine's products of at most 12 f_K monomials have at most 24
# factors, and each field of a packed code holds up to 31.
TYPE_ENUM_MAX_FACTORS = 26


# ---------------------------------------------------------------------------
# truncated Laurent series in 1/n with exact rational coefficients
#
# A series is a finite map p -> a_p representing sum_p a_p * n**(-p).
# Negative p (positive powers of n) are allowed, so an exact polynomial in n
# is a special case.  An optional truncation order p_max marks that powers
# n**(-p) with p > p_max have been dropped; arithmetic propagates the
# tightest truncation of the operands and drops coefficients beyond it
# eagerly.

def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LaurentSeries:
    __slots__ = ("coeffs", "p_max")

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None,
                 p_max: int | None = None):
        c = {}
        if coeffs:
            for p, v in coeffs.items():
                v = Fraction(v)
                if v != 0 and (p_max is None or p <= p_max):
                    c[int(p)] = v
        self.coeffs = c
        self.p_max = p_max

    @classmethod
    def term(cls, coeff, p: int = 0, p_max: int | None = None) -> "LaurentSeries":
        return cls({p: Fraction(coeff)}, p_max)

    @classmethod
    def zero(cls, p_max: int | None = None) -> "LaurentSeries":
        return cls({}, p_max)

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, p: int) -> Fraction:
        return self.coeffs.get(p, Fraction(0))

    def leading_order(self) -> int | None:
        """Smallest p with nonzero coefficient (the dominant power of 1/n)."""
        return min(self.coeffs) if self.coeffs else None

    def truncate(self, p_max: int | None) -> "LaurentSeries":
        pm = _min_order(self.p_max, p_max)
        return LaurentSeries(self.coeffs, pm)

    def _coerce(self, other):
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentSeries({0: Fraction(other)})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        pm = _min_order(self.p_max, o.p_max)
        out = dict(self.coeffs)
        for p, v in o.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + v
        return LaurentSeries(out, pm)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries({p: -v for p, v in self.coeffs.items()}, self.p_max)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                return LaurentSeries({}, self.p_max)
            return LaurentSeries({p: v * f for p, v in self.coeffs.items()},
                                 self.p_max)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        pm = _min_order(self.p_max, other.p_max)
        out = {}
        for pa, va in self.coeffs.items():
            for pb, vb in other.coeffs.items():
                p = pa + pb
                if pm is None or p <= pm:
                    out[p] = out.get(p, Fraction(0)) + va * vb
        return LaurentSeries(out, pm)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "LaurentSeries(0)"
        parts = []
        for p in sorted(self.coeffs):
            c = self.coeffs[p]
            if p == 0:
                parts.append(f"{c}")
            elif p < 0:
                parts.append(f"({c})*n^{-p}")
            else:
                parts.append(f"({c})/n^{p}")
        s = " + ".join(parts)
        if self.p_max is not None:
            s += f" + O(n^-{self.p_max + 1})"
        return f"<{s}>"


# ---------------------------------------------------------------------------
# power-sum moments

def mu_monomial(source) -> tuple[int, ...]:
    """Normalize a monomial given as a sequence of exponents >= 1."""
    exps = tuple(sorted(int(k) for k in source))
    if exps and exps[0] < 1:
        raise ValueError("exponents must be >= 1")
    return exps


def xbar_split(mono, cut: int | None = None,
               p1: bool = True) -> dict[int, tuple[int, int]]:
    """prod_i mu_{k_i}(x) split by x = y + xbar 1 into
    prod_i sum_s C(k_i, s) xbar^(k_i - s) p_s(y), p_s the power sums of y:
    {packed code of the (s_i): (sum of prod C(k_i, s_i), m)}, each term
    carrying xbar^m, m = sum (k_i - s_i); the exponent 0 is the factor
    p_0 = n.  With a cut, the terms whose xbar^m n^z alone passes n^-cut
    (m - z > cut, z the number of s_i = 0) are dropped, since adding a
    factor never lowers m - z; p1=False drops the terms with a factor
    p_1(y) = 0."""
    terms = {0: (1, 0)}
    for k in mono:
        nxt: dict[int, tuple[int, int]] = {}
        for code, (w, m) in terms.items():
            gap = m - (code & FIELD_MASK)
            for t in range(k + 1):
                if (cut is None or gap + k - t - (t == 0) <= cut) and (p1 or t != 1):
                    key = code + (1 << FIELD_BITS * t)
                    nxt[key] = (nxt.get(key, (0,))[0] + w * comb(k, t), m + k - t)
        terms = nxt
    return terms


def mu_moment(mono, p_max: int | None = None) -> LaurentSeries:
    """E[prod mu_j] of x with i.i.d. N(0, 1/n) components, truncated at
    n^(-p_max), exact (finite) for p_max None, rebuilt from the shipped
    recurrence, which gives the moments of the power sums p_s(y) of the
    centered y = x - xbar 1: xbar ~ N(0, 1/n^2) is independent of y, so
    E[prod mu_{k_i}] = sum_s prod C(k_i, s_i) E[xbar^m] E[prod p_{s_i}(y)]
    over the terms of ``xbar_split`` without p_1, with m = sum (k_i - s_i)
    and E[xbar^m] = (m-1)!! n^-m for even m."""
    mono = mu_monomial(mono)
    if len(mono) > TYPE_ENUM_MAX_FACTORS:
        raise SizeLimitError(f"mu_moment capped at {TYPE_ENUM_MAX_FACTORS} factors")
    deg = sum(mono)
    cut = deg // 2 if p_max is None else p_max
    out: dict[int, int] = {}
    for code, (w, m) in xbar_split(mono, cut, p1=False).items():
        z = code & FIELD_MASK
        if m % 2:
            continue
        w *= double_factorial(m - 1)
        for p, c in mu_moment_dict(code - z, cut - m + z).items():
            p += m - z
            if p <= cut:
                out[p] = out.get(p, 0) + w * c
    return LaurentSeries(out, p_max)


# ---------------------------------------------------------------------------
# the exponent series' cumulants

def series_cumulants(w, c: int) -> tuple[dict[int, Fraction], ...]:
    """kappa_1..kappa_c of f_K in the series of order c, K = c + 1, each a
    {p: Fraction} map of its nonzero coefficients of n^-p, p <= c - 1:
    ``expansion_series``'s linear form, D^r kappa_r = sum over the rows of
    ``expansion._T_CUMULANTS[c - 1]`` and the singletons kappa(T_l) = E[T_l]
    of (r!/prod mult!) prod (D c_l) kappa(T_L), divided by D^r."""
    expansion.expansion_series(w, c)  # fills the record of the cut
    w = expansion.WeightSpec.for_family(w) if isinstance(w, str) else w
    f = expansion.f_as_mu_polynomial(w, c + 1)
    D = lcm(*(e.denominator for e in f.values()))
    dc = {l: e.numerator * (D // e.denominator) for l, e in f.items()}
    items, rows = expansion._T_CUMULANTS[c - 1]
    singles = [((l,), 1, expansion._expect([(code, k) for code, k, b in items[l]
                                            if b < c], c - 1)) for l in dc]
    sums = [{} for _ in range(c)]
    for L, ways, values in singles + rows:
        acc = sums[len(L) - 1]
        for p, v in values.items():
            acc[p] = acc.get(p, 0) + ways * prod(dc.get(l, 0) for l in L) * v
    return tuple({p: Fraction(v, D**r) for p, v in sorted(acc.items()) if v}
                 for r, acc in enumerate(sums, start=1))


# ---------------------------------------------------------------------------
# estimator

def sigma_w(g, w) -> list[list[Fraction]]:
    """Sigma_w of a connected graph, exact: adj/(n^2 tau) + (1/w - 1) J/n^2
    from the full adjugate of ``l_plus_j_adjugate``."""
    tau, adj = l_plus_j_adjugate(g)
    n2 = g.n ** 2
    shift = (1 / Fraction(w) - 1) / n2
    return [[Fraction(x, n2 * tau) + shift for x in row] for row in adj]


def shuffled(g, seed: int = 0):
    """g with its vertices relabelled by a seeded random permutation: a
    circulant in natural labels is then, but for K_n and small n, no longer
    mapped onto itself by v -> v + 1, and the estimator takes its general
    route."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def log_estimate(rep, M: int | None = None):
    """The log estimate of an EstimateReport at M, by default at the highest
    M computed."""
    logs = rep.logs()
    return logs[max(logs) if M is None else M]


# ---------------------------------------------------------------------------
# graphs

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def octahedron_graph() -> Graph:
    return complete_multipartite(2, 2, 2)


def laplacian(g: Graph) -> list[list[int]]:
    """Laplacian as a nested list of exact ints: degrees on the diagonal,
    -1 at edges.  Its quadratic form is the sum of (x_j - x_k)^2 over edges."""
    L = [[0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        L[v][v] = g.degrees[v]
    for u, v in g.edges:
        L[u][v] = -1
        L[v][u] = -1
    return L


def graph_to_json(g: Graph) -> dict:
    """The JSON graph-file object, 1-based."""
    return {"n": g.n, "edges": sorted([u + 1, v + 1] for u, v in g.edges)}


# ---------------------------------------------------------------------------
# tail lab

def uniform_bits(n: int) -> DiscreteProductSpace:
    return DiscreteProductSpace([[0, 1]] * n, [["1/2", "1/2"]] * n)


def points(space: DiscreteProductSpace):
    """The index tuples of the space, in row-major order."""
    return product(*(range(s) for s in space.sizes))


def tabulate(space: DiscreteProductSpace, fn) -> tuple[Fraction, ...]:
    """fn(values...) over the space in row-major order."""
    return tuple(Fraction(fn(*[space.alphabets[i][k] for i, k in enumerate(x)]))
                 for x in points(space))


def instance_to_json(space: DiscreteProductSpace, table) -> dict:
    """The tail-lab instance object."""
    return {"alphabets": [[str(v) for v in a] for a in space.alphabets],
            "weights": [[str(w) for w in ws] for ws in space.weights],
            "f": [str(v) for v in table]}
