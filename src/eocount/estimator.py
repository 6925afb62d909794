"""General-graph estimates of the Eulerian orientation count: the spanning
-tree/Gaussian closed form, cumulant corrections of order one and two, and the
classical sandwich bounds from central binomial coefficients.

One banded elimination (``graphs.l_plus_j_adjugate``: of the grounded
Laplacian on sparse graphs, of L + J on dense ones) gives tau and the integer
adjugate adj(L + J), hence
Sigma_w = (L + wJ)^(-1) = adj/(n^2 tau) + (1/w - 1) J/n^2 for every w > 0.
The edge-difference covariances are w-free: M/tau for the integer matrix
M = B^T adj B / n^2 (B the signed incidence matrix).  The edges come in
blocks that a label shift maps onto each other: one edge each on a general
graph, one offset class each on a circulant C_n(S) in its own labels, whose
adj(L + J) is one row rotated (one solve, O(n) ints).  kappa_1 and kappa_2
are exact Fractions of ints from M, tau and per-block integer vectors A_j:
kappa_1 the sum of A_0 times the block sizes, from M's diagonal alone;
kappa_2 a short sum of Hadamard-power contractions of A_j, j >= 2, over one
row of M per block streamed from adj, so no m x m matrix is held: O(b m K)
for b blocks.  Each exact result enters the log estimates rounded once, at a
working precision of at least ``expansion.MIN_BITS`` = 128 bits (``numeric``).
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import islice, repeat
from math import comb, factorial, isqrt, lcm, prod
from operator import floordiv, mod, mul, sub
from typing import NamedTuple

from .errors import DomainError, SizeLimitError
from .expansion import (DEFAULT_BITS, MAX_K, WeightSpec, f_as_mu_polynomial,
                        log_closed_form, require_precision, to_text)
from .graphs import (DENSE_MAX_N, Graph, _adjugate_row, all_degrees_even,
                     cheeger_constant, l_plus_j_adjugate, require_dense,
                     spanning_tree_count)
from .cumulants import double_factorial
from .numeric import Real, as_decimal, exp, working

# Bounds kappa_2's time alone, counting m^2 edge pairs on either route.  At
# the cap, m = 1000 on C250(1,2,3,4), eo_estimate at M = 2, K = 4 took
# 9.5-10.3 s and 23.1-23.5 MiB of peak RSS under shuffled labels (M = 1:
# 0.2 s, 21.6 MiB), and 0.05-0.09 s and 16.7 MiB in its own labels, where
# kappa_2 reads |S| m pairs (2 shared Xeon cores, CPython 3.11.7).
KAPPA2_MAX_EDGE_PAIRS = 10**6
_LOG_COS = WeightSpec.for_family("RT")  # log cos x = log(0 + 1 cos x)


def _require_vertices(g: Graph) -> None:
    if g.n < 2:
        raise DomainError("estimate needs at least 2 vertices")


def _positive(w) -> Fraction:
    w = Fraction(w)
    if w <= 0:
        raise DomainError("w must be positive")
    return w


# ---------------------------------------------------------------------------
# covariance

def default_w(g: Graph) -> Fraction:
    """2 d / n, the shift under which the estimator's analysis inverts the
    matrix; any positive w is equivalent for the results."""
    return Fraction(2 * g.max_degree(), g.n)


class Covariance(NamedTuple):
    """The Gaussian covariance Sigma_w = (L + wJ)^(-1) of a connected graph,
    for every w > 0, from tau and adj(L + J), which one banded elimination
    gives.

    ``edges`` lists every edge once, in blocks that a label shift maps onto
    each other, and ``blocks`` their sizes.  ``var`` holds, per block, the
    diagonal of M = B^T adj B / n^2 at its first edge (j, k),
    (adj_jj + adj_kk - 2 adj_jk) / n^2, over tau the w-free variance of
    X_j - X_k.  On a general graph each sorted edge is a block and ``adj``
    is adj(L + J); on a circulant in its own labels block s is
    (x, x + s mod n) for x below its size, and ``adj`` holds row 0 alone.
    """

    n: int
    tau: int                  # spanning trees; det(L + J) = n^2 tau
    adj: list[list[int]]      # one row of adj(L + J) per vertex orbit
    edges: list[tuple[int, int]]
    blocks: list[int]         # block sizes
    var: list[int]            # per block

    def norm_inf(self, w) -> Fraction:
        """||Sigma_w||_inf, which the cumulant bounds assume is at most 1/2:
        with w = p/q, Sigma_w = (p adj + (q - p) tau J) / (p n^2 tau), its
        largest absolute row sum taken in one pass over adj."""
        p, q = _positive(w).as_integer_ratio()
        shift = (q - p) * self.tau
        return Fraction(max(sum(abs(p * x + shift) for x in row) for row in self.adj),
                        p * self.n ** 2 * self.tau)


def _row(adj: list[list[int]], v: int) -> list[int]:
    """Row v of adj(L + J): ``Covariance.adj[v]``, or its row 0 rotated."""
    return adj[v] if len(adj) > 1 else adj[0][-v:] + adj[0][:-v]


def _exact_over_n2(values: list[int], n2: int) -> list[int]:
    if any(map(mod, values, repeat(n2))):
        raise ArithmeticError("B^T adj(L + J) B is not divisible by n^2")
    return list(map(floordiv, values, repeat(n2)))


def _classes(g: Graph) -> dict[int, int]:
    """{s: edge count} over the offset classes s = min(v - u, n - v + u) of
    the edges when v -> v + 1 mod n maps the edge set onto itself (a
    circulant in these labels), else {}; O(m)."""
    n, edges = g.n, g.edges
    if any(((u + 1, v + 1) if v + 1 < n else (0, u + 1)) not in edges
           for u, v in edges):
        return {}
    return dict(sorted(Counter(min(v - u, n - v + u) for u, v in edges).items()))


def covariance_sigma(g: Graph) -> Covariance:
    """Sigma_w for every w, tau and the diagonal of M from one banded
    elimination; DomainError unless the graph is connected.  On a circulant
    one row of adj(L + J) (``graphs._adjugate_row``), no n x n sweep, and one
    block per offset class."""
    _require_vertices(g)
    n, classes = g.n, _classes(g)
    if classes:
        tau, r, row = _adjugate_row(g)
        adj = [row[r:] + row[:r]] if tau else None
        edges = [(x, (x + s) % n) for s, count in classes.items() for x in range(count)]
        blocks = list(classes.values())
    else:
        tau, adj = l_plus_j_adjugate(g)
        edges, blocks = sorted(g.edges), [1] * g.edge_count
    if not tau:
        raise DomainError("covariance needs a connected graph (L + J singular)")
    var = ([2 * (adj[0][0] - adj[0][s]) for s in classes] if classes else
           [adj[j][j] + adj[k][k] - 2 * adj[j][k] for j, k in edges])
    return Covariance(n, tau, adj, edges, blocks, _exact_over_n2(var, n * n))


# ---------------------------------------------------------------------------
# sandwich bounds

def schrijver_upper_squared(g: Graph) -> int:
    """B = prod C(d_i, d_i/2), the square of the upper bound, as one power
    per distinct degree."""
    if not all_degrees_even(g):
        raise DomainError("bounds need all degrees even")
    return prod(comb(d, d // 2) ** k for d, k in Counter(g.degrees).items())


def schrijver_lower(g: Graph, B: int) -> Fraction:
    """lower = B / 2^|E| (also the Pauling estimate) for B =
    ``schrijver_upper_squared(g)``.  B holds 2 to the sum of popcount(d_i/2)
    (Kummer's theorem), shifted out before the Fraction's gcd, which is
    quadratic in the length of B."""
    v = sum((d // 2).bit_count() for d in g.degrees)
    return Fraction(B >> v, 1 << (g.edge_count - v))


# ---------------------------------------------------------------------------
# first-order closed form

def _require_eulerian(g: Graph) -> None:
    _require_vertices(g)
    if not g.is_connected():
        raise DomainError("estimate needs a connected graph")
    if not all_degrees_even(g):
        raise DomainError("estimate needs all degrees even")


def _closed_form_logs(g: Graph, tau: int, bits: int):
    """(base, log_eo_hat): base = |E| log 2 - log(tau)/2 + (n-1)/2 log(2/pi),
    ``log_closed_form`` of log cos at exponent 0, and log_eo_hat = base plus
    the exact degree-sum exponent rounded once, the closed form at that
    exponent bit for bit."""
    with working(bits):
        base = log_closed_form(_LOG_COS, g.n, g.edge_count, Decimal(tau).ln(), 0, bits)
        return base, Real(base + as_decimal(degree_sum_reference(g)))


def eo_hat_log(g: Graph, bits: int = DEFAULT_BITS):
    """log of the closed-form estimate
    2^|E| / sqrt(tau) * (2/pi)^((n-1)/2) * exp(-1/4 sum (1/d_j + 1/d_k)^2)."""
    require_precision(bits)
    _require_eulerian(g)
    return _closed_form_logs(g, spanning_tree_count(g), bits)[1]


def degree_sum_reference(g: Graph) -> Fraction:
    """-1/4 sum_{jk in E} (1/d_j + 1/d_k)^2, the first-order exponent: the
    value kappa_1 approaches for well-conditioned graphs, as one term per
    distinct sorted degree pair (a, b): its edge count times
    ((a + b)/(a b))^2."""
    deg = g.degrees
    pairs = Counter((deg[u], deg[v]) if deg[u] <= deg[v] else (deg[v], deg[u])
                    for u, v in g.edges)
    return -sum((k * Fraction(a + b, a * b) ** 2 for (a, b), k in pairs.items()),
                Fraction(0)) / 4


# ---------------------------------------------------------------------------
# cumulant corrections

def edge_cap(M: int) -> int:
    """The most edges an estimate at M accepts: kappa_2's edge-pair cap at
    M = 2, else the edges of K_n at n = ``graphs.DENSE_MAX_N``."""
    return isqrt(KAPPA2_MAX_EDGE_PAIRS) if M == 2 else comb(DENSE_MAX_N, 2)


def require_orders(M: int, K: int, edges: int = 0) -> None:
    """M in 0..2 and, for a cumulant (M >= 1), 2 <= K <= ``expansion.MAX_K``,
    with no graph; given its edge count, kappa_2's edge-pair cap too."""
    if M not in (0, 1, 2):
        raise DomainError("M must be 0, 1 or 2")
    if M >= 1 and K < 2:
        raise DomainError("K must be >= 2")
    if M >= 1 and K > MAX_K:
        raise SizeLimitError(f"K is capped at {MAX_K}")
    if M == 2 and edges > edge_cap(M):
        raise SizeLimitError("edge-pair cap exceeded")


def _edge_terms(cov: Covariance, coeffs: dict[int, Fraction]):
    """(den, A) for h = 0..K, K the largest l of the map {l: c_l}:
    A = den tau^(K-h) A_{2h} on ints, A_j as in ``kappa2_f``, with den the
    common denominator of the c_l, one for every h, and each A[c] a
    polynomial in var[c] by Horner's rule, one per edge block."""
    K, tau = max(coeffs), cov.tau
    den = lcm(*(c.denominator for c in coeffs.values()))
    num = {l: c.numerator * (den // c.denominator) for l, c in coeffs.items()}
    for h in range(K + 1):
        j = 2 * h
        # coefficient of S_ee^(l-h) in A_j, highest l first
        coef = [num[l] * comb(2 * l, j) * double_factorial(2 * l - j - 1)
                * tau ** (K - l) if l in num else 0 for l in range(K, h - 1, -1)]
        A = [0] * len(cov.var)
        for c in coef:
            A = [acc * v + c for acc, v in zip(A, cov.var)]
        yield den, A


def kappa1_f(g: Graph, cov: Covariance, coeffs: dict[int, Fraction]) -> Fraction:
    """The exact first cumulant of f_K = sum_e sum_l c_l X_e^(2l),
    sum_{l=2}^K c_l (2l-1)!! sum_{jk} S_{jk,jk}^l = sum_c |block c| A_0[c],
    with S = M/tau: the j = 0 term of kappa_2's sum.  ``coeffs`` is f_K's
    map {l: c_l}, K its largest l; for log cos it is
    ``expansion.f_as_mu_polynomial`` of RT."""
    K = max(coeffs, default=0)
    require_orders(1, K)
    den, A = next(_edge_terms(cov, coeffs))
    return Fraction(sum(map(mul, cov.blocks, A)), den * cov.tau ** K)


def kappa2_f(g: Graph, cov: Covariance, coeffs: dict[int, Fraction]) -> Fraction:
    """Second cumulant of f_K: the sum over ordered edge pairs (e, f) and
    orders l1, l2 of c_{l1} c_{l2} Cov(X_e^{2l1}, X_f^{2l2}), with
    ``coeffs`` the map {l: c_l} as in ``kappa1_f``.

    For centered jointly Gaussian U, V with Var U = a, Var V = b and
    Cov(U, V) = c,
        Cov(U^{2l1}, V^{2l2}) = sum_{even j >= 2} j! C(2l1, j) C(2l2, j)
            (2l1-j-1)!! (2l2-j-1)!! a^{l1-j/2} b^{l2-j/2} c^j,
    the j = 0 term of E[U^{2l1} V^{2l2}] being E U^{2l1} E V^{2l2}.  The sum
    over l1 and l2 therefore separates:
        kappa_2 = sum_{j=2,4,..,2K} j! A_j^T S^(o j) A_j,
        A_j[e] = sum_l c_l C(2l, j) (2l-j-1)!! S_ee^{l-j/2},
    with S = M/tau the edge-difference covariance matrix and S^(o j) its j-th
    Hadamard power.  On ints: D tau^(K-j/2) A_j is an integer vector (D the
    common denominator of the c_l), so the sum is one integer
    contraction with the M^(o j) over D^2 tau^(2K).  A label shift maps
    block c's representative r_c = (j, k) onto each of its edges, so with
    S(c, u) = sum_{f in block u} M[r_c][f]^j and |block c| S(c, u) =
    |block u| S(u, c),
        A_j^T M^(o j) A_j = sum_c |block c| A_j[c]
            (2 sum_{u >= c} A_j[u] S(c, u) - A_j[c] S(c, c)):
    one row of M per block, from adj[j] - adj[k], read against the blocks
    u >= c and dropped after; O(b m K) time for b blocks, O(m K) ints.
    """
    K = max(coeffs, default=0)
    require_orders(2, K, g.edge_count)
    (den, _), *terms = _edge_terms(cov, coeffs)  # h = 0 is kappa_1's term
    edges, blocks, total, start = cov.edges, cov.blocks, 0, 0
    for c, count in enumerate(blocks):
        j, k = edges[start]
        d = list(map(sub, _row(cov.adj, j), _row(cov.adj, k)))
        row = _exact_over_n2([d[s] - d[t] for s, t in edges[start:]], cov.n ** 2)
        row = had = list(map(mul, row, row))  # M[r_c]^(o 2); M[r_c] is dropped
        for h, (_, A) in enumerate(terms, 1):
            if h > 1:
                had = list(map(mul, had, row))
            S = had if len(blocks) - c == len(had) else [  # S(c, u) per block u
                sum(islice(it, size)) for it in [iter(had)] for size in blocks[c:]]
            total += count * factorial(2 * h) * A[c] * (
                2 * sum(map(mul, S, A[c:])) - A[c] * S[0])
        start += count
    return Fraction(total, den * den * cov.tau ** (2 * K))


# ---------------------------------------------------------------------------
# reports

class EstimateReport(NamedTuple):
    """One ``eo_estimate``.  ``in_hypothesis`` tests only ||Sigma_w||_inf
    <= 1/2; ``within_sandwich`` is the check against the proven bounds (K5
    at M = 2, K = 4 is in the hypothesis and above the upper bound)."""

    graph_id: str
    n: int
    edge_count: int
    w: Fraction
    bits: int
    sigma_norm_inf: Fraction        # exact ||Sigma_w||_inf
    in_hypothesis: bool             # ||Sigma_w||_inf <= 1/2
    log_eo_hat: Real                # at ``bits``
    kappa: dict[int, Fraction]      # r -> exact cumulant kappa_r
    log_corrected: dict[int, Real]  # r -> log estimate through order r
    schrijver_lower: Fraction       # also the Pauling estimate
    schrijver_upper_sq: int         # exact square of the upper bound
    cheeger: Fraction | None
    cheeger_ratio: Fraction | None  # h(G)/d
    cheeger_skipped: str | None     # why cheeger is None

    def logs(self) -> dict[int, Real]:
        """M -> log estimate: the closed form at 0, then log_corrected."""
        return {0: self.log_eo_hat, **self.log_corrected}

    def within_sandwich(self) -> dict[int, bool]:
        """M -> whether the log estimate at that M lies in
        [log schrijver_lower, log(schrijver_upper_sq)/2], compared at the
        report's bits."""
        with working(self.bits):
            lower = self.schrijver_lower
            lo = Decimal(lower.numerator).ln() - Decimal(lower.denominator).ln()
            hi = Decimal(self.schrijver_upper_sq).ln() / 2
            return {M: lo <= v <= hi for M, v in self.logs().items()}

    def to_json(self) -> dict:
        bits = self.bits
        lower = to_text(self.schrijver_lower, 30, bits)
        with working(bits):
            return {
                "graph": self.graph_id,
                "n": self.n,
                "edges": self.edge_count,
                "w": to_text(self.w),
                "precision_bits": self.bits,
                "sigma_norm_inf": to_text(self.sigma_norm_inf, 30, bits),
                "in_hypothesis": self.in_hypothesis,
                "log_eo_hat": to_text(self.log_eo_hat, 30, bits),
                "eo_hat": to_text(exp(self.log_eo_hat), 30),
                "kappa": {str(r): to_text(v, 30, bits)
                          for r, v in self.kappa.items()},
                "log_corrected": {str(r): to_text(v, 30, bits)
                                  for r, v in self.log_corrected.items()},
                "corrected": {str(r): to_text(exp(v), 30)
                              for r, v in self.log_corrected.items()},
                "schrijver_lower": lower,
                "schrijver_upper": to_text(Decimal(self.schrijver_upper_sq).sqrt(), 30),
                "pauling": lower,
                "within_sandwich": {str(M): inside for M, inside
                                    in self.within_sandwich().items()},
                "cheeger": to_text(self.cheeger) if self.cheeger is not None else None,
                "cheeger_over_max_degree": (to_text(self.cheeger_ratio)
                                            if self.cheeger_ratio is not None
                                            else None),
                "cheeger_skipped": self.cheeger_skipped,
            }


def eo_estimate(g: Graph, M: int = 2, K: int = 4, w=None,
                bits: int = DEFAULT_BITS, graph_id: str = "") -> EstimateReport:
    """Estimate with up to two cumulant corrections.

    M = 0 reports just the closed form; M = 1 replaces its exponent with the
    exact kappa_1; M = 2 adds kappa_2/2.  Both cumulants use the same K.  The
    exponent sum_{r<=M} kappa_r/r! is exact and rounded once.  Corrections
    beyond 2 cost |E|^r edge tuples and are out of scope here.
    """
    require_orders(M, K, g.edge_count)
    require_precision(bits)
    require_dense(g)  # before the O(n + m) checks and the bounds
    _require_eulerian(g)
    wf = default_w(g) if w is None else _positive(w)
    upper_sq = schrijver_upper_squared(g)
    lower = schrijver_lower(g, upper_sq)
    try:
        h, skipped = cheeger_constant(g), None
        ratio = h / g.max_degree()
    except SizeLimitError as exc:  # above graphs.CHEEGER_MAX_N
        h, ratio, skipped = None, None, str(exc)
    cov = covariance_sigma(g)
    norm = cov.norm_inf(wf)
    base, log_eo_hat = _closed_form_logs(g, cov.tau, bits)
    coeffs = f_as_mu_polynomial(_LOG_COS, K) if M else {}
    kappa = {r: f(g, cov, coeffs) for r, f in ((1, kappa1_f), (2, kappa2_f))[:M]}
    log_corr: dict[int, Real] = {}
    exponent = Fraction(0)
    with working(bits):
        for r, k in kappa.items():
            exponent += k / factorial(r)
            log_corr[r] = Real(base + as_decimal(exponent))
    return EstimateReport(
        graph_id=graph_id or f"graph(n={g.n}, m={g.edge_count})",
        n=g.n, edge_count=g.edge_count, w=wf, bits=bits,
        sigma_norm_inf=norm, in_hypothesis=norm <= Fraction(1, 2),
        log_eo_hat=log_eo_hat,
        kappa=kappa, log_corrected=log_corr,
        schrijver_lower=lower, schrijver_upper_sq=upper_sq,
        cheeger=h, cheeger_ratio=ratio, cheeger_skipped=skipped,
    )
