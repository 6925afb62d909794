"""General-graph estimates of the Eulerian orientation count: the spanning
-tree/Gaussian closed form, cumulant corrections of order one and two, and the
classical sandwich bounds from central binomial coefficients.

One banded elimination (``graphs.l_plus_j_adjugate``: of the grounded
Laplacian on sparse graphs, of L + J on dense ones) gives tau and the integer
adjugate adj(L + J), hence
Sigma_w = (L + wJ)^(-1) = adj/(n^2 tau) + (1/w - 1) J/n^2 for every w > 0.
The edge-difference covariances are w-free: M/tau for the integer matrix
M = B^T adj B / n^2 (B the signed incidence matrix).  kappa_1 and kappa_2 are
exact Fractions of ints built from M and tau and from one stream of per-edge
integer vectors A_j: kappa_1 is the sum of A_0, from M's diagonal alone;
kappa_2, the only user of the m x m matrix M, a short sum of Hadamard-power
contractions of A_j, j >= 2, with no per-pair work.  Each
exact result is rounded once, by ``expansion.to_mpf``, to at least
``expansion.MIN_BITS`` = 128 bits.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm, prod
from operator import floordiv, mod, mul, sub
from typing import NamedTuple

from .errors import DomainError, SizeLimitError
from .expansion import (DEFAULT_BITS, MAX_K, WeightSpec, f_as_mu_polynomial,
                        require_precision, to_mpf, to_text)
from .graphs import (Graph, all_degrees_even, cheeger_constant,
                     l_plus_j_adjugate, require_dense, spanning_tree_count)
from .cumulants import double_factorial

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

    ``var`` is the diagonal of M = B^T adj B / n^2 over the sorted edges,
    var[e] = (adj_jj + adj_kk - 2 adj_jk) / n^2 for e = (j, k); var[e]/tau
    is the w-free variance of X_j - X_k.  ``edge_matrix`` builds all of M.
    """

    n: int
    tau: int                  # spanning trees; det(L + J) = n^2 tau
    adj: list[list[int]]      # adjugate of L + J
    var: list[int]

    def _scaled(self, w) -> tuple[list[list[int]], int]:
        """Sigma_w as integer rows over one denominator: with w = p/q,
        Sigma_w = (p adj + (q - p) tau J) / (p n^2 tau)."""
        p, q = _positive(w).as_integer_ratio()
        shift = (q - p) * self.tau
        return ([list(map(shift.__add__, map(p.__mul__, row)))
                 for row in self.adj], p * self.n ** 2 * self.tau)

    def norm_inf(self, w) -> Fraction:
        """||Sigma_w||_inf, which the cumulant bounds assume is at most 1/2."""
        rows, den = self._scaled(w)
        return Fraction(max(sum(map(abs, row)) for row in rows), den)


def _exact_over_n2(values: list[int], n2: int) -> list[int]:
    if any(map(mod, values, repeat(n2))):
        raise ArithmeticError("B^T adj(L + J) B is not divisible by n^2")
    return list(map(floordiv, values, repeat(n2)))


def covariance_sigma(g: Graph) -> Covariance:
    """Sigma_w for every w, tau and the diagonal of M from one banded
    elimination; DomainError unless the graph is connected."""
    _require_vertices(g)
    tau, adj = l_plus_j_adjugate(g)
    if not tau:
        raise DomainError("covariance needs a connected graph (L + J singular)")
    var = [adj[j][j] + adj[k][k] - 2 * adj[j][k] for j, k in sorted(g.edges)]
    return Covariance(g.n, tau, adj, _exact_over_n2(var, g.n ** 2))


def edge_matrix(g: Graph, cov: Covariance) -> list[list[int]]:
    """M as upper rows over the sorted edges, edge[e][i] = M[e][e + i], so
    edge[e][0] = cov.var[e]; O(m^2) ints, which only kappa_2 needs."""
    edges = sorted(g.edges)
    diff = [list(map(sub, cov.adj[j], cov.adj[k])) for j, k in edges]
    return [_exact_over_n2([d[s] - d[t] for s, t in edges[e:]], g.n ** 2)
            for e, d in enumerate(diff)]


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
    and log_eo_hat = base plus the degree-sum exponent."""
    import mpmath

    corr = degree_sum_reference(g)
    with mpmath.workprec(bits):
        base = (g.edge_count * mpmath.log(2) - mpmath.log(tau) / 2
                + (g.n - 1) / mpmath.mpf(2) * mpmath.log(2 / mpmath.pi))
        return base, base + to_mpf(corr, bits)


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

def _require_cumulant_args(g: Graph, K: int, M: int) -> None:
    """2 <= K <= ``expansion.MAX_K`` for any cumulant (M >= 1), and the
    edge-pair cap for kappa_2."""
    if M >= 1 and K < 2:
        raise DomainError("K must be >= 2")
    if M >= 1 and K > MAX_K:
        raise SizeLimitError(f"K is capped at {MAX_K}")
    if M >= 2 and g.edge_count ** 2 > KAPPA2_MAX_EDGE_PAIRS:
        raise SizeLimitError("edge-pair cap exceeded")


def _edge_terms(cov: Covariance, coeffs: dict[int, Fraction], first: int = 0):
    """(den, A) for h = first..K, K the largest l of the map {l: c_l}:
    A = den tau^(K-h) A_{2h} on ints, A_j as in ``kappa2_f``, with den the
    common denominator of the c_l, one for every h, and each A[e] a
    polynomial in var[e] by Horner's rule."""
    K, tau = max(coeffs), cov.tau
    den = lcm(*(c.denominator for c in coeffs.values()))
    num = {l: c.numerator * (den // c.denominator) for l, c in coeffs.items()}
    for h in range(first, K + 1):
        j = 2 * h
        # coefficient of S_ee^(l-h) in A_j, highest l first
        coef = [num[l] * comb(2 * l, j) * double_factorial(2 * l - j - 1)
                * tau ** (K - l) if l in num else 0 for l in range(K, h - 1, -1)]
        A = []
        for v in cov.var:
            acc = 0
            for c in coef:
                acc = acc * v + c
            A.append(acc)
        yield den, A


def kappa1_f(g: Graph, cov: Covariance, coeffs: dict[int, Fraction]) -> Fraction:
    """The exact first cumulant of f_K = sum_e sum_l c_l X_e^(2l),
    sum_{l=2}^K c_l (2l-1)!! sum_{jk} S_{jk,jk}^l = sum_e A_0[e], with
    S = M/tau: the j = 0 term of kappa_2's sum.  ``coeffs`` is f_K's map
    {l: c_l}, K its largest l; for log cos it is
    ``expansion.f_as_mu_polynomial`` of RT."""
    K = max(coeffs, default=0)
    _require_cumulant_args(g, K, 1)
    den, A = next(_edge_terms(cov, coeffs))
    return Fraction(sum(A), den * cov.tau ** K)


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
    contraction with the M^(o j) over D^2 tau^(2K).  The cost is O(m^2 K).
    """
    K = max(coeffs, default=0)
    _require_cumulant_args(g, K, 2)
    square = [list(map(mul, row, row)) for row in edge_matrix(g, cov)]
    hadamard = square
    total = 0
    # h = 0 is kappa_1's term
    for h, (den, A) in enumerate(_edge_terms(cov, coeffs, 1), 1):
        if h > 1:
            hadamard = [list(map(mul, a, b)) for a, b in zip(hadamard, square)]
        total += factorial(2 * h) * sum(
            a * (2 * sum(map(mul, row, A[e:])) - row[0] * a)
            for e, (a, row) in enumerate(zip(A, hadamard)))
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
    log_eo_hat: object              # mpf
    kappa: dict[int, Fraction]      # r -> exact cumulant kappa_r
    log_corrected: dict[int, object]  # r -> mpf, cumulative through order r
    schrijver_lower: Fraction       # also the Pauling estimate
    schrijver_upper_sq: int         # exact square of the upper bound
    cheeger: Fraction | None
    cheeger_ratio: Fraction | None  # h(G)/d
    cheeger_skipped: str | None     # why cheeger is None

    def logs(self) -> dict[int, object]:
        """M -> log estimate: the closed form at 0, then log_corrected."""
        return {0: self.log_eo_hat, **self.log_corrected}

    def within_sandwich(self) -> dict[int, bool]:
        """M -> whether the log estimate at that M lies in
        [log schrijver_lower, log(schrijver_upper_sq)/2], compared at the
        report's bits."""
        import mpmath

        with mpmath.workprec(self.bits):
            lower = self.schrijver_lower
            lo = mpmath.log(lower.numerator) - mpmath.log(lower.denominator)
            hi = mpmath.log(self.schrijver_upper_sq) / 2
            return {M: bool(lo <= v <= hi) for M, v in self.logs().items()}

    def to_json(self) -> dict:
        import mpmath

        bits = self.bits
        lower = to_text(self.schrijver_lower, 30, bits)
        with mpmath.workprec(bits):
            return {
                "graph": self.graph_id,
                "n": self.n,
                "edges": self.edge_count,
                "w": to_text(self.w),
                "precision_bits": self.bits,
                "sigma_norm_inf": to_text(self.sigma_norm_inf, 30, bits),
                "in_hypothesis": self.in_hypothesis,
                "log_eo_hat": to_text(self.log_eo_hat, 30, bits),
                "eo_hat": to_text(mpmath.exp(self.log_eo_hat), 30, bits),
                "kappa": {str(r): to_text(v, 30, bits)
                          for r, v in self.kappa.items()},
                "log_corrected": {str(r): to_text(v, 30, bits)
                                  for r, v in self.log_corrected.items()},
                "corrected": {str(r): to_text(mpmath.exp(v), 30, bits)
                              for r, v in self.log_corrected.items()},
                "schrijver_lower": lower,
                "schrijver_upper": to_text(mpmath.sqrt(self.schrijver_upper_sq),
                                           30, bits),
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
    if M not in (0, 1, 2):
        raise DomainError("M must be 0, 1 or 2")
    require_precision(bits)
    require_dense(g)  # before the O(n + m) checks and the bounds
    _require_eulerian(g)
    _require_cumulant_args(g, K, M)
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
    kappa: dict[int, Fraction] = {}
    coeffs = f_as_mu_polynomial(_LOG_COS, K) if M else {}
    if M >= 1:
        kappa[1] = kappa1_f(g, cov, coeffs)
    if M >= 2:
        kappa[2] = kappa2_f(g, cov, coeffs)
    import mpmath

    log_corr: dict[int, object] = {}
    exponent = Fraction(0)
    with mpmath.workprec(bits):
        for r, k in kappa.items():
            exponent += k / factorial(r)
            log_corr[r] = base + to_mpf(exponent, bits)
    return EstimateReport(
        graph_id=graph_id or f"graph(n={g.n}, m={g.edge_count})",
        n=g.n, edge_count=g.edge_count, w=wf, bits=bits,
        sigma_norm_inf=norm, in_hypothesis=norm <= Fraction(1, 2),
        log_eo_hat=log_eo_hat,
        kappa=kappa, log_corrected=log_corr,
        schrijver_lower=lower, schrijver_upper_sq=upper_sq,
        cheeger=h, cheeger_ratio=ratio, cheeger_skipped=skipped,
    )
