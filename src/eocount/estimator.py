"""General-graph estimates of the Eulerian orientation count: the spanning
-tree/Gaussian closed form, cumulant corrections of order one and two, and the
classical sandwich bounds from central binomial coefficients.

The Gaussian covariance Sigma = (L + wJ)^(-1) is computed exactly, as the
integer adjugate of q (L + wJ) over its determinant (w = p/q), and each entry
is rounded once to the caller's precision (at least MIN_BITS = 128 bits).
Its edge-difference covariances do not depend on w (any w > 0 gives the same
estimates).  The cumulants are mpmath sums at that precision; kappa_2 is a
short sum of contractions A_j^T (S o ... o S) A_j over Hadamard powers of the
edge-difference covariance matrix S, with no per-pair work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import mpmath
from mpmath.libmp import from_rational, round_nearest

from .errors import DomainError, SizeLimitError
from .expansion import log_cos_coeffs
from .graphs import Graph, cheeger_constant, laplacian, spanning_tree_count
from .cumulants import double_factorial

DEFAULT_BITS = 256
MIN_BITS = 128
KAPPA2_MAX_EDGE_PAIRS = 10**6


def require_precision(bits: int) -> None:
    """Reject a working precision below the estimator's 128-bit floor."""
    if bits < MIN_BITS:
        raise DomainError(f"precision must be at least {MIN_BITS} bits, got {bits}")


def _require_vertices(g: Graph) -> None:
    if g.n < 2:
        raise DomainError("estimate needs at least 2 vertices")


def _rational_mpf(num: int, den: int, bits: int):
    """num/den rounded once to the nearest mpf of the given precision."""
    return mpmath.mpf(from_rational(num, den, bits, round_nearest))


# ---------------------------------------------------------------------------
# linear algebra

def default_w(g: Graph) -> Fraction:
    """2 d / n, the shift under which the estimator's analysis inverts the
    matrix; any positive w is equivalent for the results."""
    return Fraction(2 * g.max_degree(), g.n)


def _adjugate(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det, adj) of an integer matrix whose leading principal minors are all
    positive, by fraction-free (Bareiss) Gauss-Jordan elimination.

    The pivot at step k is the leading principal minor of order k + 1 and
    every division is exact.  Column k is dropped once it is eliminated, so
    the rows end as the adjugate.  A zero pivot means the matrix is singular
    (for a positive semidefinite one, every later minor vanishes too) and
    raises DomainError.
    """
    n = len(a)
    rows = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pk = rows[k]
        piv = pk[0]
        if piv == 0:
            raise DomainError("covariance needs a connected graph (L + wJ singular)")
        tail = pk[1:]
        rows = [tail if i == k else
                [(piv * x - r[0] * y) // prev for x, y in zip(r[1:], tail)]
                for i, r in enumerate(rows)]
        prev = piv
    return prev, rows


def covariance_sigma(g: Graph, w=None, bits: int = DEFAULT_BITS):
    """(Sigma, norm) with Sigma = (L + w J)^(-1) and norm = ||Sigma||_inf.

    With w = p/q, Sigma = q adj(A) / det(A) for the integer matrix
    A = q (L + wJ), which is positive definite exactly when the graph is
    connected.  Sigma and the norm are rounded once, to ``bits``.  The
    infinity norm feeds the estimate's validity diagnostics (the cumulant
    bounds assume it is at most 1/2).
    """
    require_precision(bits)
    _require_vertices(g)
    wf = default_w(g) if w is None else Fraction(w)
    if wf <= 0:
        raise DomainError("w must be positive")
    p, q = wf.numerator, wf.denominator
    det, adj = _adjugate([[q * x + p for x in row] for row in laplacian(g)])
    with mpmath.workprec(bits):
        sigma = mpmath.matrix(g.n)
        for i, row in enumerate(adj):
            for j, x in enumerate(row):
                sigma[i, j] = _rational_mpf(q * x, det, bits)
        norm = _rational_mpf(q * max(sum(map(abs, row)) for row in adj), det, bits)
        return sigma, norm


def edge_difference_cov(sigma, e: tuple[int, int], f: tuple[int, int]):
    """Cov(X_j - X_k, X_s - X_t) = sigma_js - sigma_jt - sigma_ks + sigma_kt."""
    j, k = e
    s, t = f
    return sigma[j, s] - sigma[j, t] - sigma[k, s] + sigma[k, t]


# ---------------------------------------------------------------------------
# sandwich bounds

def schrijver_bounds(g: Graph) -> tuple[Fraction, int]:
    """(lower, B) with lower = prod C(d_i, d_i/2) / 2^|E| (also the Pauling
    estimate) and upper = sqrt(B), B = prod C(d_i, d_i/2) kept exact."""
    if not all(d % 2 == 0 for d in g.degrees):
        raise DomainError("bounds need all degrees even")
    B = 1
    for d in g.degrees:
        B *= comb(d, d // 2)
    return Fraction(B, 2 ** g.edge_count), B


# ---------------------------------------------------------------------------
# first-order closed form

def _require_eulerian(g: Graph) -> None:
    _require_vertices(g)
    if not g.is_connected():
        raise DomainError("estimate needs a connected graph")
    if not all(d % 2 == 0 for d in g.degrees):
        raise DomainError("estimate needs all degrees even")


def _closed_form_logs(g: Graph, tau: int, bits: int):
    """(base, log_eo_hat): base = |E| log 2 - log(tau)/2 + (n-1)/2 log(2/pi),
    and log_eo_hat = base plus the degree-sum exponent."""
    corr = degree_sum_reference(g)
    with mpmath.workprec(bits):
        base = (g.edge_count * mpmath.log(2) - mpmath.log(tau) / 2
                + (g.n - 1) / mpmath.mpf(2) * mpmath.log(2 / mpmath.pi))
        return base, base + _rational_mpf(corr.numerator, corr.denominator, bits)


def eo_hat_log(g: Graph, bits: int = DEFAULT_BITS):
    """log of the closed-form estimate
    2^|E| / sqrt(tau) * (2/pi)^((n-1)/2) * exp(-1/4 sum (1/d_j + 1/d_k)^2)."""
    require_precision(bits)
    _require_eulerian(g)
    return _closed_form_logs(g, spanning_tree_count(g), bits)[1]


def degree_sum_reference(g: Graph) -> Fraction:
    """-1/4 sum_{jk in E} (1/d_j + 1/d_k)^2, the first-order exponent: the
    value kappa_1 approaches for well-conditioned graphs."""
    total = Fraction(0)
    for u, v in g.edges:
        total += (Fraction(1, g.degrees[u]) + Fraction(1, g.degrees[v])) ** 2
    return -total / 4


# ---------------------------------------------------------------------------
# cumulant corrections

def _require_cumulant_args(g: Graph, K: int, M: int) -> None:
    """K >= 2 for any cumulant (M >= 1), and the edge-pair cap for kappa_2."""
    if M >= 1 and K < 2:
        raise DomainError("K must be >= 2")
    if M >= 2 and g.edge_count ** 2 > KAPPA2_MAX_EDGE_PAIRS:
        raise SizeLimitError("edge-pair cap exceeded")


def kappa1_f(g: Graph, sigma, K: int, bits: int = DEFAULT_BITS):
    """The exact first cumulant
    sum_{l=2}^K c_{2l} (2l-1)!! sum_{jk} sigma_{jk,jk}^l."""
    _require_cumulant_args(g, K, 1)
    cs = log_cos_coeffs(K)
    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for e in sorted(g.edges):
            s = edge_difference_cov(sigma, e, e)
            sp = s * s
            for l in range(2, K + 1):
                c = cs[l - 1]
                total += (mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                          * double_factorial(2 * l - 1) * sp)
                sp *= s
        return total


def kappa2_f(g: Graph, sigma, K: int, bits: int = DEFAULT_BITS):
    """Second cumulant of f_K: the sum over ordered edge pairs (e, f) and
    orders l1, l2 of c_{2l1} c_{2l2} Cov(X_e^{2l1}, X_f^{2l2}).

    For centered jointly Gaussian U, V with Var U = a, Var V = b and
    Cov(U, V) = c,
        Cov(U^{2l1}, V^{2l2}) = sum_{even j >= 2} j! C(2l1, j) C(2l2, j)
            (2l1-j-1)!! (2l2-j-1)!! a^{l1-j/2} b^{l2-j/2} c^j,
    the j = 0 term of E[U^{2l1} V^{2l2}] being E U^{2l1} E V^{2l2}.  The sum
    over l1 and l2 therefore separates:
        kappa_2 = sum_{j=2,4,..,2K} j! A_j^T S^(o j) A_j,
        A_j[e] = sum_l c_{2l} C(2l, j) (2l-j-1)!! S_ee^{l-j/2},
    with S the edge-difference covariance matrix and S^(o j) its j-th
    Hadamard power.  The cost is O(m^2 K).
    """
    _require_cumulant_args(g, K, 2)
    edges = sorted(g.edges)
    cs = log_cos_coeffs(K)
    with mpmath.workprec(bits):
        # upper[e][i] = S[e][e + i]; S is symmetric
        rows = sigma.tolist()
        diff = [[a - b for a, b in zip(rows[j], rows[k])] for j, k in edges]
        upper = [[d[s] - d[t] for s, t in edges[e:]] for e, d in enumerate(diff)]
        var_pow = [[row[0] ** p for p in range(K + 1)] for row in upper]
        square = [[x * x for x in row] for row in upper]
        hadamard = square
        total = mpmath.mpf(0)
        for h in range(1, K + 1):
            j = 2 * h
            if h > 1:
                hadamard = [[x * y for x, y in zip(a, b)]
                            for a, b in zip(hadamard, square)]
            weights = []
            for l in range(max(2, h), K + 1):
                c = cs[l - 1] * comb(2 * l, j) * double_factorial(2 * l - j - 1)
                weights.append((_rational_mpf(c.numerator, c.denominator, bits),
                                l - h))
            A = [mpmath.fsum(wt * pw[p] for wt, p in weights) for pw in var_pow]
            quad = mpmath.fsum(
                A[e] * (2 * mpmath.fdot(row, A[e:]) - row[0] * A[e])
                for e, row in enumerate(hadamard))
            total += factorial(j) * quad
        return total


# ---------------------------------------------------------------------------
# reports

@dataclass
class EstimateReport:
    graph_id: str
    n: int
    edge_count: int
    w: Fraction
    bits: int
    sigma_norm_inf: object          # mpf
    in_hypothesis: bool             # ||Sigma_w||_inf <= 1/2
    log_eo_hat: object              # mpf
    kappa: dict[int, object]        # r -> mpf correction
    log_corrected: dict[int, object]  # r -> mpf, cumulative through order r
    schrijver_lower: Fraction       # also the Pauling estimate
    schrijver_upper_sq: int         # exact square of the upper bound
    cheeger: Fraction | None
    cheeger_ratio: Fraction | None  # h(G)/d

    def log_estimate(self, M: int | None = None):
        if M is None or M == max(self.log_corrected, default=0):
            if self.log_corrected:
                return self.log_corrected[max(self.log_corrected)]
            return self.log_eo_hat
        if M == 0:
            return self.log_eo_hat
        return self.log_corrected[M]

    def to_json(self) -> dict:
        def fstr(x):
            return mpmath.nstr(x, 30) if x is not None else None

        lower = fstr(mpmath.mpf(self.schrijver_lower.numerator)
                     / self.schrijver_lower.denominator)
        return {
            "graph": self.graph_id,
            "n": self.n,
            "edges": self.edge_count,
            "w": str(self.w),
            "precision_bits": self.bits,
            "sigma_norm_inf": fstr(self.sigma_norm_inf),
            "in_hypothesis": self.in_hypothesis,
            "log_eo_hat": fstr(self.log_eo_hat),
            "eo_hat": fstr(mpmath.exp(self.log_eo_hat)),
            "kappa": {str(r): fstr(v) for r, v in self.kappa.items()},
            "log_corrected": {str(r): fstr(v) for r, v in self.log_corrected.items()},
            "corrected": {str(r): fstr(mpmath.exp(v))
                          for r, v in self.log_corrected.items()},
            "schrijver_lower": lower,
            "schrijver_upper": fstr(mpmath.sqrt(mpmath.mpf(self.schrijver_upper_sq))),
            "pauling": lower,
            "cheeger": str(self.cheeger) if self.cheeger is not None else None,
            "cheeger_over_max_degree": (str(self.cheeger_ratio)
                                        if self.cheeger_ratio is not None else None),
        }


def eo_estimate(g: Graph, M: int = 2, K: int = 4, w=None,
                bits: int = DEFAULT_BITS, graph_id: str = "") -> EstimateReport:
    """Estimate with up to two cumulant corrections.

    M = 0 reports just the closed form; M = 1 replaces its exponent with the
    exact kappa_1; M = 2 adds kappa_2/2.  Both cumulants use the same K.
    Corrections beyond 2 cost |E|^r edge tuples and are out of scope here.
    """
    if M not in (0, 1, 2):
        raise DomainError("M must be 0, 1 or 2")
    require_precision(bits)
    _require_eulerian(g)
    _require_cumulant_args(g, K, M)
    wf = default_w(g) if w is None else Fraction(w)
    lower, upper_sq = schrijver_bounds(g)
    try:
        h = cheeger_constant(g)
        ratio = h / g.max_degree()
    except SizeLimitError:
        h = None
        ratio = None
    sigma, norm = covariance_sigma(g, wf, bits)
    base, log_eo_hat = _closed_form_logs(g, spanning_tree_count(g), bits)
    with mpmath.workprec(bits):
        kappa: dict[int, object] = {}
        log_corr: dict[int, object] = {}
        if M >= 1:
            kappa[1] = kappa1_f(g, sigma, K, bits)
            log_corr[1] = base + kappa[1]
        if M >= 2:
            kappa[2] = kappa2_f(g, sigma, K, bits)
            log_corr[2] = base + kappa[1] + kappa[2] / 2
        return EstimateReport(
            graph_id=graph_id or f"graph(n={g.n}, m={g.edge_count})",
            n=g.n, edge_count=g.edge_count, w=wf, bits=bits,
            sigma_norm_inf=norm,
            in_hypothesis=bool(norm <= mpmath.mpf(1) / 2),
            log_eo_hat=log_eo_hat,
            kappa=kappa, log_corrected=log_corr,
            schrijver_lower=lower, schrijver_upper_sq=upper_sq,
            cheeger=h, cheeger_ratio=ratio,
        )
