"""Slow reference routes kept for the tests.

``kappa2_pairwise`` is the per-pair route to the second cumulant of f_K: for
every ordered edge pair it sums c_{2l1} c_{2l2} times the joint moment
E[X_e^{2l1} X_f^{2l2}] minus the product of the univariate moments.  The
shipped ``kappa2_f`` computes the same quantity as Hadamard-power
contractions, without the j = 0 term that cancels here.
"""

from math import comb

import mpmath

from eocount.cumulants import double_factorial
from eocount.estimator import DEFAULT_BITS, edge_difference_cov
from eocount.expansion import log_cos_coeffs


def bivariate_even_moment(p: int, q: int, suu, svv, suv):
    """E[U^p V^q] for centered jointly Gaussian (U, V), p + q even."""
    total = mpmath.mpf(0)
    jstart = (p % 2)
    for j in range(jstart, min(p, q) + 1, 2):
        term = (comb(p, j) * comb(q, j) * mpmath.factorial(j)
                * double_factorial(p - j - 1) * double_factorial(q - j - 1))
        total += (term * suu ** ((p - j) // 2) * svv ** ((q - j) // 2)
                  * suv ** j)
    return total


def kappa2_pairwise(g, sigma, K: int, bits: int = DEFAULT_BITS):
    """Second cumulant of f_K: sum over ordered edge pairs and orders of
    c_{2l1} c_{2l2} [E[X_e^{2l1} X_f^{2l2}] - E[X_e^{2l1}] E[X_f^{2l2}]]."""
    edges = sorted(g.edges)
    cs = log_cos_coeffs(K)
    with mpmath.workprec(bits):
        cvals = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in cs]
        var = [edge_difference_cov(sigma, e, e) for e in edges]
        # univariate moments E[X_e^{2l}]
        mom = [[double_factorial(2 * l - 1) * var[i] ** l for l in range(2, K + 1)]
               for i in range(len(edges))]
        total = mpmath.mpf(0)
        for i in range(len(edges)):
            for j in range(i, len(edges)):
                suv = edge_difference_cov(sigma, edges[i], edges[j])
                pair = mpmath.mpf(0)
                for l1 in range(2, K + 1):
                    for l2 in range(2, K + 1):
                        joint = bivariate_even_moment(2 * l1, 2 * l2,
                                                      var[i], var[j], suv)
                        disc = joint - mom[i][l1 - 2] * mom[j][l2 - 2]
                        pair += cvals[l1 - 1] * cvals[l2 - 1] * disc
                total += pair if i == j else 2 * pair
        return total
