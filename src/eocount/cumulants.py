"""Exact cumulant calculus: the double factorial (the Gaussian moment
E[X^(2k)] = (2k-1)!! sigma^(2k)) and a generic moment-to-cumulant recursion
that works over any commutative ring supporting +, - and *.  Its callers
pass ints, the power-scaled moments behind the log(a + b cos) coefficients
in ``expansion``, and Fractions, the exact cumulants in ``taillab``; the
series engine's joint cumulants have their own recursion
(``expansion._t_cumulants``).  The Isserlis pairing
sums and the connected-pairing joint cumulants live in the tests as
independent references.
"""

from __future__ import annotations

from math import comb
from typing import Sequence


# ---------------------------------------------------------------------------
# counts

def double_factorial(m: int) -> int:
    r = 1
    while m > 1:
        r *= m
        m -= 2
    return r


# ---------------------------------------------------------------------------
# generic moment -> cumulant conversion

def moments_to_cumulants(moments: Sequence) -> list:
    """kappa_1..kappa_r from raw moments m_1..m_r of a single variable, by
    kappa_r = m_r - sum_{j<r} C(r-1, j-1) kappa_j m_{r-j}.

    Ring elements only need +, -, * among themselves and by Python ints:
    the package passes ints and Fractions, the tests also truncated Laurent
    series.
    """
    kappas: list = []
    for r in range(1, len(moments) + 1):
        k = moments[r - 1]
        for j in range(1, r):
            k = k - comb(r - 1, j - 1) * kappas[j - 1] * moments[r - j - 1]
        kappas.append(k)
    return kappas
