"""Truncated Laurent series in 1/n with exact rational coefficients.

A series is a finite map ``p -> a_p`` representing ``sum_p a_p * n**(-p)``.
Negative ``p`` (positive powers of n) are allowed, so an exact polynomial in n
is a special case.  An optional truncation order ``p_max`` marks that powers
``n**(-p)`` with ``p > p_max`` have been dropped; arithmetic propagates the
tightest truncation of the operands and drops coefficients beyond it eagerly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


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
