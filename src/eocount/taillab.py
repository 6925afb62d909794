"""Exhaustive verification bed for the cumulant tail bound on small finite
product spaces.

A DiscreteProductSpace holds independent coordinates with rational weights and
a rational function table.  Everything the bound needs is computed exactly:
the iterated-difference suprema Delta_V, the smoothness number alpha, the
cumulants (full enumeration, then the generic moment-to-cumulant conversion),
and the defect delta with E[e^f] = (1+delta)^n exp(sum kappa_r/r!).  The only
transcendental comparison (the delta inequality) runs in interval arithmetic
with outward rounding, so a reported pass is rigorous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, prod

import numpy as np
from mpmath import iv, mpf

from .cumulants import moments_to_cumulants
from .errors import DomainError, SizeLimitError

SPACE_MAX_POINTS = 10**6
DELTA_IV_PREC = 256


@dataclass(frozen=True)
class DiscreteProductSpace:
    """Independent coordinates X_i on finite alphabets with rational weights.

    ``alphabets[i]`` are the coordinate's values (labels only; the function is
    tabulated by index), ``weights[i]`` the positive probabilities summing to
    one.  A function on the space is a flat row-major tuple of Fractions of
    length prod(sizes).
    """

    alphabets: tuple[tuple[Fraction, ...], ...]
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.alphabets) != len(self.weights):
            raise DomainError("alphabets and weights must align")
        for vals, ws in zip(self.alphabets, self.weights):
            if len(vals) != len(ws) or not vals:
                raise DomainError("each coordinate needs matching nonempty lists")
            if any(w <= 0 for w in ws):
                raise DomainError("weights must be positive")
            if sum(ws) != 1:
                raise DomainError("weights must sum to 1")
        if prod(self.sizes) > SPACE_MAX_POINTS:
            raise SizeLimitError("product space too large")

    @classmethod
    def make(cls, alphabets, weights) -> "DiscreteProductSpace":
        return cls(tuple(tuple(Fraction(v) for v in a) for a in alphabets),
                   tuple(tuple(Fraction(w) for w in ws) for ws in weights))

    @classmethod
    def uniform_bits(cls, n: int) -> "DiscreteProductSpace":
        half = Fraction(1, 2)
        return cls(((Fraction(0), Fraction(1)),) * n, ((half, half),) * n)

    @property
    def n(self) -> int:
        return len(self.alphabets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.alphabets)

    def points(self):
        return product(*(range(s) for s in self.sizes))

    def tabulate(self, fn) -> tuple[Fraction, ...]:
        """Tabulate fn(values...) over the space in row-major order."""
        return tuple(Fraction(fn(*[self.alphabets[i][x[i]] for i in range(self.n)]))
                     for x in self.points())

    def to_json(self) -> dict:
        return {
            "alphabets": [[str(v) for v in a] for a in self.alphabets],
            "weights": [[str(w) for w in ws] for ws in self.weights],
        }

    @classmethod
    def from_json(cls, obj) -> "DiscreteProductSpace":
        return cls.make(obj["alphabets"], obj["weights"])


def table_to_json(table) -> list[str]:
    return [str(v) for v in table]


def table_from_json(items) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in items)


def instance_to_json(space: DiscreteProductSpace, table) -> dict:
    out = space.to_json()
    out["f"] = table_to_json(table)
    return out


def instance_from_json(obj):
    if isinstance(obj, str):
        obj = json.loads(obj)
    space = DiscreteProductSpace.from_json(obj)
    table = table_from_json(obj["f"])
    if len(table) != prod(space.sizes):
        raise DomainError("function table length mismatch")
    return space, table


# ---------------------------------------------------------------------------
# difference operators

def _scaled_int_table(space, table):
    """(numpy int64 array shaped by the space, common denominator)."""
    table = tuple(Fraction(v) for v in table)
    if len(table) != prod(space.sizes):
        raise DomainError("function table length mismatch")
    den = 1
    for v in table:
        den = den * v.denominator // gcd(den, v.denominator)
    arr = np.array([int(v * den) for v in table], dtype=np.int64)
    return arr.reshape(space.sizes), den


def delta_V(space: DiscreteProductSpace, table, V) -> Fraction:
    """sup over x, y of |iterated difference of f over the coordinates in V|,
    exact (integer arithmetic over a common denominator)."""
    V = tuple(sorted(set(V)))
    arr, den = _scaled_int_table(space, table)
    if not V:
        return Fraction(int(np.abs(arr).max()), den)
    for j in V:
        if not 0 <= j < space.n:
            raise DomainError(f"coordinate {j} out of range")

    best = 0

    def rec(a: np.ndarray, axes: tuple[int, ...]):
        nonlocal best
        if not axes:
            m = int(np.abs(a).max())
            if m > best:
                best = m
            return
        ax = axes[0]
        for y in range(space.sizes[ax]):
            slice_y = np.take(a, y, axis=ax)
            rec(a - np.expand_dims(slice_y, ax), axes[1:])

    rec(arr, V)
    return Fraction(best, den)


def alpha(space: DiscreteProductSpace, table, m: int) -> Fraction:
    """max over v <= m and coordinates j of sum_{|V| = v, j in V} Delta_V."""
    if m < 1:
        raise DomainError("m must be >= 1")
    n = space.n
    deltas: dict[tuple[int, ...], Fraction] = {}
    for v in range(1, min(m, n) + 1):
        for V in combinations(range(n), v):
            deltas[V] = delta_V(space, table, V)
    best = Fraction(0)
    for v in range(1, min(m, n) + 1):
        for j in range(n):
            s = sum((d for V, d in deltas.items() if len(V) == v and j in V),
                    Fraction(0))
            if s > best:
                best = s
    return best


# ---------------------------------------------------------------------------
# exact cumulants and the tail report

def _weight_numerators(space):
    dens = [1] * space.n
    for i, ws in enumerate(space.weights):
        for w in ws:
            dens[i] = dens[i] * w.denominator // gcd(dens[i], w.denominator)
    nums = [[int(w * dens[i]) for w in ws] for i, ws in enumerate(space.weights)]
    return nums, prod(dens)


def exact_moments_discrete(space: DiscreteProductSpace, table, r_max: int) -> list[Fraction]:
    """E[f^r], r = 1..r_max, by full enumeration; exact."""
    arr, den = _scaled_int_table(space, table)
    nums, wden = _weight_numerators(space)
    flat = arr.reshape(-1)
    sums = [0] * (r_max + 1)
    for idx, x in enumerate(space.points()):
        w = 1
        for i, xi in enumerate(x):
            w *= nums[i][xi]
        fv = int(flat[idx])
        p = w
        for r in range(1, r_max + 1):
            p *= fv
            sums[r] += p
    return [Fraction(sums[r], wden * den**r) for r in range(1, r_max + 1)]


def exact_cumulants_discrete(space: DiscreteProductSpace, table, r_max: int) -> list[Fraction]:
    """kappa_1..kappa_{r_max} of f(X), exact rationals."""
    return moments_to_cumulants(exact_moments_discrete(space, table, r_max))


@dataclass
class TailReport:
    n: int
    m: int
    alpha: Fraction
    kappas: list[Fraction]
    log_mgf: object                    # iv.mpf enclosure of log E e^f
    delta: object                      # iv.mpf enclosure
    delta_bound: object                # iv.mpf enclosure of e^((100 alpha)^(m+1)) - 1
    delta_holds: bool                  # rigorous: sup|delta| <= inf bound
    kappa_bounds: list[Fraction]       # 0.014 n ((r-1)!/r) (80 alpha)^r
    kappa_holds: list[bool]            # exact comparisons
    holds: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "alpha": str(self.alpha),
            "kappas": [str(k) for k in self.kappas],
            "log_mgf": str(mpf(self.log_mgf.mid)),
            "delta": str(mpf(self.delta.mid)),
            "delta_bound": str(mpf(self.delta_bound.mid)),
            "delta_holds": self.delta_holds,
            "kappa_bounds": [str(b) for b in self.kappa_bounds],
            "kappa_holds": self.kappa_holds,
            "holds": self.holds,
        }


def _iv_from_fraction(q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def check_tail_bound(space: DiscreteProductSpace, table, m: int,
                       prec: int = DELTA_IV_PREC) -> TailReport:
    """Exact verification of the tail bound at order m.

    delta is extracted as exp((log E e^f - sum kappa_r/r!)/n) - 1; its
    inequality is checked with interval arithmetic, the cumulant inequalities
    with exact rationals.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    kappas = exact_cumulants_discrete(space, table, m)
    a = alpha(space, table, m)
    n = space.n

    # exact kappa bounds: 0.014 = 7/500
    kappa_bounds = []
    kappa_holds = []
    for r in range(1, m + 1):
        bound = Fraction(7, 500) * n * Fraction(factorial(r - 1), r) * (80 * a) ** r
        kappa_bounds.append(bound)
        kappa_holds.append(abs(kappas[r - 1]) <= bound)

    arr, den = _scaled_int_table(space, table)
    nums, wden = _weight_numerators(space)
    flat = arr.reshape(-1)

    old_prec = iv.prec
    iv.prec = prec
    try:
        # E e^f: group equal scaled values, then few interval exps
        groups: dict[int, int] = {}
        for idx, x in enumerate(space.points()):
            w = 1
            for i, xi in enumerate(x):
                w *= nums[i][xi]
            fv = int(flat[idx])
            groups[fv] = groups.get(fv, 0) + w
        total = iv.mpf(0)
        for fv, w in sorted(groups.items()):
            total += iv.mpf(w) * iv.exp(iv.mpf(fv) / den)
        mean = total / iv.mpf(wden)
        log_mgf = iv.log(mean)

        ksum = sum((k / factorial(r) for r, k in enumerate(kappas, 1)),
                   Fraction(0))
        delta = iv.exp((log_mgf - _iv_from_fraction(ksum)) / n) - 1
        bound_arg = _iv_from_fraction((100 * a) ** (m + 1))
        delta_bound = iv.exp(bound_arg) - 1
        abs_delta = abs(delta)
        delta_holds = bool(abs_delta.b <= delta_bound.a)
    finally:
        iv.prec = old_prec

    return TailReport(
        n=n, m=m, alpha=a, kappas=kappas, log_mgf=log_mgf,
        delta=delta, delta_bound=delta_bound, delta_holds=delta_holds,
        kappa_bounds=kappa_bounds, kappa_holds=kappa_holds,
        holds=delta_holds and all(kappa_holds),
    )
