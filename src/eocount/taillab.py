"""Exhaustive verification bed for the cumulant tail bound on small finite
product spaces.

A DiscreteProductSpace holds independent coordinates with rational weights
(its constructor turns numbers and "p/q" strings into Fractions) and a
rational function table.  Everything the bound needs is computed exactly,
on Python ints over one common denominator of the table: the
iterated-difference suprema Delta_V (pair-difference steps over all but one
coordinate of V, then the spread max - min along the last), the smoothness
number alpha, the cumulants (the distribution of f, then the generic
moment-to-cumulant conversion), and the defect delta with
E[e^f] = (1+delta)^n exp(sum kappa_r/r!).  The only transcendental
comparison (the delta inequality) runs on two-sided Decimal enclosures with
outward rounding, so a reported pass is rigorous.  Three caps apply before
any work: the space has at most SPACE_MAX_POINTS points, the order m is at
most TAIL_MAX_M, and the one walk behind alpha and Delta_V
(``alpha_reads``) reads at most ALPHA_MAX_READS table entries.
``check_tail_bound`` also checks the digits of alpha and of each kappa
bound before the cumulants.
"""

from __future__ import annotations

import json
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from operator import sub
from typing import NamedTuple

from .cumulants import moments_to_cumulants
from .errors import DomainError, SizeLimitError
from .numeric import (DEFAULT_BITS, context, exp_enclosure, ln_enclosure,
                      nearest_binary, require_digits, require_exponent, to_text)

SPACE_MAX_POINTS = 10**6
# Cap on the entries read by the one walk of alpha and Delta_V (alpha_reads),
# about half a minute of walk on one core: 16 fair bits at m = 3 read 1.4e7
# entries in 3.4 s and 18 bits 7.8e7 in 21 s; 19 fair bits at m = 3, inside
# SPACE_MAX_POINTS, would read 1.8e8, and Delta_V over five 10-value
# coordinates 1.1e8.
ALPHA_MAX_READS = 10**8
# Largest order m.  The cumulants, their bounds (80 alpha)^r and their digits
# grow with m: on a one-coordinate instance m = 100 takes 0.2 s, m = 400
# 3 s, and at m = 1000 the kappa bounds pass 4300 decimal digits.
TAIL_MAX_M = 100


class DiscreteProductSpace:
    """Independent coordinates X_i on finite alphabets with rational weights.

    ``alphabets[i]`` are the coordinate's values (labels only; the function is
    tabulated by index), ``weights[i]`` the positive probabilities summing to
    one; entries may be numbers or "p/q" strings, and are stored as Fractions.
    A function on the space is a flat row-major tuple of Fractions of length
    prod(sizes).
    """

    __slots__ = ("alphabets", "weights")

    def __init__(self, alphabets, weights):
        if len(alphabets) != len(weights):
            raise DomainError("alphabets and weights must align")
        self.alphabets = tuple(_rationals(a, "an alphabet") for a in alphabets)
        self.weights = tuple(_rationals(ws, "a weight list") for ws in weights)
        for vals, ws in zip(self.alphabets, self.weights):
            if len(vals) != len(ws) or not vals:
                raise DomainError("each coordinate needs matching nonempty lists")
            if any(w <= 0 for w in ws):
                raise DomainError("weights must be positive")
            if sum(ws) != 1:
                raise DomainError("weights must sum to 1")
        if prod(self.sizes) > SPACE_MAX_POINTS:
            raise SizeLimitError("product space too large")

    def __eq__(self, other):
        return (type(other) is DiscreteProductSpace
                and (self.alphabets, self.weights) == (other.alphabets, other.weights))

    def __hash__(self):
        return hash((self.alphabets, self.weights))

    @property
    def n(self) -> int:
        return len(self.alphabets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.alphabets)


def _rationals(items, what: str) -> tuple[Fraction, ...]:
    """A list of rationals (numbers or "p/q" strings, not bools) as Fractions,
    a Fraction kept as it is; a string's decimal exponent is checked first."""
    if not isinstance(items, (list, tuple)):
        raise DomainError(f"{what} must be a list")
    out = []
    for v in items:
        if isinstance(v, str):
            require_exponent(v)
        try:  # Fraction(True) would be 1
            out.append(v if type(v) is Fraction else Fraction(None if isinstance(v, bool) else v))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise DomainError(f"{what} has a non-rational entry {v!r}") from None
    return tuple(out)


def _json_list(obj, key: str) -> list:
    """obj[key] of an instance object; it must be present and a list."""
    if not isinstance(obj, dict) or not isinstance(obj.get(key), list):
        raise DomainError(f"instance needs a list {key!r}")
    return obj[key]


def instance_from_json(obj, m: int | None = None):
    """(space, table) from an instance object or its JSON text.  With the
    order m at which the instance will be checked, the work caps of
    ``check_tail_bound`` apply before the table is parsed."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        # a JSONDecodeError, an integer past the int -> str digit limit, or
        # nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"bad instance JSON: {exc}") from None
    space = DiscreteProductSpace(_json_list(obj, "alphabets"),
                                 _json_list(obj, "weights"))
    if m is not None:
        _require_alpha_work(space, m)
    table = _rationals(_json_list(obj, "f"), "the table f")
    if len(table) != prod(space.sizes):
        raise DomainError("function table length mismatch")
    return space, table


# ---------------------------------------------------------------------------
# the table on ints

def _scaled_int_table(space, table) -> tuple[list[int], int]:
    """(numerators, den): the table as ints over one common denominator."""
    table = _rationals(table, "the table f")
    if len(table) != prod(space.sizes):
        raise DomainError("function table length mismatch")
    den = lcm(*(v.denominator for v in table))
    return [v.numerator * (den // v.denominator) for v in table], den


def _rows(vals: list[int], shape: tuple[int, ...], j: int) -> list[list[int]]:
    """A row-major table cut along axis j: rows[a] is f(..a..) over the
    other axes, in row-major order.  Each row is filled by slices over the
    shorter of the outer and inner index ranges."""
    k, inner = shape[j], prod(shape[j + 1:])
    step = k * inner
    outer = len(vals) // step
    rows = []
    for a in range(k):
        row = [0] * (outer * inner)
        if inner <= outer:
            for t in range(inner):
                row[t::inner] = vals[a * inner + t::step]
        else:
            for o in range(outer):
                lo = o * step + a * inner
                row[o * inner:(o + 1) * inner] = vals[lo:lo + inner]
        rows.append(row)
    return rows


def _spread(rows: list[list[int]]) -> int:
    """max over the other coordinates of max_a f(..a..) - min_b f(..b..):
    the largest |f(..a..) - f(..b..)|, without building the differences."""
    if len(rows) < 2:
        return 0
    return max(map(sub, map(max, *rows), map(min, *rows)))


def _pair_slices(rows: list[list[int]]):
    """One difference step: for each pair of values a < b, the table
    f(..a..) - f(..b..) with the axis removed.  Swapping a and b only flips
    the sign and a = b gives 0, so these pairs carry every |difference|.
    The slices come one at a time, so a walk holds one per level, none
    larger than the table."""
    for a, b in combinations(range(len(rows)), 2):
        yield list(map(sub, rows[a], rows[b]))


def _drop(items: tuple, i: int) -> tuple:
    return items[:i] + items[i + 1:]


def _narrow_first(space: DiscreteProductSpace, coords) -> list[int]:
    """Coordinates by increasing alphabet size.  Differences over V may be
    taken in any order; the last one is a spread, so leaving the widest
    coordinate for it keeps the pair slices few."""
    return sorted(coords, key=lambda i: (space.sizes[i], i))


def alpha_reads(sizes, m: int) -> int:
    """Table entries that the depth-first walk ``_deltas`` reads at order m,
    from the alphabet sizes k_i alone: N points times the sum, over subsets W
    with |W| <= m, of the product of (k_i - 1)/2 over W without its widest
    coordinate.  A step along a k-value coordinate turns a table of T entries
    into C(k, 2) pair slices of T/k entries, T (k - 1)/2 in all, and the walk
    reads each slice once per coordinate that may extend it."""
    # e[v]: the sum over v-subsets of the narrower coordinates of their product
    e = [Fraction(1)]
    total = Fraction(0)
    for k in sorted(sizes):
        total += sum(e[:m])
        g = Fraction(k - 1, 2)
        if g:
            e = [a + g * b for a, b in zip(e + [0], [0] + e)][:m]
    return int(prod(sizes) * total)


def _require_alpha_work(space: DiscreteProductSpace, m: int) -> None:
    if m < 1:
        raise DomainError("m must be >= 1")
    if m > TAIL_MAX_M:
        raise SizeLimitError(f"m is capped at {TAIL_MAX_M}, got {m}")
    if alpha_reads(space.sizes, m) > ALPHA_MAX_READS:
        raise SizeLimitError(f"alpha at m={m} would read more than "
                             f"{ALPHA_MAX_READS:.0e} table entries")


def _deltas(space: DiscreteProductSpace, vals: list[int], coords,
            depth: int) -> dict[tuple[int, ...], int]:
    """den * Delta_W for every nonempty subset W of ``coords`` with at most
    ``depth`` coordinates, keyed by W narrowest coordinate first.

    The subsets are visited depth-first: a subset's Delta is the spread along
    its last coordinate, taken over every pair slice of the subset it
    extends, so each slice serves all the subsets that extend it.  The walk
    reads ``alpha_reads`` of the sizes of ``coords`` and ``depth`` times the
    points of the other coordinates.
    """
    best: dict[tuple[int, ...], int] = {}

    def visit(vals, axes, shape, rest, V):
        # axes: the coordinates left in vals; rest: those that may extend V
        for i, j in enumerate(rest):
            pos = axes.index(j)
            rows = _rows(vals, shape, pos)
            W = V + (j,)
            best[W] = max(best.get(W, 0), _spread(rows))
            if len(W) < depth:
                for s in _pair_slices(rows):
                    visit(s, _drop(axes, pos), _drop(shape, pos), rest[i + 1:], W)

    visit(vals, tuple(range(space.n)), space.sizes, _narrow_first(space, coords), ())
    return best


def delta_V(space: DiscreteProductSpace, table, V) -> Fraction:
    """sup over x, y of |iterated difference of f over the coordinates in V|,
    exact (integer arithmetic over a common denominator), by the walk of
    ``alpha`` over V alone.  Refused before any work when that walk would
    read more than ALPHA_MAX_READS table entries."""
    V = set(V)
    for j in V:
        if not 0 <= j < space.n:
            raise DomainError(f"coordinate {j} out of range")
    sizes = space.sizes
    reads = alpha_reads([sizes[j] for j in V], len(V)) * prod(
        k for j, k in enumerate(sizes) if j not in V)
    if reads > ALPHA_MAX_READS:
        raise SizeLimitError(f"Delta_V would read more than "
                             f"{ALPHA_MAX_READS:.0e} table entries")
    vals, den = _scaled_int_table(space, table)
    if not V:
        return Fraction(max(map(abs, vals)), den)
    key = tuple(_narrow_first(space, V))
    return Fraction(_deltas(space, vals, V, len(V)).get(key, 0), den)


def alpha(space: DiscreteProductSpace, table, m: int) -> Fraction:
    """max over v <= m and coordinates j of sum_{|V| = v, j in V} Delta_V,
    from one walk over the subsets with at most m coordinates."""
    _require_alpha_work(space, m)
    n = space.n
    depth = min(m, n)
    vals, den = _scaled_int_table(space, table)
    # sums[v - 1][j]: den times the sum of Delta_V over |V| = v with j in V
    sums = [[0] * n for _ in range(depth)]
    for V, d in _deltas(space, vals, range(n), depth).items():
        for j in V:
            sums[len(V) - 1][j] += d
    return Fraction(max((s for row in sums for s in row), default=0), den)


# ---------------------------------------------------------------------------
# exact cumulants and the tail report

def _distribution(space: DiscreteProductSpace, table):
    """(dist, s, den, wden): f(X) = s + v/den with probability dist[v]/wden,
    where s = min f, and the values v >= 0 and weights dist[v] are ints."""
    vals, den = _scaled_int_table(space, table)
    c = min(vals)
    weights = [1]
    wden = 1
    for ws in space.weights:
        d = lcm(*(w.denominator for w in ws))
        nums = [w.numerator * (d // w.denominator) for w in ws]
        weights = [x * y for x in weights for y in nums]
        wden *= d
    dist: dict[int, int] = {}
    for v, w in zip(vals, weights):
        dist[v - c] = dist.get(v - c, 0) + w
    return dist, Fraction(c, den), den, wden


def exact_cumulants_discrete(space: DiscreteProductSpace, table, r_max: int) -> list[Fraction]:
    """kappa_1..kappa_{r_max} of f(X), exact rationals."""
    return _cumulants(r_max, *_distribution(space, table))


def _cumulants(r_max: int, dist, s, den, wden) -> list[Fraction]:
    """kappa_1..kappa_{r_max} of a ``_distribution``, from the moments of
    f - s (s = min f, added back to kappa_1, the only cumulant a shift
    moves), which stay as small as the spread of f."""
    kappas = moments_to_cumulants([
        Fraction(sum(w * v**r for v, w in dist.items()), wden * den**r)
        for r in range(1, r_max + 1)])
    return [kappas[0] + s] + kappas[1:] if kappas else kappas


class TailReport(NamedTuple):
    n: int
    m: int
    alpha: Fraction
    kappas: list[Fraction]
    log_mgf: tuple[Decimal, Decimal]   # (lo, hi) enclosure of log E e^f
    delta: tuple[Decimal, Decimal]     # (lo, hi) enclosure
    delta_bound: tuple[Decimal, Decimal]  # (lo, hi) of e^((100 alpha)^(m+1)) - 1
    delta_holds: bool                  # rigorous: sup|delta| <= inf bound
    kappa_bounds: list[Fraction]       # 0.014 n ((r-1)!/r) (80 alpha)^r
    kappa_holds: list[bool]            # exact comparisons
    holds: bool

    def to_json(self) -> dict:
        # each enclosure prints its midpoint, rounded to 53 bits, to 15 digits
        def mid(bounds):
            ctx = context(DEFAULT_BITS)
            return to_text(nearest_binary(ctx.divide(ctx.add(*bounds), 2), 53), 15)

        return {
            "n": self.n,
            "m": self.m,
            "alpha": to_text(self.alpha),
            "kappas": [to_text(k) for k in self.kappas],
            "log_mgf": mid(self.log_mgf),
            "delta": mid(self.delta),
            "delta_bound": mid(self.delta_bound),
            "delta_holds": self.delta_holds,
            "kappa_bounds": [to_text(b) for b in self.kappa_bounds],
            "kappa_holds": self.kappa_holds,
            "holds": self.holds,
        }


def check_tail_bound(space: DiscreteProductSpace, table, m: int) -> TailReport:
    """Exact verification of the tail bound at order m.

    delta is extracted as exp((log E e^f - sum kappa_r/r!)/n) - 1 from the
    exps of f - s, s = min f, so large values never cancel; its inequality is
    checked on two-sided enclosures at DEFAULT_BITS, the cumulant inequalities
    exactly.  No coordinates (n = 0, no n-th root) is a DomainError before
    any work.
    """
    n = space.n
    if not n:
        raise DomainError("the tail bound needs at least one coordinate")
    a = alpha(space, table, m)
    # the printer's digit rule on alpha and on the exact kappa bounds
    # (0.014 = 7/500), checked as each is built: they grow with r, so an
    # oversized report is refused before the cumulants and the exps
    require_digits("the tail report", *a.as_integer_ratio())
    kappa_bounds = []
    for r in range(1, m + 1):
        bound = Fraction(7, 500) * n * Fraction(factorial(r - 1), r) * (80 * a) ** r
        require_digits("the tail report", *bound.as_integer_ratio())
        kappa_bounds.append(bound)

    # lower ends round toward -inf, upper ends toward +inf
    down, up = context(DEFAULT_BITS, ROUND_FLOOR), context(DEFAULT_BITS, ROUND_CEILING)

    def enclose(q: Fraction):
        return down.divide(q.numerator, q.denominator), up.divide(q.numerator, q.denominator)

    def minus_one(bounds):
        return down.subtract(bounds[0], 1), up.subtract(bounds[1], 1)

    # the bound's exp refuses a decimal exponent past its cap before the cumulants
    delta_bound = minus_one(exp_enclosure(*enclose((100 * a) ** (m + 1)), down, up))
    dist, s, den, wden = _distribution(space, table)
    kappas = _cumulants(m, dist, s, den, wden)
    kappa_holds = [abs(k) <= b for k, b in zip(kappas, kappa_bounds)]

    # E e^(f-s): one exp per distinct value of f
    lo = hi = Decimal(0)
    for fv, w in sorted(dist.items()):
        e_lo, e_hi = exp_enclosure(down.divide(fv, den), up.divide(fv, den), down, up)
        lo, hi = down.fma(w, e_lo, lo), up.fma(w, e_hi, hi)
    shifted = ln_enclosure(down.divide(lo, wden), up.divide(hi, wden), down, up)
    s_lo, s_hi = enclose(s)
    log_mgf = down.add(s_lo, shifted[0]), up.add(s_hi, shifted[1])

    ksum = sum((k / factorial(r) for r, k in enumerate(kappas, 1)), Fraction(0))
    t_lo, t_hi = enclose(ksum - s)
    delta = minus_one(exp_enclosure(down.divide(down.subtract(shifted[0], t_hi), n),
                                    up.divide(up.subtract(shifted[1], t_lo), n),
                                    down, up))
    delta_holds = max(delta[0].copy_negate(), delta[1]) <= delta_bound[0]

    return TailReport(
        n=n, m=m, alpha=a, kappas=kappas, log_mgf=log_mgf,
        delta=delta, delta_bound=delta_bound, delta_holds=delta_holds,
        kappa_bounds=kappa_bounds, kappa_holds=kappa_holds,
        holds=delta_holds and all(kappa_holds),
    )
