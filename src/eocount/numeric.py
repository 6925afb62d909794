"""The package's number layer: floats on ints and ``decimal``, the precision and digit
caps, and ``to_text``, the one printer.  The last log, exp or pi of an exact value is
correctly rounded to a ``context`` of ceil(bits log10 2) + GUARD_DIGITS digits.  exp (x
= E ln 10 + r, Taylor's series, squarings), ln (the AGM) and pi (Chudnovsky) run on ints,
rounded by Ziv's rule half-even as libmpdec rounds: 9-16, 35-45 and 6 us warm at 256
bits, exp and ln 0.8 and 0.5 s at 2^16; a square root is an isqrt.  ``to_text`` prints by
mpmath.nstr's rules, an exact value after one rounding to a binary float.  Rigorous
bounds widen each exp or ln by one ulp, in ROUND_FLOOR and ROUND_CEILING contexts."""

from __future__ import annotations

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_DOWN, ROUND_HALF_EVEN,
                     Context, Decimal, DivisionByZero, InvalidOperation,
                     Overflow, Underflow, getcontext, localcontext)
from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt, log

from .errors import DomainError, SizeLimitError

MIN_BITS = 128
DEFAULT_BITS = 256
# Highest working precision, checked before any work: one exp, the costliest step,
# takes 0.8 s warm and 1.2 s cold at 2^16 bits, and 1.7-3.5 s at 2^17 (CPython 3.11).
MAX_BITS = 2**16
# Longest decimal integer a result may print, under CPython's 4300-digit limit
# on int -> str (which is quadratic in the length).
MAX_DIGITS = 4000
# Digits past ceil(bits log10 2), so that a closed form's few roundings stay
# below the last printed digit.
GUARD_DIGITS = 10
# Most digits in a float's decimal exponent: a Decimal exponent stops at
# decimal.MAX_EMAX = 10^18 - 1 (64-bit builds).
MAX_EXPONENT_DIGITS = 18
_LOG2_10 = log(10, 2)  # the float mpmath's printer computes with
_EXACT = Context(prec=MAX_PREC, Emin=MIN_EMIN, Emax=MAX_EMAX)
_ten = lru_cache(maxsize=64)(lambda k: 10**k)  # the powers Ziv's rule scales by


class Real(Decimal):
    """A Decimal result that mpmath reads, through its conversion hook."""

    __slots__ = ()

    def _mpmath_(self, prec, rounding):
        return str(self)


def context(bits: int, rounding: str = ROUND_HALF_EVEN) -> Context:
    """The decimal context of a working precision of ``bits``, trapping
    every signal past MAX_EXPONENT_DIGITS exponent digits."""
    return Context(prec=-(-bits * 30103 // 100000) + GUARD_DIGITS,
                   rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX,
                   traps=[InvalidOperation, DivisionByZero, Overflow, Underflow])


def require_precision(bits: int) -> None:
    """Reject a working precision below the 128-bit floor or above the
    ``MAX_BITS`` ceiling."""
    if bits < MIN_BITS:
        raise DomainError(f"precision must be at least {MIN_BITS} bits, got {bits}")
    if bits > MAX_BITS:
        raise SizeLimitError(f"precision is capped at {MAX_BITS} bits, got {bits}")


def require_digits(what: str, *values: int) -> None:
    """SizeLimitError if an integer has more than MAX_DIGITS decimal digits,
    counted from its bit length (possibly one too many)."""
    if any(abs(x).bit_length() * 30103 // 100000 >= MAX_DIGITS for x in values):
        raise SizeLimitError(f"{what} would print more than {MAX_DIGITS} "
                             "decimal digits")


def require_exponent(text: str) -> None:
    """SizeLimitError for a decimal exponent past MAX_DIGITS, before
    Fraction(text) builds 10^exponent."""
    power = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    if power.isdecimal() and (len(power) > len(str(MAX_DIGITS)) or int(power) > MAX_DIGITS):
        raise SizeLimitError(f"an exponent past {MAX_DIGITS} in {text[:40]!r}")


def working(bits: int):
    """``context(bits)`` as the current context of a with block."""
    return localcontext(context(bits))


def as_decimal(x: Fraction) -> Decimal:
    """An exact rational rounded once in the current context."""
    return Decimal(x.numerator) / x.denominator


@lru_cache(maxsize=16)
def ln_constant(x: int | Decimal, bits: int) -> Decimal:
    """ln x at ``bits``, kept like mpmath's constants for the closed forms."""
    return ln(x, context(bits))


def exp(x: Decimal, ctx: Context | None = None) -> Decimal:
    """e^x in ``ctx`` (by default the current context), rounded half-even in
    any rounding mode, as libmpdec rounds its exp; SizeLimitError for a
    subnormal result, and before any work for a decimal exponent past
    MAX_EXPONENT_DIGITS.  x = E ln 10 + r, 0 <= r < ln 10: the exponent is E."""
    ctx = ctx or getcontext()
    if not x:  # e^0, exact: Ziv's rule never ends on a rounding boundary
        return Decimal(1)
    if x.adjusted() < -ctx.prec - 1:  # e^x rounds to 1, at full precision
        return ctx.scaleb(10 ** (ctx.prec - 1), 1 - ctx.prec)
    def approx(g: int) -> tuple[int, int, int]:
        # x 2^g truncated, r within 2|E| + 1 units (ln 10 within 2); e^r = (e^(r/2^s))^(2^s),
        # r/2^s < 2^-sqrt(g): Taylor's terms at 2^(g+s+8) within 2 units each, the tail
        # within 4, then s squarings, each doubling the relative error and adding a unit
        if x.adjusted() > MAX_EXPONENT_DIGITS:  # |E| > 10^18
            raise Overflow
        E, r = divmod(int(_EXACT.multiply(x, 1 << g)), _constants(g)[2])
        if not ctx.Emin - 1 <= E <= ctx.Emax + 1:
            raise Overflow
        s = max(r.bit_length() - g + isqrt(g), 0)
        v, j = g + s, 1
        y = term = 1 << v + 8
        while term:  # r 2^-v = r/2^s
            term, j = (term * r >> v) // j, j + 1
            y += term
        for _ in range(s):
            y = y * y >> v + 8
        y >>= s + 8  # within (3|E| + 2 + j/64) e^r + 1 units, e^r < 2^(len y - g + 1)
        return y, (8 * abs(E) + j + 4 << y.bit_length() - g) + 1, E
    try:
        if (y := _correctly_rounded(approx, ctx)).adjusted() < ctx.Emin:
            raise Underflow  # subnormal: scaleb signals Underflow only if inexact
        return y
    except (Overflow, Underflow):
        raise SizeLimitError("a result's decimal exponent would pass "
                             f"{MAX_EXPONENT_DIGITS} digits") from None


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, R) of Chudnovsky's terms a..b-1, by binary splitting."""
    if b - a == 1:
        p = -(6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        return p, 10939058860032000 * a**3, p * (545140134 * a + 13591409)
    p1, q1, r1 = _chudnovsky(a, (a + b) // 2)
    p2, q2, r2 = _chudnovsky((a + b) // 2, b)
    return p1 * p2, q1 * q2, q2 * r1 + p1 * r2


def _atanh(p: int, q: int, h: int) -> tuple[int, int]:
    """(atanh(p/q) 2^h, j), 0 <= p/q <= 1/31, floored term by term, j the odd index
    past the last term: within j + 1 units (within (j + 1)/2, exact floors, for p = 1)."""
    total, term, j, pp, qq = 0, (p << h) // q, 1, p * p, q * q
    while term:
        total, term, j = total + term // j, term * pp // qq, j + 2
    return total, j


@lru_cache(maxsize=8)
def _constants(g: int) -> tuple[int, int, int]:
    """(pi, ln 2, ln 10) 2^g within 2 units each, at g + 32 bits: Chudnovsky's series,
    and ln 2 = 14A + 10B + 6C, ln 10 = 46A + 34B + 20C for A, B, C = atanh(1/31),
    atanh(1/49), atanh(1/161), each within its term count of units (weights <= 100)."""
    h = g + 32
    a, b, c = (_atanh(1, d, h)[0] for d in (31, 49, 161))
    _, q, r = _chudnovsky(1, h // 47 + 2)
    return (426880 * isqrt(10005 << 2 * h) * q // (13591409 * q + r) >> 32,
            14 * a + 10 * b + 6 * c >> 32, 46 * a + 34 * b + 20 * c >> 32)


def _correctly_rounded(approx, ctx: Context, extra: int = 0) -> Decimal:
    """Ziv's rule: the Decimal of ctx.prec digits nearest a value, never a tie,
    within err 2^-g 10^e of y 2^-g 10^e for (y, err, e) = approx(g), g doubling from
    ctx.prec digits, 32 bits and ``extra`` until |y| +- err round alike (half up)."""
    g, top = ctx.prec * 10 // 3 + 32 + extra, _ten(ctx.prec)
    while True:
        y, err, e = approx(g)
        a = abs(y)
        t = ctx.prec - floor(((a + err).bit_length() - g) / _LOG2_10)  # or one less
        while (lo := (a - err) * (p := _ten(t)) if t >= 0 else (a - err) // (p := _ten(-t)),
               hi := (a + err) * p if t >= 0 else (a + err) // p)[1] >> g >= top:
            t -= 1
        n = lo + (1 << g - 1) >> g
        if lo > 0 and lo >> g >= _ten(ctx.prec - 1) and n == hi + (1 << g - 1) >> g:
            return ctx.scaleb(Decimal(-n if y < 0 else n), e - t)  # rounds n = top
        g *= 2


def ln(x: int | Fraction | Decimal, ctx: Context | None = None) -> Decimal:
    """ln x > 0 in ``ctx`` (by default the current context), rounded
    half-even in any rounding mode, as libmpdec rounds its ln; a Decimal
    is read as c 10^e (e reaches 10^18), or in [0.1, 10) as c / 10^-e."""
    if x <= 0:
        raise ValueError("ln needs x > 0")
    if x == 1:  # ln's one rational value
        return Decimal(0)
    ctx = ctx or getcontext()
    _, digits, e = x.as_tuple() if isinstance(x, Decimal) else (0, None, 0)
    a, b = x.as_integer_ratio() if digits is None else (int(Decimal((0, digits, 0))), 1)
    if e < 0 and x.adjusted() >= -1:  # a/b near 1, b = 10^-e as big as c
        b, e = 10**-e, 0
    if a & a - 1 == 0 == b & b - 1 and not e:  # x = 2^t: t ln 2
        t = a.bit_length() - b.bit_length()
        return _correctly_rounded(lambda g: (t * _constants(g)[1], 2 * abs(t), 0), ctx)
    if (k := b.bit_length() - abs(a - b).bit_length()) > 8 and not e:
        # ln x = 2 atanh((x - 1)/(x + 1)), no cancellation: k more bits for |x - 1| < 2^(1-k)
        def approx(g: int) -> tuple[int, int, int]:
            y, j = _atanh(abs(a - b), a + b, g)
            return (2 * y if a > b else -2 * y), 2 * j + 2, 0
        return _correctly_rounded(approx, ctx, k)

    def approx(g: int) -> tuple[int, int, int]:
        # ln x = ln s - k ln 2 + e ln 10, s = 2^k a / b: for s >= 2^(g/2 + len g),
        # ln s = pi s / (2 M(s, 4)) within 2^-g (Borwein and Borwein, Pi and the
        # AGM, Thm 7.2); M runs on ints at scale 2^g, a step within 2^-(g+2) relative
        pi_, ln2, ln10 = _constants(g)
        k = (g + 1) // 2 + g.bit_length() + 1 - a.bit_length() + b.bit_length()
        s = (a << k + g) // b if k + g >= 0 else a // (b << -k - g)
        u, v, steps = s, 4 << g, 0
        while u - v > 1:
            u, v, steps = (u + v) >> 1, isqrt(u * v), steps + 1
        err = (s.bit_length() - g) * (steps + 4) // 4 + 2 * (abs(k) + abs(e)) + 8
        return pi_ * s // (2 * v) - k * ln2 + e * ln10, err, 0
    return _correctly_rounded(approx, ctx)


def pi() -> Decimal:
    """pi in the current context, rounded half-even from Chudnovsky's ints."""
    return _correctly_rounded(lambda g: (_constants(g)[0], 2, 0), getcontext())


def nearest_binary(x: Fraction | Decimal, bits: int) -> tuple[int, int]:
    """(m, s), m 2^s the float of ``bits`` bits nearest x, ties to even:
    from a Fraction on ints, from a Decimal in a context that holds
    |x| 2^-s exactly for x near 1 (10^-150..10^75 at 53 bits)."""
    if not x:
        return 0, 0
    if isinstance(x, Decimal):
        _, digits, e = x.as_tuple()
        ctx = Context(prec=len(digits) + 2 * bits + GUARD_DIGITS, Emin=MIN_EMIN, Emax=MAX_EMAX)
        # |x| 2^-s in [2^(bits-1), 2^bits): the coefficient's bits + e log2 10 give s or s - 1
        _, ln2, ln10 = _constants(128)
        s = int(Decimal((0, digits, 0))).bit_length() + e * ln10 // ln2 - bits
        while step := ((y := ctx.multiply(x.copy_abs(), ctx.power(2, -s))) >= 1 << bits) \
                - (y < 1 << bits - 1):
            s += step
        m = int(y.to_integral_value(ROUND_HALF_EVEN))
    else:
        a, q = abs(x.numerator), x.denominator
        # a 2^-s / q in [2^(bits-1), 2^(bits+1)): one bit less past 2^bits
        s = a.bit_length() - q.bit_length() - bits
        s += a << max(-s, 0) >= q << max(s, 0) + bits
        den = q << max(s, 0)
        m, rem = divmod(a << max(-s, 0), den)
        m += 2 * rem > den or (2 * rem == den and m & 1)
    return (m if x > 0 else -m), s


def _floored_digits(x: Decimal | tuple[int, int], dps: int) -> tuple[str, str, int]:
    """(sign, digits, position of the first) of x != 0 floored to about dps
    digits.  A float (m, s) within nstr's 3500 bits of 1 is floored as
    mpmath's to_digits_exp floors it, in fixed point, which can borrow from
    a value that ends in zeros; anything else through a Decimal."""
    if isinstance(x, tuple):
        m, s = x
        if abs(s + abs(m).bit_length()) <= 3500:
            fixprec = max(int(dps * _LOG2_10) + 10 - s - abs(m).bit_length(), 0)
            fixdps = int(fixprec / _LOG2_10 + 0.5)
            offset = s + fixprec
            fixed = abs(m) << offset if offset >= 0 else abs(m) >> -offset
            digits = str(fixed * 10**fixdps >> fixprec)
            return "-" * (m < 0), digits, len(digits) - fixdps - 1
        ctx = Context(prec=dps + 30, Emin=MIN_EMIN, Emax=MAX_EMAX)
        x = ctx.multiply(m, ctx.power(2, s))
    x = Context(prec=dps, rounding=ROUND_DOWN, Emin=MIN_EMIN, Emax=MAX_EMAX).plus(x)
    return "-" * x.is_signed(), "".join(map(str, x.as_tuple().digits)), x.adjusted()


def to_text(x, digits: int | None = None, bits: int = DEFAULT_BITS) -> str:
    """x as result text: an int or a Fraction exactly, SizeLimitError past MAX_DIGITS
    before any conversion; with ``digits``, to that many significant digits as
    mpmath.nstr prints (an exact value rounded first to the nearest ``bits``-bit
    binary float, a Decimal or a binary float (m, s) as it is): floored to ``digits``
    + 3 digits and rounded half up, fixed notation when the leading digit's position
    lies strictly between min(-(digits // 3), -5) and ``digits``, trailing zeros
    stripped to one after the point."""
    if digits is None:
        require_digits("a result", *x.as_integer_ratio())
        return str(x)
    if isinstance(x, (int, Fraction)):
        x = nearest_binary(Fraction(x), bits)
    if not (x[0] if isinstance(x, tuple) else x):
        return "0.0"
    sign, ds, point = _floored_digits(x, digits + 3)
    ds = ds.ljust(digits + 1, "0")
    if ds[digits] in "56789":  # half up, with the carry of 9...9
        ds = str(int(ds[:digits]) + 1)
        point += len(ds) > digits
    ds, split = ds[:digits], 1
    if min(-(digits // 3), -5) < point < digits:
        ds, split, point = "0" * -point + ds, max(point, 0) + 1, 0
    ds = (ds[:split] + "." + ds[split:]).rstrip("0")
    return sign + ds + "0" * ds.endswith(".") + (f"e{point:+d}" if point else "")


def sqrt_floor(x: int, bits: int) -> tuple[int, int]:
    """(m, s), m 2^s = sqrt(x) floored to ``bits`` + 8 bits, for an int x >= 0:
    the isqrt of x shifted by 2s, a binary float that ``to_text`` prints."""
    s = (x.bit_length() + 1) // 2 - bits - 8
    return isqrt(x >> 2 * s if s >= 0 else x << -2 * s), s


def exp_enclosure(lo: Decimal, hi: Decimal, down: Context,
                  up: Context) -> tuple[Decimal, Decimal]:
    """(a, b) with a <= e^x <= b on lo <= x <= hi, ``down`` rounding toward
    -inf and ``up`` toward +inf: e^lo, irrational but at lo = 0, lies within
    one ulp of its correct rounding, and e^(hi - lo) <= 1 + 2 (hi - lo) for
    hi - lo <= 1 saves a second exp."""
    r = exp(lo, down)
    a, b = (down.next_minus(r), up.next_plus(r)) if lo else (r, r)
    width = up.subtract(hi, lo)
    return a, (up.multiply(b, up.fma(2, width, 1)) if width <= 1
               else up.next_plus(exp(hi, up)))


def ln_enclosure(lo: Decimal, hi: Decimal, down: Context,
                 up: Context) -> tuple[Decimal, Decimal]:
    """(a, b) with a <= ln x <= b on 0 < lo <= x <= hi, as for exp: ln x is
    irrational but at x = 1."""
    a, b = ln(lo, down), ln(hi, up)
    return (a if lo == 1 else down.next_minus(a)), (b if hi == 1 else up.next_plus(b))
