"""The package's floats, on ints and ``decimal``: the last log, exp, sqrt or pi of an
exact value is correctly rounded to a ``context`` of ceil(bits log10 2) + GUARD_DIGITS
digits.  ln (the AGM) and pi (Chudnovsky) run on ints and round by Ziv's rule, half-even
as libmpdec rounds its ln: 35-45 us and 6 us at 256 bits, against 60-130 us for
libmpdec's ln; exp and sqrt are libmpdec's.  ``text`` prints by mpmath.nstr's rules, an
exact value after one rounding to a binary float.  Rigorous bounds widen each exp or ln
by one ulp, in ROUND_FLOOR and ROUND_CEILING contexts."""

from __future__ import annotations

from decimal import (MAX_EMAX, MIN_EMIN, ROUND_DOWN, ROUND_HALF_EVEN,
                     Context, Decimal, DivisionByZero, InvalidOperation,
                     Overflow, Underflow, getcontext, localcontext)
from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt, log

from .errors import SizeLimitError

# Digits past ceil(bits log10 2), so that a closed form's few roundings stay
# below the last printed digit.
GUARD_DIGITS = 10
# Most digits in a float's decimal exponent: a Decimal exponent stops at
# decimal.MAX_EMAX = 10^18 - 1 (64-bit builds).
MAX_EXPONENT_DIGITS = 18
_LOG2_10 = log(10, 2)  # the float mpmath's printer computes with


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
    """e^x in ``ctx`` (by default the current context); SizeLimitError,
    before any work, for a decimal exponent past MAX_EXPONENT_DIGITS."""
    try:
        return x.exp(ctx)
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


@lru_cache(maxsize=8)
def _constants(g: int) -> tuple[int, int, int]:
    """(pi, ln 2, ln 10) 2^g within 2 units each, at g + 32 bits: Chudnovsky's
    series, and 2 atanh(1/3) and 3 ln 2 + 2 atanh(1/9) floored term by term."""
    h, atanh = g + 32, []
    for d in (3, 9):
        total, term, j = 0, (1 << h) // d, 1
        while term:
            total, term, j = total + term // j, term // (d * d), j + 2
        atanh.append(2 * total)
    _, q, r = _chudnovsky(1, h // 47 + 2)
    return (426880 * isqrt(10005 << 2 * h) * q // (13591409 * q + r) >> 32,
            atanh[0] >> 32, 3 * atanh[0] + atanh[1] >> 32)


def _correctly_rounded(approx, ctx: Context) -> Decimal:
    """Ziv's rule: the Decimal of ctx.prec digits nearest a value, never a
    tie, within err of y 2^-g for (y, err) = approx(g), g doubling from
    ctx.prec digits and 32 bits until |y| +- err round alike (half up)."""
    g, top = ctx.prec * 10 // 3 + 32, 10**ctx.prec
    while True:
        y, err = approx(g)
        lo, hi = abs(y) - err, abs(y) + err
        t = ctx.prec - floor((hi.bit_length() - g) / _LOG2_10)  # or one less
        while (scaled := [v * 10**t if t >= 0 else v // 10**-t for v in (lo, hi)])[1] >> g >= top:
            t -= 1
        n, m = (w + (1 << g - 1) >> g for w in scaled)
        if lo > 0 and scaled[0] >> g >= top // 10 and n == m:  # scaleb rounds n = top
            return ctx.scaleb(Decimal(-n if y < 0 else n), -t)
        g *= 2


def ln(x: int | Fraction | Decimal, ctx: Context | None = None) -> Decimal:
    """ln x > 0 in ``ctx`` (by default the current context), rounded
    half-even in any rounding mode, as libmpdec rounds its ln; a Decimal
    is read as c 10^e, never as a ratio (e reaches 10^18)."""
    if x <= 0:
        raise ValueError("ln needs x > 0")
    if x == 1:  # ln's one rational value
        return Decimal(0)
    _, digits, e = x.as_tuple() if isinstance(x, Decimal) else (0, None, 0)
    a, b = x.as_integer_ratio() if digits is None else (int(Decimal((0, digits, 0))), 1)

    def approx(g: int) -> tuple[int, int]:
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
        return pi_ * s // (2 * v) - k * ln2 + e * ln10, err
    return _correctly_rounded(approx, ctx or getcontext())


def pi() -> Decimal:
    """pi in the current context, rounded half-even from Chudnovsky's ints."""
    return _correctly_rounded(lambda g: (_constants(g)[0], 2), getcontext())


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


def text(x: Decimal | tuple[int, int], digits: int) -> str:
    """A Decimal or a binary float (m, s) to ``digits`` significant digits
    as mpmath.nstr prints it: floored to ``digits`` + 3 digits and rounded
    half up, in fixed notation when the leading digit's position lies
    strictly between min(-(digits // 3), -5) and ``digits``, trailing zeros
    stripped to one after the point."""
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
