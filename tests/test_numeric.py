"""The package's floats against mpmath and libmpdec, the independent routes.

The printer must print what mpmath.nstr prints for the same binary float:
exact rationals rounded to 256 bits (exact decimal ties included, where a
printer that skipped the binary rounding would round the other way), logs
and exps of rationals, and 53-bit midpoints at 15 digits.  The tail lab's
one-ulp-widened enclosures must hold the midpoints of mpmath's interval
enclosures at a higher precision, and its verdict must agree.  exp, ln and
pi, on ints, must be libmpdec's exp and ln and a Decimal pi bit for bit, in
any rounding mode, and ``nearest_binary`` must find the binary exponent
that two libmpdec logs find, past exponents of 10^15 too.
"""

import time
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN,
                     Context, Decimal, Overflow, Underflow)
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_rational, round_nearest, to_rational
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eocount.errors import SizeLimitError
from eocount.numeric import (MAX_BITS, MAX_EXPONENT_DIGITS, Real, as_decimal,
                             context, exp, ln, nearest_binary, pi,
                             require_precision, to_text, working)
from eocount.taillab import DiscreteProductSpace, check_tail_bound

from oracles import nearest_binary_by_ln, pi_decimal, tail_enclosures_iv

nonzero = st.fractions().filter(bool)


@st.composite
def decimal_ties(draw):
    """A rational whose decimal digits end in a 5 just past 30 or 40
    significant digits, such as ...925.85 at 6 digits."""
    digits = draw(st.sampled_from((30, 40)))
    head = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    sign = draw(st.sampled_from((1, -1)))
    return sign * Fraction(10 * head + 5, 10 ** draw(st.integers(0, 80)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(nonzero, decimal_ties(),
                 st.builds(Fraction, st.integers(1, 10**200), st.integers(1, 10**200))))
def test_exact_values_print_as_mpmath_prints_their_256_bit_float(x):
    # x rounded once: mpf(numerator) / denominator rounds a numerator past
    # 256 bits first, and the quotient of that can miss x's nearest float
    with mpmath.workprec(256):
        binary = mpmath.mpf(from_rational(x.numerator, x.denominator, 256, round_nearest))
    m, s = nearest_binary(x, 256)
    assert m * Fraction(2) ** s == Fraction(*to_rational(binary._mpf_))
    for digits in (30, 40):
        assert to_text(x, digits) == mpmath.nstr(binary, digits)


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**6), max_value=10**6))
def test_logs_and_exps_print_as_mpmath_prints_them(x):
    with working(256):
        ln_x, e = Real(ln(as_decimal(x))), Real(exp(as_decimal(x)))
    with mpmath.workprec(256):
        xf = mpmath.mpf(x.numerator) / x.denominator
        want_ln, want_e = mpmath.log(xf), mpmath.exp(xf)
    for digits in (30, 40):
        assert to_text(ln_x, digits) == mpmath.nstr(want_ln, digits)
        assert to_text(e, digits) == mpmath.nstr(want_e, digits)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**88, 10**88).filter(bool), st.integers(-400, 400),
       st.integers(0, 6))
def test_53_bit_midpoints_print_as_mpmath_prints_them(coefficient, exponent, ulps):
    # an enclosure [lo, hi] a few ulps wide at 256 bits, as the tail lab's
    ctx = context(256)
    lo = hi = Decimal(coefficient).scaleb(exponent, ctx)
    for _ in range(ulps):
        hi = ctx.next_plus(hi)
    mid = ctx.divide(ctx.add(lo, hi), 2)
    with mpmath.workprec(53):
        want = mpmath.mpf(str(mid))
    got = nearest_binary(mid, 53)
    assert got[0] * Fraction(2) ** got[1] == Fraction(*to_rational(want._mpf_))
    assert to_text(got, 15) == mpmath.nstr(want, 15)


EXACT = Context(prec=200, Emin=MIN_EMIN, Emax=MAX_EMAX)
PRECISIONS = (128, 256, 1024, 4096)


@st.composite
def ln_arguments(draw):
    """(x, x as an exact Decimal): an int up to 2,000 digits (tau's size), a
    Fraction with a terminating decimal expansion, a Decimal 1 + j 10^-d near
    1 (|j| <= 10^6, d = 7..90), 1 +- 10^-k as a Fraction or a Decimal (k =
    1..2000), or a Decimal with an exponent past 10^15."""
    kind = draw(st.sampled_from(("int", "fraction", "near 1", "one plus", "far")))
    if kind == "int":
        x = draw(st.one_of(st.integers(2, 10**40), st.integers(10**1999, 10**2000)))
        return x, Decimal(x)
    if kind == "fraction":
        x = Fraction(draw(st.integers(1, 10**60)),
                     2 ** draw(st.integers(0, 80)) * 5 ** draw(st.integers(0, 80)))
        return x, EXACT.divide(x.numerator, x.denominator)
    if kind == "near 1":
        digits = draw(st.integers(7, 90))
        x = EXACT.scaleb(10**digits + draw(st.integers(-10**6, 10**6)), -digits)
        return x, x
    if kind == "one plus":
        k, sign = draw(st.integers(1, 2000)), draw(st.sampled_from((1, -1)))
        exact = Decimal((0, tuple(map(int, str(10**k + sign))), -k))
        return draw(st.sampled_from((Fraction(10**k + sign, 10**k), exact))), exact
    exponent = draw(st.integers(10**15, 10**18 - 100)) * draw(st.sampled_from((1, -1)))
    x = EXACT.scaleb(draw(st.integers(1, 10**60)), exponent)
    return x, x


@settings(max_examples=200, deadline=None)
@given(ln_arguments(), st.sampled_from(PRECISIONS),
       st.sampled_from((ROUND_HALF_EVEN, ROUND_FLOOR, ROUND_CEILING)))
@example((Decimal("1.000"), Decimal("1.000")), 256, ROUND_FLOOR)
@example((10**1999 + 12345, Decimal(10**1999 + 12345)), 1024, ROUND_HALF_EVEN)
@example((Fraction(10**1000 + 1, 10**1000), Decimal("1." + "0" * 999 + "1")), 256, ROUND_CEILING)
@example((Decimal("0.999"), Decimal("0.999")), 128, ROUND_FLOOR)
@example((Fraction(1, 2**70), EXACT.divide(1, 2**70)), 4096, ROUND_HALF_EVEN)
def test_ln_is_libmpdecs_ln_bit_for_bit(arg, bits, rounding):
    # libmpdec rounds its ln half-even in any context, and so does ln
    x, exact = arg
    ctx = context(bits, rounding)
    assert str(ln(x, ctx)) == str(ctx.ln(exact))


CAP = 10**MAX_EXPONENT_DIGITS


@st.composite
def exp_arguments(draw):
    """x for e^x: |x| from 10^-300 to 10^-3, a rational of size up to 10^3,
    an int +-1..+-400, or +-ln 10 (cap + d/10), d = -30..30, on both sides
    of the exponent cap, where e^x passes 10^(10^18) or 10^-(10^18)."""
    kind = draw(st.sampled_from(("small", "moderate", "int", "cap")))
    sign = draw(st.sampled_from((1, -1)))
    if kind == "small":
        return EXACT.scaleb(sign * draw(st.integers(10**39, 10**40 - 1)),
                            draw(st.integers(-339, -43)))
    if kind == "moderate":
        return EXACT.divide(draw(st.integers(-10**30, 10**30)),
                            draw(st.integers(10**27, 10**28)))
    if kind == "int":
        return Decimal(sign * draw(st.integers(1, 400)))
    return EXACT.multiply(sign * EXACT.ln(10), CAP + Decimal(draw(st.integers(-30, 30))) / 10)


@settings(max_examples=200, deadline=None)
@given(exp_arguments(), st.sampled_from(PRECISIONS),
       st.sampled_from((ROUND_HALF_EVEN, ROUND_FLOOR, ROUND_CEILING)))
@example(Decimal(0), 256, ROUND_FLOOR)
@example(Decimal("-0E-7"), 128, ROUND_CEILING)
@example(Decimal("1e-95"), 256, ROUND_HALF_EVEN)
@example(Decimal("-1e-95"), 256, ROUND_HALF_EVEN)
@example(context(256).divide(12345, 700 * 2**16), 256, ROUND_FLOOR)
@example(Decimal(400), 4096, ROUND_CEILING)
@example(Decimal(-400), 1024, ROUND_HALF_EVEN)
# -ln 10 (10^18 - 1/10): E = Emin - 1 with no carry, a subnormal whose last
# digit rounds away exactly, which scaleb lets pass without Underflow
@example(Decimal("-2302585092994045683.7877329457005954315982008545"), 1024, ROUND_HALF_EVEN)
@example(Decimal("-2302585092994045683.7877329457005954315982008545"), 1024, ROUND_FLOOR)
@example(Decimal("-2302585092994045683.7877329457005954315982008545"), 1024, ROUND_CEILING)
def test_exp_is_libmpdecs_exp_bit_for_bit(x, bits, rounding):
    # libmpdec rounds its exp half-even in any context, and so does exp,
    # digit for digit and exponent for exponent (e^0 is Decimal('1')); both
    # refuse a result past the exponent range
    ctx = context(bits, rounding)
    try:
        want = ctx.exp(x).as_tuple()
    except (Overflow, Underflow):
        with pytest.raises(SizeLimitError, match="18 digits"):
            exp(x, ctx)
    else:
        assert exp(x, ctx).as_tuple() == want


def test_ln_refuses_what_has_no_real_log():
    for x in (0, -3, Fraction(-1, 2), Decimal(0), Decimal("-1e-5")):
        with pytest.raises(ValueError):
            ln(x, context(256))


# 2^14 bits: the cap until exp ran on ints
@pytest.mark.parametrize("bits", (*PRECISIONS, 2**14, MAX_BITS))
def test_pi_is_a_decimal_pi_bit_for_bit(bits):
    with working(bits):
        assert str(pi()) == str(pi_decimal(context(bits).prec))


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**88, 10**88).filter(bool),
       st.one_of(st.integers(-400, 400), st.integers(10**15, 10**17),
                 st.integers(-10**17, -10**15)),
       st.sampled_from((53, 256)))
@example(1, 10**17, 53)
@example(-(10**88 - 1), -10**17, 53)
def test_nearest_binary_finds_the_exponent_of_two_logs(coefficient, exponent, bits):
    x = EXACT.scaleb(coefficient, exponent)
    assert nearest_binary(x, bits) == nearest_binary_by_ln(x, bits)


def test_pi_matches_mpmath_to_6000_digits():
    with working(20000):
        digits = str(pi())
    with mpmath.workdps(6010):
        assert digits[:6000] == str(+mpmath.pi)[:6000]


def test_exp_refuses_an_exponent_past_eighteen_digits_before_computing():
    # a Decimal exponent stops at 10^18 - 1: e^x is refused past it, either
    # way, and accepted just inside
    ln10, cap = context(256).ln(10), 10**MAX_EXPONENT_DIGITS
    with working(256):
        assert exp(ln10 * (cap - Decimal("1.5"))).adjusted() == cap - 2
        assert exp(-ln10 * (cap - Decimal("1.5"))).adjusted() == -(cap - 1)
        for x in (ln10 * (cap + 1), -ln10 * (cap + 1), Decimal("1e519")):
            t0 = time.perf_counter()
            with pytest.raises(SizeLimitError, match="18 digits"):
                exp(x)
            assert time.perf_counter() - t0 < 0.5


def test_max_bits_is_where_one_ln_stays_cheap():
    # the cap, 2^16 bits, is where one exp, the costliest step, takes 0.8 s
    # warm and 1.2 s cold, and one ln 0.5 and 0.9 s (both 1.7-3.5 s at 2^17
    # bits); the cap itself is accepted
    require_precision(MAX_BITS)
    with pytest.raises(SizeLimitError):
        require_precision(MAX_BITS + 1)
    ctx = context(MAX_BITS)
    t0 = time.perf_counter()
    exp(ctx.multiply(ln(3, ctx), 100), ctx)
    assert time.perf_counter() - t0 < 8


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tail_enclosures_hold_the_interval_midpoints(data):
    sizes = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    weights = []
    for s in sizes:
        raw = data.draw(st.lists(st.integers(1, 9), min_size=s, max_size=s))
        weights.append([Fraction(r, sum(raw)) for r in raw])
    space = DiscreteProductSpace([list(range(s)) for s in sizes], weights)
    points = 1
    for s in sizes:
        points *= s
    # alpha stays below about 1/12, so the bound stays below e^(8^4)
    scale = data.draw(st.sampled_from((Fraction(1, 1000), Fraction(1, 500))))
    table = tuple(scale * data.draw(st.fractions(-20, 20, max_denominator=9))
                  for _ in range(points))
    m = data.draw(st.integers(1, 3))
    try:
        rep = check_tail_bound(space, table, m)
    except SizeLimitError:  # a delta_bound past the exponent cap
        return
    log_mgf, delta, bound, holds = tail_enclosures_iv(space, table, m)
    for (lo, hi), mid in ((rep.log_mgf, log_mgf), (rep.delta, delta),
                          (rep.delta_bound, bound)):
        # the 400-bit midpoint is within a few of its ulps of the true value,
        # 10^-114 relative, where the Decimal ends are 10^-88 apart
        slack = Fraction(max(abs(mid), 1)) / 2**380
        assert Fraction(lo) - slack <= mid <= Fraction(hi) + slack
    assert rep.delta_holds == holds
