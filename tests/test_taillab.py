import itertools
import json
import random
from fractions import Fraction
from math import prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eocount.taillab as taillab
from eocount.errors import DomainError, SizeLimitError
from eocount.taillab import (ALPHA_MAX_READS, SPACE_MAX_POINTS,
                             DiscreteProductSpace, alpha, alpha_reads,
                             check_tail_bound, delta_V,
                             exact_cumulants_discrete, instance_from_json)

from helpers import instance_to_json, points, tabulate
from helpers import uniform_bits as bits
from oracles import conditional_expectation


def quadratic_table(space, eps, pairs):
    return tabulate(space, lambda *xs: eps * sum(xs[i] * xs[j] for i, j in pairs))


def random_space(rng, n):
    sizes = [rng.choice([2, 3]) for _ in range(n)]
    alphabets = [[Fraction(v) for v in range(s)] for s in sizes]
    weights = []
    for s in sizes:
        raw = [rng.randint(1, 9) for _ in range(s)]
        tot = sum(raw)
        weights.append([Fraction(r, tot) for r in raw])
    return DiscreteProductSpace(alphabets, weights)


def delta_bruteforce(space, table, V):
    """Delta_V by its definition: the sup over all points x, y of
    |sum over S subset V of (-1)^|S| f(x with x_S replaced by y_S)|."""
    index = {x: i for i, x in enumerate(points(space))}
    best = 0
    for x in points(space):
        for y in points(space):
            total = 0
            for k in range(len(V) + 1):
                for S in itertools.combinations(V, k):
                    z = list(x)
                    for j in S:
                        z[j] = y[j]
                    total += (-1) ** k * table[index[tuple(z)]]
            best = max(best, abs(total))
    return best


def alpha_bruteforce(space, table, m):
    top = min(m, space.n)
    deltas = {V: delta_bruteforce(space, table, V) for v in range(1, top + 1)
              for V in itertools.combinations(range(space.n), v)}
    return max((sum(d for V, d in deltas.items() if len(V) == v and j in V)
                for v in range(1, top + 1) for j in range(space.n)), default=0)


def random_sparse_quadratic(rng, space, eps):
    n = space.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    return quadratic_table(space, eps, pairs)


# ---------------------------------------------------------------------------

def test_delta_constant_vanishes():
    sp = bits(3)
    const = tuple(Fraction(5) for _ in range(8))
    for V in [(0,), (1, 2), (0, 1, 2)]:
        assert delta_V(sp, const, V) == 0


def test_delta_linear_function():
    sp = bits(4)
    f = tabulate(sp, lambda a, b, c, d: a)
    assert delta_V(sp, f, (0,)) == 1
    for V in [(0, 1), (1,), (2, 3), (0, 2, 3)]:
        expected = 1 if V == (0,) else 0
        assert delta_V(sp, f, V) == expected


def test_delta_product_function():
    sp = bits(4)
    f = tabulate(sp, lambda a, b, c, d: a * b)
    assert delta_V(sp, f, (0, 1)) == 1
    assert delta_V(sp, f, (0, 2)) == 0
    assert delta_V(sp, f, (0,)) == 1
    # the definition, on this f and on random tables, half of them with
    # entries near 2^62 over small denominators (beyond int64 once scaled)
    cases = [(sp, f, (0, 1))]
    rng = random.Random(11)
    for t in range(8):
        space = random_space(rng, rng.randint(1, 3))
        top = 9 * 2**62 if t % 2 else 9
        table = tuple(Fraction(rng.randint(-top, top), rng.randint(1, 6))
                      for _ in range(prod(space.sizes)))
        cases += [(space, table, V) for v in range(space.n + 1)
                  for V in itertools.combinations(range(space.n), v)]
    wide = DiscreteProductSpace([list(range(3)), list(range(25))],
                                [[Fraction(1, 3)] * 3, [Fraction(1, 25)] * 25])
    table = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 6))
                  for _ in range(75))
    cases += [(wide, table, V) for V in [(), (0,), (1,), (0, 1)]]
    for space, table, V in cases:
        assert delta_V(space, table, V) == delta_bruteforce(space, table, V)


def test_delta_triangle_inequality():
    sp = bits(5)
    rng = random.Random(8)
    f1 = tabulate(sp, lambda *xs: Fraction(1, 7) * (xs[0] * xs[1] + xs[2]))
    f2 = tabulate(sp, lambda *xs: Fraction(1, 5) * (xs[1] * xs[3] - xs[4]))
    fsum = tuple(a + b for a, b in zip(f1, f2))
    for V in [(0,), (1,), (0, 1), (1, 3), (2, 4), (0, 1, 3)]:
        assert delta_V(sp, fsum, V) <= delta_V(sp, f1, V) + delta_V(sp, f2, V)


def test_averaging_operator_bounds():
    sp = bits(5)
    f = tabulate(sp, lambda *xs: Fraction(1, 7) * (xs[0] * xs[1] + xs[2] * xs[4]))
    ej = conditional_expectation(sp, f, 1)
    diff = tuple(a - b for a, b in zip(f, ej))
    for V in [(0,), (2,), (0, 2), (0, 4), (2, 4)]:
        assert delta_V(sp, ej, V) <= delta_V(sp, f, V)
        assert delta_V(sp, diff, V) <= delta_V(sp, f, tuple(sorted(set(V) | {1})))
    # averaged coordinate: differencing in it gives zero
    assert delta_V(sp, ej, (1,)) == 0


def _dissections(V, r):
    if r == 1:
        yield (tuple(V),)
        return
    for k in range(len(V) + 1):
        for sub in itertools.combinations(V, k):
            rest = tuple(x for x in V if x not in sub)
            for tail in _dissections(rest, r - 1):
                yield (tuple(sub),) + tail


def test_product_rule_bound():
    sp = bits(5)
    f1 = tabulate(sp, lambda *xs: Fraction(1, 7) * (xs[0] * xs[1] + xs[2]))
    f2 = tabulate(sp, lambda *xs: Fraction(1, 5) * (xs[1] * xs[3] - xs[4]))
    f3 = tabulate(sp, lambda *xs: Fraction(1, 3) * (xs[0] + xs[3] * xs[4]))
    f12 = tuple(a * b for a, b in zip(f1, f2))
    f123 = tuple(a * b for a, b in zip(f12, f3))
    for V in [(0,), (0, 1), (1, 3, 4)]:
        lhs = delta_V(sp, f12, V)
        rhs = sum(delta_V(sp, f1, A) * delta_V(sp, f2, B)
                  for A, B in _dissections(V, 2))
        assert lhs <= rhs
        lhs3 = delta_V(sp, f123, V)
        rhs3 = sum(delta_V(sp, f1, A) * delta_V(sp, f2, B) * delta_V(sp, f3, C)
                   for A, B, C in _dissections(V, 3))
        assert lhs3 <= rhs3


def test_alpha_examples():
    sp = bits(4)
    lin = tabulate(sp, lambda *xs: 2 * xs[0] - 3 * xs[1])
    assert alpha(sp, lin, 1) == 3
    assert alpha(sp, lin, 3) == 3  # higher differences vanish for linear f
    eps = Fraction(1, 100)
    quad = quadratic_table(sp, eps, [(i, j) for i in range(4)
                                     for j in range(i + 1, 4)])
    assert alpha(sp, quad, 2) == 3 * eps


def test_alpha_wide_alphabet():
    # f = g(x_0) h(x_1): Delta_0 = osc(g) max|h|, Delta_1 = max|g| osc(h),
    # Delta_01 = osc(g) osc(h); one coordinate takes 200 values
    rng = random.Random(3)
    g = [rng.randint(-50, 50) for _ in range(200)]
    h = [rng.randint(-50, 50) for _ in range(5)]
    osc_g, osc_h = max(g) - min(g), max(h) - min(h)
    d0 = osc_g * max(map(abs, h))
    d1 = max(map(abs, g)) * osc_h
    for sizes, gs, hs in [((200, 5), g, h), ((5, 200), h, g)]:
        space = DiscreteProductSpace(
            [list(range(s)) for s in sizes], [[Fraction(1, s)] * s for s in sizes])
        table = tuple(Fraction(a * b) for a in gs for b in hs)
        wide = sizes.index(200)
        assert delta_V(space, table, (wide,)) == d0
        assert delta_V(space, table, (1 - wide,)) == d1
        assert delta_V(space, table, (0, 1)) == osc_g * osc_h
        assert alpha(space, table, 1) == max(d0, d1)
        assert alpha(space, table, 2) == max(d0, d1, osc_g * osc_h)


def test_alpha_reads_counts_the_walk(monkeypatch):
    read = []
    rows = taillab._rows

    def counted_rows(vals, shape, j):
        read.append(len(vals))
        return rows(vals, shape, j)

    monkeypatch.setattr(taillab, "_rows", counted_rows)
    rng = random.Random(7)
    for _ in range(40):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(0, 5))]
        space = DiscreteProductSpace(
            [list(range(s)) for s in sizes], [[Fraction(1, s)] * s for s in sizes])
        table = [rng.randint(-9, 9) for _ in range(prod(sizes))]
        for m in (1, 2, 3, 6):
            read.clear()
            alpha(space, table, m)
            assert sum(read) == alpha_reads(sizes, m), (sizes, m)
        # Delta_V runs the same walk over V alone, once per point of the
        # other coordinates
        V = [j for j in range(len(sizes)) if rng.random() < 0.6]
        read.clear()
        delta_V(space, table, V)
        others = prod(k for j, k in enumerate(sizes) if j not in V)
        assert sum(read) == alpha_reads([sizes[j] for j in V], len(V)) * others
    # 16 fair bits at m = 3: 65,536 * (16 + 120/2 + 560/4)
    assert alpha_reads((2,) * 16, 3) == 65536 * 216


def test_alpha_work_cap_comes_before_any_work(monkeypatch):
    # 19 fair bits fit the space cap; at m = 3 the walk would read 1.8e8
    space = bits(19)
    assert (alpha_reads(space.sizes, 2) <= ALPHA_MAX_READS
            < alpha_reads(space.sizes, 3))
    table = (Fraction(0),) * 2**19

    def fail(*args):
        pytest.fail("work started before the size check")

    for name in ("_scaled_int_table", "exact_cumulants_discrete"):
        monkeypatch.setattr(taillab, name, fail)
    with pytest.raises(SizeLimitError):
        alpha(space, table, 3)
    with pytest.raises(SizeLimitError):
        check_tail_bound(space, table, 3)


def test_delta_work_cap_comes_before_any_work(monkeypatch):
    # Delta_V walks as alpha does at m = |V|: over all five 10-value
    # coordinates it would read alpha_reads([10] * 5, 5) = 1.1e8 table
    # entries, over the four of a 10^4-point space 2.0e6
    assert (alpha_reads([10] * 4, 4) <= ALPHA_MAX_READS
            < alpha_reads([10] * 5, 5))

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(taillab, "_scaled_int_table", reached)
    for n, refused in ((4, False), (5, True)):
        space = DiscreteProductSpace([list(range(10))] * n, [["1/10"] * 10] * n)
        with pytest.raises(SizeLimitError if refused else Reached):
            delta_V(space, (Fraction(0),) * 10**n, range(n))
    # four of the five coordinates read 10 times 2.0e6: not refused
    with pytest.raises(Reached):
        delta_V(space, (Fraction(0),) * 10**5, range(4))


def test_alpha_m1_is_max_oscillation():
    sp = bits(3)
    f = tabulate(sp, lambda a, b, c: a * b + 5 * c)
    assert alpha(sp, f, 1) == 5


def test_exact_cumulants_examples():
    sp = bits(4)
    det = tuple(Fraction(5) for _ in range(16))
    assert exact_cumulants_discrete(sp, det, 4) == [5, 0, 0, 0]

    one = bits(1)
    f = tabulate(one, lambda x: x)
    assert exact_cumulants_discrete(one, f, 3) == [Fraction(1, 2),
                                                   Fraction(1, 4), 0]

    # independent sum: cumulant additivity
    two = bits(2)
    fsum = tabulate(two, lambda a, b: a + 7 * b)
    ka = exact_cumulants_discrete(one, tabulate(one, lambda x: x), 4)
    kb = exact_cumulants_discrete(one, tabulate(one, lambda x: 7 * x), 4)
    assert exact_cumulants_discrete(two, fsum, 4) == [x + y for x, y in zip(ka, kb)]


@st.composite
def small_instances(draw):
    """A space of one to three coordinates with two or three values, a table
    of small rationals on it, and an order m <= 3."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    weights = []
    for k in sizes:
        raw = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        weights.append([Fraction(r, sum(raw)) for r in raw])
    space = DiscreteProductSpace([list(range(k)) for k in sizes], weights)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    table = tuple(draw(st.lists(entry, min_size=prod(sizes), max_size=prod(sizes))))
    return space, table, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.fractions(min_value=-10**6, max_value=10**6,
                                       max_denominator=10**4))
def test_constant_shift_moves_only_kappa_1(inst, t):
    space, table, m = inst
    shifted = tuple(v + t for v in table)
    assert alpha(space, shifted, m) == alpha(space, table, m)
    kappas = exact_cumulants_discrete(space, table, m)
    moved = exact_cumulants_discrete(space, shifted, m)
    assert moved[0] == kappas[0] + t
    assert moved[1:] == kappas[1:]
    rep, rep_moved = check_tail_bound(space, table, m), check_tail_bound(space, shifted, m)
    assert rep_moved.kappa_bounds == rep.kappa_bounds
    assert rep_moved.kappas == moved


def test_large_entries_stay_exact():
    # (2^62, -2^62, -2^62, 2^62): the iterated difference is 2^64
    two = bits(2)
    big = (Fraction(2**62), Fraction(-2**62), Fraction(-2**62), Fraction(2**62))
    assert delta_V(two, big, (0, 1)) == 2**64
    assert alpha(two, big, 2) == 2**64
    # 1/p for eight primes near 10^6: the common denominator is about 10^48
    three = bits(3)
    primes = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907)
    table = tuple(Fraction(1, p) for p in primes)
    mean = sum(table) / 8
    var = sum(v * v for v in table) / 8 - mean**2
    assert exact_cumulants_discrete(three, table, 2) == [mean, var]
    for m in (1, 2, 3):
        assert alpha(three, table, m) == alpha_bruteforce(three, table, m)
    rep = check_tail_bound(three, table, 2)
    assert rep.kappas == [mean, var]
    assert rep.alpha == alpha_bruteforce(three, table, 2)


def test_tail_theorem_zero_function():
    sp = bits(4)
    rep = check_tail_bound(sp, tuple(Fraction(0) for _ in range(16)), 2)
    assert rep.holds and rep.delta_holds and all(rep.kappa_holds)
    assert rep.alpha == 0


def test_bound_past_a_billion_billion_digits_prints_its_midpoint():
    # one fair bit, f = x: alpha = 1 and the bound e^(100^(m+1)) - 1 at
    # m = 8 has a decimal exponent of 4.3e17, below the exp cap.  Its
    # midpoint is rounded to 53 bits through its logarithm: the Fraction of
    # that Decimal would be an int of as many digits.
    rep = check_tail_bound(bits(1), [Fraction(0), Fraction(1)], 8)
    assert rep.alpha == 1
    with mpmath.workprec(256):
        want = mpmath.exp(mpmath.mpf(100) ** 9) - 1
    with mpmath.workprec(53):
        assert rep.to_json()["delta_bound"] == mpmath.nstr(+want, 15)


def test_tail_theorem_quadratic_six_bits():
    sp = bits(6)
    tab = quadratic_table(sp, Fraction(1, 300),
                          [(i, j) for i in range(6) for j in range(i + 1, 6)])
    rep = check_tail_bound(sp, tab, 2)
    assert rep.holds
    assert rep.alpha == Fraction(5, 300)
    assert rep.delta[0] > -1


def test_tail_theorem_random_instances():
    rng = random.Random(9)
    done = 0
    while done < 25:
        space = random_space(rng, rng.randint(4, 8))
        eps = Fraction(1, rng.randint(600, 2400))
        tab = random_sparse_quadratic(rng, space, eps)
        m = rng.randint(1, 3)
        if alpha(space, tab, m) >= Fraction(1, 200):
            continue
        rep = check_tail_bound(space, tab, m)
        assert rep.holds, rep.to_json()
        done += 1


def test_tail_bound_needs_a_coordinate(monkeypatch):
    # delta is an n-th root: on no coordinates it read [-1, +inf] and the
    # kappa bounds 0; alpha and Delta_V stay defined there
    empty, table = instance_from_json({"alphabets": [], "weights": [], "f": [5]})
    assert empty.n == 0 and alpha(empty, table, 1) == 0
    assert delta_V(empty, table, ()) == 5

    def reached(*args):
        raise AssertionError("the alpha walk ran")

    monkeypatch.setattr(taillab, "alpha", reached)
    with pytest.raises(DomainError, match="at least one coordinate"):
        check_tail_bound(empty, table, 1)


def test_instance_json_round_trip():
    rng = random.Random(10)
    space = random_space(rng, 4)
    tab = random_sparse_quadratic(rng, space, Fraction(1, 500))
    blob = json.dumps(instance_to_json(space, tab))
    space2, tab2 = instance_from_json(json.loads(blob))
    assert space2 == space and tab2 == tab
    rep1 = check_tail_bound(space, tab, 2)
    rep2 = check_tail_bound(space2, tab2, 2)
    assert rep1.kappas == rep2.kappas and rep1.alpha == rep2.alpha


def test_space_validation():
    with pytest.raises(DomainError, match="sum to 1"):
        DiscreteProductSpace([[0, 1]], [[Fraction(1, 2), Fraction(1, 3)]])
    with pytest.raises(DomainError, match="matching nonempty"):
        DiscreteProductSpace([[0]], [[Fraction(1), Fraction(0)]])
    with pytest.raises(DomainError, match="align"):
        DiscreteProductSpace([[0, 1], [0, 1]], [["1/2", "1/2"]])
    with pytest.raises(DomainError, match="positive"):
        DiscreteProductSpace([[0, 1]], [[1, 0]])
    with pytest.raises(DomainError, match="non-rational"):
        DiscreteProductSpace([[0, "x"]], [["1/2", "1/2"]])
    with pytest.raises(DomainError, match="non-rational"):  # Fraction(True) is 1
        alpha(bits(1), (False, True), 1)
    with pytest.raises(DomainError, match="must be a list"):
        DiscreteProductSpace(["01"], [["1/2", "1/2"]])
    assert 2**19 <= SPACE_MAX_POINTS < 2**20
    with pytest.raises(SizeLimitError):
        bits(20)
    with pytest.raises(DomainError, match="out of range"):
        delta_V(bits(2), (0, 1, 1, 0), (0, 2))
    with pytest.raises(DomainError):
        check_tail_bound(bits(2), tuple(Fraction(0) for _ in range(4)), 0)
    good = instance_to_json(bits(1), (Fraction(0), Fraction(1)))
    bad = [{k: v for k, v in good.items() if k != key}
           for key in ("alphabets", "weights", "f")]
    bad += [dict(good, f=["0", "x"]), dict(good, f=["0", "1/0"]),
            dict(good, weights=[["1/2", None]]), dict(good, alphabets="01"),
            dict(good, alphabets=["01"]), dict(good, f=["0", "1", "1"]),
            ["not", "an", "object"]]
    for obj in bad:
        with pytest.raises(DomainError):
            instance_from_json(obj)


def test_constructor_coerces_numbers_and_strings():
    space = DiscreteProductSpace([[0, 1]], [[0.5, 0.5]])
    assert space.alphabets == ((Fraction(0), Fraction(1)),)
    assert space.weights == ((Fraction(1, 2), Fraction(1, 2)),)
    assert all(type(v) is Fraction for v in space.alphabets[0] + space.weights[0])
    assert space == bits(1)
    same = DiscreteProductSpace([["0", "1"]], [["1/2", "1/2"]])
    assert same == space and hash(same) == hash(space)
    assert DiscreteProductSpace([[0, 2]], [["1/2", "1/2"]]) != space
    rep = check_tail_bound(space, (Fraction(0), Fraction(1, 1000)), 2)
    assert rep.alpha == Fraction(1, 1000) and rep.holds
