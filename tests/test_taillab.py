import itertools
import json
import random
from fractions import Fraction

import pytest

from eocount.errors import DomainError
from eocount.taillab import (DiscreteProductSpace, alpha, check_tail_bound,
                             delta_V, exact_cumulants_discrete,
                             instance_from_json, instance_to_json)

from oracles import conditional_expectation


def bits(n):
    return DiscreteProductSpace.uniform_bits(n)


def quadratic_table(space, eps, pairs):
    return space.tabulate(
        lambda *xs: eps * sum(xs[i] * xs[j] for i, j in pairs))


def random_space(rng, n):
    sizes = [rng.choice([2, 3]) for _ in range(n)]
    alphabets = [[Fraction(v) for v in range(s)] for s in sizes]
    weights = []
    for s in sizes:
        raw = [rng.randint(1, 9) for _ in range(s)]
        tot = sum(raw)
        weights.append([Fraction(r, tot) for r in raw])
    return DiscreteProductSpace.make(alphabets, weights)


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
    f = sp.tabulate(lambda a, b, c, d: a)
    assert delta_V(sp, f, (0,)) == 1
    for V in [(0, 1), (1,), (2, 3), (0, 2, 3)]:
        expected = 1 if V == (0,) else 0
        assert delta_V(sp, f, V) == expected


def test_delta_product_function():
    sp = bits(4)
    f = sp.tabulate(lambda a, b, c, d: a * b)
    assert delta_V(sp, f, (0, 1)) == 1
    assert delta_V(sp, f, (0, 2)) == 0
    assert delta_V(sp, f, (0,)) == 1
    # exhaustive definition check on the pair (0, 1)
    vals = {}
    for x in sp.points():
        vals[x] = f[sum(xi * s for xi, s in
                        zip(x, (8, 4, 2, 1)))]
    best = Fraction(0)
    for x in sp.points():
        for y in sp.points():
            # partial difference over V = {0, 1}
            def sub(w):
                return vals[tuple(w)]
            x0y = list(x); x0y[0] = y[0]
            x1y = list(x); x1y[1] = y[1]
            xy = list(x); xy[0] = y[0]; xy[1] = y[1]
            d = sub(x) - sub(x0y) - sub(x1y) + sub(xy)
            best = max(best, abs(d))
    assert best == delta_V(sp, f, (0, 1))


def test_delta_triangle_inequality():
    sp = bits(5)
    rng = random.Random(8)
    f1 = sp.tabulate(lambda *xs: Fraction(1, 7) * (xs[0] * xs[1] + xs[2]))
    f2 = sp.tabulate(lambda *xs: Fraction(1, 5) * (xs[1] * xs[3] - xs[4]))
    fsum = tuple(a + b for a, b in zip(f1, f2))
    for V in [(0,), (1,), (0, 1), (1, 3), (2, 4), (0, 1, 3)]:
        assert delta_V(sp, fsum, V) <= delta_V(sp, f1, V) + delta_V(sp, f2, V)


def test_averaging_operator_bounds():
    sp = bits(5)
    f = sp.tabulate(lambda *xs: Fraction(1, 7) * (xs[0] * xs[1] + xs[2] * xs[4]))
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
    f1 = sp.tabulate(lambda *xs: Fraction(1, 7) * (xs[0] * xs[1] + xs[2]))
    f2 = sp.tabulate(lambda *xs: Fraction(1, 5) * (xs[1] * xs[3] - xs[4]))
    f3 = sp.tabulate(lambda *xs: Fraction(1, 3) * (xs[0] + xs[3] * xs[4]))
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
    lin = sp.tabulate(lambda *xs: 2 * xs[0] - 3 * xs[1])
    assert alpha(sp, lin, 1) == 3
    assert alpha(sp, lin, 3) == 3  # higher differences vanish for linear f
    eps = Fraction(1, 100)
    quad = quadratic_table(sp, eps, [(i, j) for i in range(4)
                                     for j in range(i + 1, 4)])
    assert alpha(sp, quad, 2) == 3 * eps


def test_alpha_m1_is_max_oscillation():
    sp = bits(3)
    f = sp.tabulate(lambda a, b, c: a * b + 5 * c)
    assert alpha(sp, f, 1) == 5


def test_exact_cumulants_examples():
    sp = bits(4)
    det = tuple(Fraction(5) for _ in range(16))
    assert exact_cumulants_discrete(sp, det, 4) == [5, 0, 0, 0]

    one = bits(1)
    f = one.tabulate(lambda x: x)
    assert exact_cumulants_discrete(one, f, 3) == [Fraction(1, 2),
                                                   Fraction(1, 4), 0]

    # independent sum: cumulant additivity
    two = bits(2)
    fsum = two.tabulate(lambda a, b: a + 7 * b)
    ka = exact_cumulants_discrete(one, one.tabulate(lambda x: x), 4)
    kb = exact_cumulants_discrete(one, one.tabulate(lambda x: 7 * x), 4)
    assert exact_cumulants_discrete(two, fsum, 4) == [x + y for x, y in zip(ka, kb)]


def test_tail_theorem_zero_function():
    sp = bits(4)
    rep = check_tail_bound(sp, tuple(Fraction(0) for _ in range(16)), 2)
    assert rep.holds and rep.delta_holds and all(rep.kappa_holds)
    assert rep.alpha == 0


def test_tail_theorem_quadratic_six_bits():
    sp = bits(6)
    tab = quadratic_table(sp, Fraction(1, 300),
                          [(i, j) for i in range(6) for j in range(i + 1, 6)])
    rep = check_tail_bound(sp, tab, 2)
    assert rep.holds
    assert rep.alpha == Fraction(5, 300)
    assert rep.delta > -1


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
    with pytest.raises(DomainError):
        DiscreteProductSpace.make([[0, 1]], [[Fraction(1, 2), Fraction(1, 3)]])
    with pytest.raises(DomainError):
        DiscreteProductSpace.make([[0]], [[Fraction(1), Fraction(0)]])
    with pytest.raises(DomainError):
        check_tail_bound(bits(2), tuple(Fraction(0) for _ in range(4)), 0)
