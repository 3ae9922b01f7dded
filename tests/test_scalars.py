"""Field axioms and root-adjunction behaviour of the scalar tower."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitcert import scalars
from orbitcert.scalars import Scalar, Tower, TowerError, fma

from conftest import gauss, gauss_nonzero, rationals

T = Tower()


@given(gauss(T), gauss_nonzero(T))
def test_multiply_then_divide_recovers(b, a):
    assert (a * b) * a.inv() == b
    assert (a * b) / a == b


@given(gauss(T), gauss(T), gauss(T))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(gauss(T))
def test_conjugation_involution(a):
    assert a.conj().conj() == a


@given(gauss(T), gauss(T))
def test_conjugation_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(gauss(T))
def test_real_imag_decomposition(a):
    assert a == a.real_part() + T.i() * a.imag_part()
    assert a.real_part().is_real() and a.imag_part().is_real()


def test_adjoined_root_squares_to_radicand():
    t = Tower()
    r2 = t.adjoin_sqrt(2)
    assert r2 * r2 == t.scalar(2)
    r3 = t.adjoin_sqrt(Fraction(3, 5))
    assert r3 * r3 == t.scalar(Fraction(3, 5))
    # a root of a root
    rr2 = t.adjoin_sqrt(r2)
    assert rr2 * rr2 == r2
    assert rr2 * rr2 * rr2 * rr2 == t.scalar(2)


def test_perfect_squares_do_not_deepen_the_tower():
    t = Tower()
    assert t.adjoin_sqrt(Fraction(9, 4)) == t.scalar(Fraction(3, 2))
    assert t.depth == 0
    r2 = t.adjoin_sqrt(2)
    assert t.depth == 1
    # 8 = (2*sqrt2)^2 is already a square once sqrt2 is present
    assert t.adjoin_sqrt(8) == t.scalar(2) * r2
    assert t.depth == 1


def test_inverse_in_a_quadratic_extension():
    t = Tower()
    r2 = t.adjoin_sqrt(2)
    s = t.one() + r2
    assert s * s.inv() == t.one()
    assert s.inv() == r2 - t.one()  # 1/(1+sqrt2) = sqrt2 - 1


def test_sign_of_nested_radicals():
    t = Tower()
    r2 = t.adjoin_sqrt(2)
    r3 = t.adjoin_sqrt(3)
    assert (r2 - t.one()).sign() == 1
    assert (t.one() - r2).sign() == -1
    assert (r2 + r3 - t.scalar(3)).sign() == 1    # 1.41 + 1.73 > 3
    assert (r2 + r3 - t.scalar(4)).sign() == -1
    assert (r2 * r3 - t.adjoin_sqrt(6)).sign() == 0
    with pytest.raises(TowerError):
        t.i().sign()


@given(rationals.filter(lambda x: x > 0))
def test_sqrt_consistency(x):
    t = Tower()
    r = t.adjoin_sqrt(x)
    assert r.sign() >= 0
    assert r * r == t.scalar(x)


def test_text_round_trip():
    t = Tower()
    for re, im in [(0, 0), (1, 0), (Fraction(-3, 7), Fraction(2, 5))]:
        s = t.scalar(re, im)
        assert Scalar.from_coords(t, [s.to_text()]) == s


def test_tower_coercion_is_prefix_only():
    base = Tower()
    deep = base.clone()
    r2 = deep.adjoin_sqrt(2)
    # base scalars combine with deep ones (result lives in the deep tower)
    x = base.one() + r2
    assert x._tower is deep
    other = Tower()
    other.adjoin_sqrt(3)
    with pytest.raises(TowerError):
        r2 + other.root(0)


@given(gauss(T), gauss_nonzero(T))
def test_lift_is_strict(a, b):
    deep = T.clone()
    r2 = deep.adjoin_sqrt(2)
    x = deep.lift(a) + deep.lift(b) * r2
    assert deep.lift(x) is x
    assert T.lift(deep.lift(a)) == a        # level-free values move back
    with pytest.raises(TowerError):
        T.lift(x)                           # a level T lacks
    other = T.clone()
    other.adjoin_sqrt(3)
    with pytest.raises(TowerError):
        other.lift(x)                       # same depth, other radicand


@given(st.permutations(range(3)))
def test_host_is_the_deepest_tower(order):
    towers = [Tower()]
    for r in (2, 3):
        towers.append(towers[-1].clone())
        towers[-1].adjoin_sqrt(r)
    entries = [towers[k].one() for k in order] + [5, Fraction(1, 2)]
    assert towers[0].host(entries) is towers[2]
    assert towers[2].host([towers[0].one()]) is towers[2]
    assert towers[1].host([]) is towers[1]


# -- the coefficient kernel against a (Fraction, Fraction) reference ------

big_rationals = st.one_of(
    rationals,
    st.fractions(max_denominator=10 ** 30),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30).map(Fraction),
)
pairs = st.tuples(big_rationals, big_rationals)


def _triple(pair):
    """Canonical (re, im, den) of a Fraction pair, built independently of
    the kernel: den is the lcm of the two denominators."""
    x, y = pair
    den = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (den // x.denominator),
            y.numerator * (den // y.denominator), den)


def _canonical(c):
    return (isinstance(c, tuple) and len(c) == 3
            and all(type(v) is int for v in c)
            and c[2] > 0 and math.gcd(*c) == 1)


def _text(pair):
    x, y = pair
    return "%d/%d+%d/%d*i" % (x.numerator, x.denominator,
                              y.numerator, y.denominator)


@given(pairs, pairs, st.integers(min_value=1, max_value=10 ** 6))
def test_coefficient_kernel_matches_fraction_pairs(a, b, k):
    (ax, ay), (bx, by) = a, b
    ta, tb = _triple(a), _triple(b)
    assert _canonical(ta) and _canonical(tb)
    want = {
        "add": (ax + bx, ay + by),
        # same denominator on both sides, sum cancelling down to 1
        "cancel": (Fraction(1), Fraction(0)),
        "mul": (ax * bx - ay * by, ax * by + ay * bx),
        "neg": (-ax, -ay),
    }
    got = {
        "add": scalars._gadd(ta, tb),
        "cancel": scalars._gadd(ta, _triple((1 - ax, -ay))),
        "mul": scalars._gmul(ta, tb),
        "neg": scalars._gneg(ta),
    }
    if ax or ay:
        n = ax * ax + ay * ay
        want["inv"] = (ax / n, -ay / n)
        got["inv"] = scalars._ginv(ta)
    for op, c in got.items():
        assert _canonical(c), op
        assert c == _triple(want[op]), op
    # text: each part reduced on its own, parsing accepts unreduced parts
    assert scalars._format_coeff(ta) == _text(a)
    assert scalars._parse_coeff(_text(a)) == ta
    unreduced = "%d/%d+%d/%d*i" % (ax.numerator * k, ax.denominator * k,
                                   ay.numerator, ay.denominator)
    assert scalars._parse_coeff(unreduced) == ta


# -- the fused kernel against the operators -------------------------------

# one history: CHAIN[d] has depth d, each a clone of the previous one with
# one more root; ALIEN has CHAIN[1]'s depth and another radicand
CHAIN = [Tower()]
for _r in (2, 3, 5):
    CHAIN.append(CHAIN[-1].clone())
    CHAIN[-1].adjoin_sqrt(_r)
ALIEN = Tower()
ALIEN.adjoin_sqrt(7)

_coord = st.one_of(st.just((0, 0)), st.tuples(rationals, rationals))


def tower_scalars(t: Tower, levels=None):
    """Scalars of ``t`` over its first ``levels`` levels, zero often."""
    size = 1 << (t.depth if levels is None else levels)
    return st.lists(_coord, min_size=size, max_size=size).map(
        lambda cs: Scalar(t, {m: scalars._grat(*c)
                              for m, c in enumerate(cs) if c != (0, 0)}))


def _reference(acc, pairs):
    """acc + sum(a * b) with the operators."""
    total = acc
    for a, b in pairs:
        total = total + a * b
    return total


def _assert_same(got, want):
    assert got == want
    assert all(c != (0, 0, 1) for c in got._terms.values())


@given(st.data())
def test_fma_matches_operators_at_each_depth(data):
    t = CHAIN[data.draw(st.integers(min_value=0, max_value=3))]
    acc = data.draw(tower_scalars(t))
    prs = data.draw(st.lists(st.tuples(tower_scalars(t), tower_scalars(t)),
                             max_size=4))
    got = fma(acc, iter(prs))
    _assert_same(got, _reference(acc, prs))
    assert got._tower is t


@given(st.data())
def test_fma_mixes_shallow_and_deep_towers_of_one_history(data):
    def draw():
        return data.draw(tower_scalars(
            CHAIN[data.draw(st.integers(min_value=0, max_value=3))]))
    acc = draw()
    prs = [(draw(), draw())
           for _ in range(data.draw(st.integers(min_value=0, max_value=4)))]
    got = fma(acc, prs)
    _assert_same(got, _reference(acc, prs))
    live = [x for a, b in prs if a and b for x in (a, b)]
    assert got._tower is max([acc] + live, key=lambda x: x._tower.depth)._tower


@given(st.data())
def test_fma_raises_on_a_radicand_mismatch_exactly_when_operators_do(data):
    # acc keeps a sqrt2 part throughout (CHAIN[1]'s other operands are
    # rational), so both sides meet ALIEN's sqrt7 exactly when a live pair
    # carries it
    t = CHAIN[1]
    root = data.draw(st.tuples(rationals, rationals).filter(
        lambda c: c != (0, 0)))
    acc = data.draw(tower_scalars(t, 0)) + t.scalar(*root) * t.root(0)
    prs = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        rational = data.draw(tower_scalars(t, 0))
        other = data.draw(st.one_of(tower_scalars(t, 0),
                                    tower_scalars(ALIEN)))
        prs.append(data.draw(st.sampled_from([(rational, other),
                                              (other, rational)])))
    try:
        want = _reference(acc, prs)
    except TowerError:
        with pytest.raises(TowerError):
            fma(acc, prs)
    else:
        _assert_same(fma(acc, prs), want)


def test_fma_takes_a_shallower_host_when_the_deepest_does_not_fit():
    # ALIEN = Q(i)(sqrt7); CHAIN[2] has sqrt2 where ALIEN has sqrt7
    a, c = ALIEN, CHAIN[2]
    want = a.scalar(3) + a.root(0)
    assert a.root(0) + c.scalar(3) * c.one() == want
    assert fma(a.root(0), [(c.scalar(3), c.one())]) == want
    assert fma(c.scalar(3), [(a.root(0), a.one())]) == want
    assert CHAIN[3].host([a.root(0), c.one()]) is a
    with pytest.raises(TowerError):
        CHAIN[3].host([a.root(0), c.root(0)])


@given(st.data())
def test_fma_resolves_mixed_towers_like_the_operators_in_both_orders(data):
    # acc and three pairs from CHAIN (depth 0-3), one operand rooted in
    # ALIEN and live.  With rational CHAIN operands a deeper CHAIN tower
    # cannot host sqrt7 and ALIEN must; otherwise sqrt7 and a CHAIN root
    # usually clash on level 0.
    rational = data.draw(st.booleans())

    def chain_value(nonzero=False):
        t = data.draw(st.sampled_from(CHAIN))
        values = tower_scalars(t, 0 if rational else None)
        return data.draw(values.filter(bool) if nonzero else values)
    ops = [chain_value() for _ in range(7)]
    root = data.draw(st.tuples(rationals, rationals).filter(
        lambda c: c != (0, 0)))
    k = data.draw(st.integers(min_value=0, max_value=6))
    ops[k] = data.draw(tower_scalars(ALIEN, 0)) + \
        ALIEN.scalar(*root) * ALIEN.root(0)
    if k:
        ops[k + 1 if k % 2 else k - 1] = chain_value(nonzero=True)
    acc, prs = ops[0], list(zip(ops[1::2], ops[2::2]))
    live = [acc] + [x for a, b in prs if a and b for x in (a, b)]
    clash = any(x._level() for x in live if x._tower is not ALIEN)
    for pairs in (prs, [(b, a) for a, b in prs]):
        if clash:
            with pytest.raises(TowerError):
                fma(acc, pairs)
            continue
        got = fma(acc, pairs)
        _assert_same(got, _reference(acc, pairs))
        right = acc
        for a, b in pairs:
            right = a * b + right
        _assert_same(got, right)


# -- operators mixing towers, in both orders --------------------------------

_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _both_orders(x, y):
    for a, b in ((x, y), (y, x)):
        for op in _OPS:
            if op is not operator.truediv or b:
                yield op, a, b


def test_operators_take_the_deeper_operand_on_either_side():
    x = CHAIN[1].one() + CHAIN[1].root(0)          # 1 + sqrt2
    sqrt3 = CHAIN[2].root(1)
    assert x * sqrt3 == sqrt3 * x
    assert x + sqrt3 == sqrt3 + x
    assert x - sqrt3 == -(sqrt3 - x)
    assert (x * sqrt3)._tower is (x + sqrt3)._tower is CHAIN[2]


@given(st.data())
def test_operators_mix_towers_of_one_history_in_both_orders(data):
    def draw():
        return data.draw(tower_scalars(
            CHAIN[data.draw(st.integers(min_value=0, max_value=3))]))
    x, y = draw(), draw()
    deep = max(x._tower, y._tower, key=lambda t: t.depth)
    for op, a, b in _both_orders(x, y):
        got = op(a, b)
        _assert_same(got, op(deep.lift(a), deep.lift(b)))
        assert got._tower is deep


@given(st.data())
def test_a_radicand_mismatch_raises_in_both_orders(data):
    # x uses sqrt2 and y uses ALIEN's sqrt7 on the same level; a Q(i)
    # value of either tower fits the other
    def rooted(t):
        c = data.draw(st.tuples(rationals, rationals).filter(
            lambda c: c != (0, 0)))
        return data.draw(tower_scalars(t, 0)) + t.scalar(*c) * t.root(0)
    x, y = rooted(CHAIN[1]), rooted(ALIEN)
    for op, a, b in [*_both_orders(x, y), (operator.eq, x, y),
                     (operator.eq, y, x)]:
        with pytest.raises(TowerError):
            op(a, b)
    q = data.draw(tower_scalars(ALIEN, 0))
    for op, a, b in _both_orders(x, q):
        _assert_same(op(a, b), op(CHAIN[1].lift(a), CHAIN[1].lift(b)))


# -- reading coordinate text --------------------------------------------------

# the canonical zero text, a non-canonical zero, a value written
# canonically, and one with unreduced parts
_coord_text = st.one_of(
    st.just("0/1+0/1*i"),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
        lambda d: "0/%d+0/%d*i" % d),
    st.tuples(rationals, rationals).map(_text),
    st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9),
              st.integers(1, 9)).map(lambda c: "%d/%d+%d/%d*i" % c))


@given(st.data())
def test_from_coords_equals_parsing_every_coordinate(data):
    t = CHAIN[data.draw(st.integers(0, 3))]
    size = 1 << data.draw(st.integers(0, t.depth))
    coords = data.draw(st.lists(_coord_text, min_size=size, max_size=size))
    parsed = [scalars._parse_coeff(text) for text in coords]
    want = {m: c for m, c in enumerate(parsed) if c != scalars._G0}
    got = Scalar.from_coords(t, coords)
    assert got._tower is t and got._terms == want


@pytest.mark.parametrize("bad", ["0/1+0/1", "1/0+0/1*i", "0/1+0/0*i",
                                 " 0/1+0/1*i", "0/1+0/1*i ", "x"])
def test_a_malformed_coordinate_after_zeros_raises(bad):
    t = CHAIN[2]
    with pytest.raises(TowerError):
        Scalar.from_coords(t, ["0/1+0/1*i"] * 3 + [bad])


def test_deserialize_refuses_more_radicands_than_the_depth_cap(monkeypatch):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    cap = scalars.MAX_DEPTH
    assert Tower.deserialize(primes[:cap]).depth == cap

    def refuse(self, x):
        raise AssertionError("a root was adjoined")

    # refused before a single root is adjoined
    monkeypatch.setattr(Tower, "adjoin_sqrt", refuse)
    with pytest.raises(TowerError, match="exceed the tower depth cap 8"):
        Tower.deserialize(primes[:cap + 1])
