"""Exact quadratic / Gaussian-quadratic field arithmetic tests."""

from __future__ import annotations

import operator
import pickle
import random
from fractions import Fraction

import pytest
import sympy as sp  # an independent oracle, used by the tests only
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balkit import (
    BALANCING,
    LUCAS_BALANCING,
    CancellationError,
    GaussQuad,
    QuadRat,
    binet_pair,
    certified_int,
    term,
)

ALPHA = QuadRat.of(3, 2, 2)
BETA = QuadRat.of(3, -2, 2)


def rand_quad(rng, d):
    return QuadRat.of(
        Fraction(rng.randrange(-30, 31), rng.randrange(1, 12)),
        Fraction(rng.randrange(-30, 31), rng.randrange(1, 12)),
        d,
    )


def rand_gauss(rng, d):
    return GaussQuad(rand_quad(rng, d), rand_quad(rng, d))


def test_unit_products():
    assert ALPHA * BETA == 1
    assert ALPHA + BETA == 6
    x = QuadRat.of(Fraction(5, 3), Fraction(-7, 2), 2)
    assert x * 1 == x


def test_inverse_examples():
    assert ALPHA.inverse() == BETA
    one = QuadRat.of(1, 0, 2)
    assert one.inverse() == one
    assert QuadRat.of(2, 1, 2).inverse() == QuadRat.of(1, Fraction(-1, 2), 2)
    assert 1 / ALPHA == BETA
    g = GaussQuad.of(QuadRat.of(0, 2, 2), QuadRat.of(1, 0, 2))
    assert 9 / g == g.conjugate()


def test_sqrt_squares_to_radicand():
    for d in (2, 5):
        assert QuadRat.of(0, 1, d) * QuadRat.of(0, 1, d) == d
        assert QuadRat.of(0, 1, d) ** 2 == d


def test_field_axioms_random():
    rng = random.Random(41)
    for d in (2, 5):
        for _ in range(150):
            x, y, z = (rand_quad(rng, d) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x and x * y == y * x
            if x != 0:
                assert x * x.inverse() == 1
                assert x / x == 1


def test_norm_multiplicative():
    rng = random.Random(42)
    for d in (2, 5):
        for _ in range(200):
            x, y = rand_quad(rng, d), rand_quad(rng, d)
            assert (x * y).norm() == x.norm() * y.norm()


def test_gauss_axioms_random():
    rng = random.Random(43)
    for d in (2, 5):
        for _ in range(100):
            x, y, z = (rand_gauss(rng, d) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x * y).norm() == x.norm() * y.norm()
            if x.norm() != QuadRat.of(0, 0, d):
                assert x * x.inverse() == 1


def test_gauss_examples():
    two_r2 = QuadRat.of(0, 2, 2)
    plus = GaussQuad.of(two_r2, QuadRat.of(1, 0, 2))
    minus = GaussQuad.of(two_r2, QuadRat.of(-1, 0, 2))
    assert plus * minus == 9
    assert plus ** 0 == 1
    assert plus.inverse() + minus.inverse() == GaussQuad.of(
        QuadRat.of(0, Fraction(4, 9), 2), QuadRat.of(0, 0, 2)
    )


def test_gauss_power_negative():
    rng = random.Random(44)
    for _ in range(40):
        x = rand_gauss(rng, 5)
        if x.norm() == QuadRat.of(0, 0, 5):
            continue
        assert x ** -3 == (x ** 3).inverse()
        assert x ** -3 * x ** 3 == 1


@pytest.mark.parametrize("n, pair", [(2, (6, 17)), (0, (0, 1)), (-3, (-35, 99))])
def test_binet_examples(n, pair):
    assert binet_pair(n) == pair


def test_binet_matches_kernel():
    for n in range(-20, 61):
        assert binet_pair(n) == (term(BALANCING, n), term(LUCAS_BALANCING, n))


def test_certified_extraction():
    assert certified_int(Fraction(7)) == 7
    assert certified_int(QuadRat.of(-4, 0, 2)) == -4
    with pytest.raises(CancellationError):
        certified_int(QuadRat.of(1, Fraction(1, 10 ** 9), 2))
    with pytest.raises(CancellationError):
        certified_int(GaussQuad.of(QuadRat.of(1, 0, 2), QuadRat.of(1, 0, 2)))
    with pytest.raises(CancellationError):
        certified_int(Fraction(1, 2))
    with pytest.raises(CancellationError):
        certified_int(GaussQuad.of(QuadRat.of(Fraction(3, 2), 0, 5), QuadRat.of(0, 0, 5)))


@pytest.mark.parametrize("value, name", [(0.5, "float"), ("3", "str")])
def test_certified_extraction_names_a_rejected_type(value, name):
    with pytest.raises(TypeError, match=f"not {name}$"):
        certified_int(value)


def test_hash_consistent_with_equality():
    q = QuadRat.of(Fraction(7, 3), 0, 2)
    assert hash(q) == hash(Fraction(7, 3))
    g = GaussQuad.of(q, QuadRat.of(0, 0, 2))
    assert g == q and hash(g) == hash(q)
    assert QuadRat.of(4, 0, 2) == QuadRat.of(4, 0, 5)
    assert hash(QuadRat.of(4, 0, 2)) == hash(QuadRat.of(4, 0, 5)) == hash(4)


def test_domain_errors():
    with pytest.raises(ValueError):
        QuadRat.of(1, 1, 2) + QuadRat.of(1, 1, 5)
    with pytest.raises(ValueError):
        QuadRat.of(1, 1, 2) * QuadRat.of(1, 1, 5)
    with pytest.raises(ValueError):
        QuadRat.of(0, 1, 4)  # not squarefree
    with pytest.raises(ValueError):
        QuadRat.of(0, 1, 1)
    with pytest.raises(ValueError):
        QuadRat.of(0, 1, 12)
    # Zero on either floor, through each route to its inverse; without the guard
    # the conjugate over the norm would build 1/Fraction(0) into a witness.
    for zero, y in ((QuadRat.of(0, 0, 2), QuadRat.of(1, 1, 2)),
                    (GaussQuad.of(QuadRat.of(0, 0, 5), QuadRat.of(0, 0, 5)),
                     GaussQuad.of(QuadRat.of(1, 1, 5), QuadRat.of(2, 0, 5)))):
        for route in (zero.inverse, lambda: 1 / zero, lambda: zero ** -1, lambda: y / zero):
            with pytest.raises(ZeroDivisionError, match="division by zero in the field tower"):
                route()
    with pytest.raises(ValueError):
        GaussQuad(QuadRat.of(1, 0, 2), QuadRat.of(1, 0, 5))


@pytest.mark.parametrize("build, parts, rejected", [
    (QuadRat.of, (0.1, 0, 2), "float"),
    (QuadRat.of, ("1/3", 0, 2), "str"),
    (GaussQuad.of, (0.5, 0, 2), "float"),
    (QuadRat, (0, 0.5, 2), "float"),
    (QuadRat, (QuadRat.of(1, 1, 2), 0, 2), "QuadRat"),
    (GaussQuad, (QuadRat.of(1, 1, 2), GaussQuad.of(0, 1, 2)), "GaussQuad"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_constructors_take_only_exact_parts(build, parts, rejected):
    # A float would be rounded and a string parsed; a part from the same floor is no part.
    with pytest.raises(TypeError, match=rf"parts are .*, not {rejected}$"):
        build(*parts)


def test_constructors_lift_rationals():
    assert GaussQuad(Fraction(1, 2), QuadRat.of(0, 1, 3)) == GaussQuad.of(
        QuadRat.of(Fraction(1, 2), 0, 3), QuadRat.of(0, 1, 3))
    assert GaussQuad(1, 2, 5).im == 2 and QuadRat(True, 0, 2) == 1
    with pytest.raises(ValueError, match="needs a radicand"):
        GaussQuad(1, 2)


# -- properties of the merged tower, against sympy ----------------------------

RADICANDS = (2, 3, 5, 7)
RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=24)
OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def quads(d):
    return st.builds(QuadRat.of, RATIONALS, RATIONALS, st.just(d))


def members(d):
    return st.one_of(quads(d), st.builds(GaussQuad, quads(d), quads(d)))


def lower_operands(d):
    """Operands from a floor below GaussQuad in Q(sqrt(d))(i)."""
    return st.one_of(st.integers(-50, 50), RATIONALS, quads(d))


def to_sympy(v):
    if isinstance(v, GaussQuad):
        return to_sympy(v.re) + sp.I * to_sympy(v.im)
    if isinstance(v, QuadRat):
        return to_sympy(v.a) + to_sympy(v.b) * sp.sqrt(v.d)
    return sp.Rational(v.numerator, v.denominator)


def lift(s, d, gauss):
    """s as a full element of Q(sqrt(d)), or of Q(sqrt(d))(i) if `gauss`."""
    q = s if isinstance(s, QuadRat) else QuadRat.of(s, 0, d)
    return GaussQuad(q, QuadRat.of(0, 0, d)) if gauss else q


def assert_matches(ours, oracle):
    assert sp.expand(sp.radsimp(oracle) - to_sympy(ours)) == 0


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(RADICANDS).flatmap(lambda d: st.tuples(members(d), members(d))))
def test_arithmetic_matches_sympy(pair):
    x, y = pair
    sx, sy = to_sympy(x), to_sympy(y)
    assert_matches(x + y, sx + sy)
    assert_matches(x - y, sx - sy)
    assert_matches(x * y, sx * sy)
    if y != 0:
        assert_matches(x / y, sx / sy)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(RADICANDS).flatmap(members), st.integers(-5, 5))
def test_power_matches_sympy(x, e):
    assume(e >= 0 or x != 0)
    assert_matches(x ** e, to_sympy(x) ** e)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(RADICANDS).flatmap(members), st.integers(-20, 40))
def test_power_equals_repeated_products(x, e):
    # The power ladder against the plain product of |e| factors, inverted for e < 0.
    assume(e >= 0 or x != 0)
    product = lift(Fraction(1), x.d, isinstance(x, GaussQuad))
    for _ in range(abs(e)):
        product = product * x
    want = product if e >= 0 else product.inverse()
    got = x ** e
    assert type(got) is type(x) and got == want


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(RADICANDS).flatmap(
    lambda d: st.tuples(st.just(d), members(d), lower_operands(d))))
def test_lower_floor_operand_equals_lifted_operand(case):
    d, x, s = case
    gauss = isinstance(x, GaussQuad)
    if not gauss and isinstance(s, QuadRat):
        s = s.a  # a QuadRat is not from a floor below a QuadRat
    lifted = lift(s, d, gauss)
    for op in OPS:
        if op is not operator.truediv or s != 0:
            got, want = op(x, s), op(x, lifted)
            assert type(got) is type(want) and got == want
        if op is not operator.truediv or x != 0:
            got, want = op(s, x), op(lifted, x)
            assert type(got) is type(want) and got == want


@settings(deadline=None, max_examples=20)
@given(st.permutations(RADICANDS).flatmap(
    lambda ds: st.tuples(members(ds[0]), members(ds[1]))))
def test_mixed_radicands_raise(pair):
    x, y = pair
    assume(x != 0 and y != 0)
    for op in OPS:
        with pytest.raises(ValueError):
            op(x, y)
        with pytest.raises(ValueError):
            op(y, x)


@settings(deadline=None, max_examples=25)
@given(RATIONALS, st.sampled_from(RADICANDS), st.sampled_from(RADICANDS),
       st.sampled_from(RADICANDS).flatmap(members))
def test_hash_agrees_with_equality_across_floors(r, d1, d2, x):
    values = [r, QuadRat.of(r, 0, d1), QuadRat.of(r, 0, d2),
              GaussQuad.of(r, 0, d1), GaussQuad.of(QuadRat.of(r, 0, d2), 0)]
    for u in values:
        for v in values:
            assert u == v and hash(u) == hash(v)
    others = values + [x.conjugate()]
    if isinstance(x, QuadRat):
        others.append(lift(x, x.d, True))
    for u in others:
        if u == x:
            assert hash(u) == hash(x)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(RADICANDS).flatmap(members))
def test_elements_are_immutable_and_pickle(x):
    names = ("re", "im", "d") if isinstance(x, GaussQuad) else ("a", "b", "d")
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(x, name)
    copy = pickle.loads(pickle.dumps(x))
    assert type(copy) is type(x) and copy == x and copy.d == x.d


@pytest.mark.parametrize("cls", [QuadRat, GaussQuad])
def test_tracer_methods_bound_in_class_body(cls):
    # perfbench/tracer.py wraps these from vars(cls); an inherited one raises KeyError there.
    for name in ("__mul__", "__rmul__", "__pow__", "inverse"):
        assert name in vars(cls)


def same_floor_pairs(d):
    gauss = st.builds(GaussQuad, quads(d), quads(d))
    return st.one_of(st.tuples(quads(d), quads(d)), st.tuples(gauss, gauss))


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(RADICANDS).flatmap(same_floor_pairs))
def test_routes_to_a_value_reach_one_canonical_form(pair):
    # == and hash compare lowest-terms numerators, so every route must reduce fully.
    x, y = pair
    assume(y != 0)
    routes = [(x * y) / y, (x + y) - y, x / 3 * 3, 3 * x / 3]
    if x != 0:
        routes.append(x ** 3 * x ** -3 * x)
    for v in routes:
        assert type(v) is type(x) and v == x and hash(v) == hash(x)
    for q in (x, y) if isinstance(x, QuadRat) else (x.re, x.im, y.re, y.im):
        assert type(q) is QuadRat and type(q.a) is Fraction and type(q.b) is Fraction


def test_zmul_square_matches_the_general_product():
    from balkit.quadfield import _zmul

    a, b = 3 ** 200, -(5 ** 150)
    c, e = int(str(a)), int(str(b))  # equal values in other objects: the general path
    assert c is not a and e is not b
    assert _zmul(2, a, b, a, b) == _zmul(2, a, b, c, e) == (a * a + 2 * b * b, 2 * a * b)
