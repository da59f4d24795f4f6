"""Generating-function closed forms and exact series expansion tests."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balkit import (
    BALANCING,
    FIBONACCI,
    LUCAS,
    LUCAS_BALANCING,
    RationalGF,
    Sequence,
    brute_conv,
    expand,
    gen_fibonacci,
    gf,
    series_mul,
    term,
)

FAMILIES = (BALANCING, LUCAS_BALANCING, FIBONACCI, LUCAS)


def test_balancing_gf_instance():
    g = gf(BALANCING, 1, 0)
    assert g.numer == (0, 1) and g.denom == (1, -6, 1)


def test_lucas_balancing_gf_instance():
    g = gf(LUCAS_BALANCING, 1, 0)
    assert g.numer == (1, -3) and g.denom == (1, -6, 1)


def test_fibonacci_stride_two_gf():
    # Expansion oracle: coefficients must be F(2n+1) = 1, 2, 5, 13, ...
    g = gf(FIBONACCI, 2, 1)
    assert g.denom == (1, -3, 1)
    assert expand(g, 6) == [term(FIBONACCI, 2 * i + 1) for i in range(6)]
    assert g.numer == (1, -1)


def test_lucas_gf_instance():
    g = gf(LUCAS, 1, 0)
    assert g.numer == (2, -1) and g.denom == (1, -1, -1)
    assert expand(g, 6) == [2, 1, 3, 4, 7, 11]


def test_expand_examples():
    assert expand(gf(BALANCING, 1, 0), 5) == [0, 1, 6, 35, 204]
    assert expand(gf(BALANCING, 2, 1), 4) == [1, 35, 1189, 40391]
    assert expand(RationalGF((1,), (1, -1)), 3) == [1, 1, 1]


def test_coefficients_match_terms_all_families():
    for family in FAMILIES:
        for k in range(1, 7):
            for r in range(k):
                got = expand(gf(family, k, r), 30)
                assert got == [term(family, k * i + r) for i in range(30)], (family.key, k, r)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 8), st.integers(1, 5).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, k - 1))))
def test_gen_fibonacci_gf_expansion_matches_terms(a, kr):
    k, r = kr
    seq = gen_fibonacci(a)
    assert expand(gf(seq, k, r), 40) == [term(seq, k * i + r) for i in range(40)]


def test_squared_gf_matches_brute_convolution():
    for family in FAMILIES:
        for k, r in ((1, 0), (2, 0), (2, 1), (3, 2)):
            prefix = expand(gf(family, k, r), 15)
            squared = series_mul(prefix, prefix, 15)
            for n in range(15):
                assert squared[n] == brute_conv(family, k, r, n)


def test_series_mul_geometric_square():
    ones = [1] * 10
    assert series_mul(ones, ones, 10) == list(range(1, 11))
    with pytest.raises(ValueError):
        series_mul(ones, ones, 11)


def test_expand_rejects_fractional_coefficients():
    with pytest.raises(ArithmeticError):
        expand(RationalGF((1,), (2, 1)), 3)


def test_expand_negative_non_unit_constant_term():
    # d0 = -2: integer coefficients come out exact, the first fraction is named.
    assert expand(RationalGF((4,), (-2, 4)), 3) == [-2, -4, -8]
    with pytest.raises(ArithmeticError, match=r"^non-integer series coefficient at t\^1: -1/2$"):
        expand(RationalGF((2,), (-2, 1)), 3)


def test_parameter_errors():
    with pytest.raises(ValueError):
        gf(BALANCING, 1, 1)
    with pytest.raises(ValueError):
        gf(BALANCING, 0, 0)
    for args in (("x", 3, -1, "W", 1), ("q2", 3, 2, "U", 1)):  # no family, so no gf
        with pytest.raises(ValueError, match=f"P = 3, Q = {args[2]}"):
            Sequence(*args)
    with pytest.raises(ValueError):
        RationalGF((1,), (0, 1))
    with pytest.raises(ValueError):
        expand(gf(BALANCING, 1, 0), 0)


def test_rational_gf_is_an_immutable_value():
    g = gf(BALANCING, 3, 1)
    same = RationalGF(g.numer, g.denom)
    assert g == same and hash(g) == hash(same)
    assert pickle.loads(pickle.dumps(g)) == g
    with pytest.raises(AttributeError):
        g.numer = (0,)


def test_replaced_gf_is_checked_as_built():
    g = gf(BALANCING, 2, 1)
    for denom in ((0, 1), ()):
        with pytest.raises(ValueError, match="nonzero constant term"):
            g._replace(denom=denom)
    h = g._replace(numer=(1,))
    assert type(h) is RationalGF and h == RationalGF((1,), g.denom)


def test_gf_str_is_readable():
    assert str(gf(BALANCING, 1, 0)) == "(t) / (1 - 6*t + t^2)"
    assert str(gf(LUCAS_BALANCING, 1, 0)) == "(1 - 3*t) / (1 - 6*t + t^2)"
