"""Sequence kernel tests: seeds, recurrences, fast pairs, reflections."""

from __future__ import annotations

import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balkit import (
    BALANCING,
    FIBONACCI,
    LUCAS,
    LUCAS_BALANCING,
    IndexedTerm,
    TailSpec,
    binet_pair,
    certify_floor,
    family,
    gen_fibonacci,
    is_balancing,
    pair_fast,
    pair_mod,
    stream,
    term,
    values,
)


def iterate(mult, add, s0, s1, count):
    """Independent oracle: plain recurrence iteration."""
    out = [s0, s1]
    while len(out) < count:
        out.append(mult * out[-1] + add * out[-2])
    return out[:count]


B_ORACLE = iterate(6, -1, 0, 1, 300)
C_ORACLE = iterate(6, -1, 1, 3, 300)
F_ORACLE = iterate(1, 1, 0, 1, 300)
L_ORACLE = iterate(1, 1, 2, 1, 300)


def test_seeds():
    assert term(BALANCING, 0) == 0 and term(BALANCING, 1) == 1
    assert term(LUCAS_BALANCING, 0) == 1 and term(LUCAS_BALANCING, 1) == 3


@pytest.mark.parametrize("n, expected", [(0, 0), (5, 1189), (-3, -35)])
def test_term_balancing_examples(n, expected):
    assert term(BALANCING, n) == expected


def test_term_lucas_balancing_example():
    assert term(LUCAS_BALANCING, 4) == 577


def test_term_matches_oracle():
    for seq, oracle in [
        (BALANCING, B_ORACLE),
        (LUCAS_BALANCING, C_ORACLE),
        (FIBONACCI, F_ORACLE),
        (LUCAS, L_ORACLE),
        (gen_fibonacci(2), iterate(2, 1, 0, 1, 300)),
        (gen_fibonacci(3), iterate(3, 1, 0, 1, 300)),
    ]:
        for n in range(0, 300, 7):
            assert term(seq, n) == oracle[n]


def test_recurrence_invariant_all_families():
    for seq in (BALANCING, LUCAS_BALANCING, FIBONACCI, LUCAS,
                gen_fibonacci(1), gen_fibonacci(2), gen_fibonacci(3)):
        vs = values(seq, 0, 5000)
        for n in range(2, 5001):
            assert vs[n] == seq.mult * vs[n - 1] + seq.add * vs[n - 2]


@pytest.mark.parametrize("n, pair", [(0, (0, 1)), (4, (204, 577)), (5, (1189, 3363))])
def test_pair_fast_examples(n, pair):
    assert pair_fast(n) == pair


def test_pair_fast_matches_stream():
    bs = values(BALANCING, 0, 700)
    cs = values(LUCAS_BALANCING, 0, 700)
    for n in range(701):
        assert pair_fast(n) == (bs[n], cs[n])


def test_pair_mod_matches_pair_fast():
    rng = random.Random(20817)
    for _ in range(200):
        n = rng.randrange(0, 4000)
        m = rng.randrange(2, 10 ** 9)
        b, c = pair_fast(n)
        assert pair_mod(n, m) == (b % m, c % m)


def test_pell_invariant():
    bs = values(BALANCING, 0, 400)
    cs = values(LUCAS_BALANCING, 0, 400)
    for n in range(401):
        assert cs[n] ** 2 - 8 * bs[n] ** 2 == 1


def test_reflection_balancing_families():
    for n in range(101):
        assert term(BALANCING, -n) == -term(BALANCING, n)
        assert term(LUCAS_BALANCING, -n) == term(LUCAS_BALANCING, n)


def test_reflection_fibonacci_lucas():
    # Oracle: run the recurrence backwards, S(n-2) = S(n) - mult*S(n-1) for add=1.
    for seq in (FIBONACCI, LUCAS):
        back = {0: seq.seed0, 1: seq.seed1}
        for n in range(0, -60, -1):
            back[n - 1] = back[n + 1] - seq.mult * back[n]
        for n in range(-58, 2):
            assert term(seq, n) == back[n]


def test_stream_examples():
    assert [t.value for t in stream(FIBONACCI, 0, 5)] == [0, 1, 1, 2, 3, 5]
    assert [t.value for t in stream(BALANCING, 2, 2)] == [6]
    assert [t.value for t in stream(gen_fibonacci(1), 0, 4)] == [0, 1, 1, 2, 3]
    assert stream(BALANCING, 3, 4) == [IndexedTerm(3, 35), IndexedTerm(4, 204)]


def test_stream_crosses_zero():
    got = values(BALANCING, -4, 4)
    assert got == [-204, -35, -6, -1, 0, 1, 6, 35, 204]


def test_gen_fibonacci_reproduces_fibonacci():
    assert values(gen_fibonacci(1), 0, 40) == values(FIBONACCI, 0, 40)


def test_family_letters():
    assert [family(c) for c in "BCFL"] == [BALANCING, LUCAS_BALANCING, FIBONACCI, LUCAS]
    assert family("G", 3) == gen_fibonacci(3) and family("G") == gen_fibonacci(1)
    for letter in ("Q", "b", "BC", ""):
        with pytest.raises(ValueError, match="unknown family"):
            family(letter)
    for letter in "BCFL":
        with pytest.raises(ValueError, match="takes no parameter a"):
            family(letter, 2)


def test_range_and_domain_errors():
    with pytest.raises(ValueError):
        stream(BALANCING, 3, 1)
    assert values(gen_fibonacci(2), -3, 3) == [5, -2, 1, 0, 1, 2, 5]
    with pytest.raises(ValueError):
        pair_fast(-1)
    with pytest.raises(ValueError):
        pair_mod(-1, 5)
    with pytest.raises(ValueError):
        pair_mod(3, 0)
    with pytest.raises(ValueError):
        gen_fibonacci(0)
    with pytest.raises(ValueError):
        is_balancing(0)


@pytest.mark.parametrize("x, expected", [(6, True), (7, False), (1, True)])
def test_is_balancing_examples(x, expected):
    assert is_balancing(x) is expected


def test_is_balancing_members():
    for n in range(1, 51):
        assert is_balancing(term(BALANCING, n))


def test_is_balancing_exhaustive_below_b10():
    # Exhaustive inline square test up to B(10); the function itself is then
    # checked on every member, every member's neighbors, and a random sample.
    b10 = term(BALANCING, 10)
    members = {t.value for t in stream(BALANCING, 1, 10)}
    hits = []
    for x in range(1, b10 + 1):
        y = 8 * x * x + 1
        r = isqrt(y)
        if r * r == y:
            hits.append(x)
    assert hits == sorted(members)
    for x in sorted(members):
        assert is_balancing(x)
        if x > 1:
            assert not is_balancing(x - 1)
        assert not is_balancing(x + 1)
    rng = random.Random(573)
    for _ in range(20000):
        x = rng.randrange(1, b10 + 1)
        assert is_balancing(x) is (x in members)


def test_product_of_balancing_numbers_not_balancing():
    bs = values(BALANCING, 0, 13)
    for m in range(2, 13):
        for n in range(2, 13):
            assert not is_balancing(bs[m] * bs[n])


# -- property tests of the doubling kernel against independent routes --------


def mat_pow(m, n):
    """Integer 2x2 matrix power by repeated squaring, n >= 0."""
    result = ((1, 0), (0, 1))
    while n:
        if n & 1:
            result = mat_mul(result, m)
        m = mat_mul(m, m)
        n >>= 1
    return result


def mat_mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def fib_like(a, n):
    """(G(n-1), G(n), G(n+1)) of G(n) = a G(n-1) + G(n-2), G(0) = 0, G(1) = 1,
    from [[a, 1], [1, 0]]^n = [[G(n+1), G(n)], [G(n), G(n-1)]]; negative n
    powers the integer inverse [[0, 1], [1, -a]]."""
    m = ((a, 1), (1, 0)) if n >= 0 else ((0, 1), (1, -a))
    p = mat_pow(m, abs(n))
    return p[1][1], p[0][1], p[0][0]


INDICES = st.integers(min_value=-10 ** 4, max_value=10 ** 4)


@settings(deadline=None, max_examples=60)
@given(INDICES)
def test_term_balancing_families_match_binet(n):
    assert (term(BALANCING, n), term(LUCAS_BALANCING, n)) == binet_pair(n)


@settings(deadline=None)
@given(INDICES)
def test_term_fibonacci_lucas_match_matrix_power(n):
    prev, cur, nxt = fib_like(1, n)
    assert term(FIBONACCI, n) == cur
    assert term(LUCAS, n) == prev + nxt


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=12), INDICES)
def test_term_gen_fibonacci_matches_matrix_power(a, n):
    assert term(gen_fibonacci(a), n) == fib_like(a, n)[1]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=5000),
       st.one_of(st.integers(min_value=1, max_value=64),
                 st.integers(min_value=1, max_value=10 ** 6).map(lambda x: 2 * x),
                 st.integers(min_value=1, max_value=10 ** 30)))
def test_pair_mod_matches_reduced_pair_fast(n, m):
    b, c = pair_fast(n)
    assert pair_mod(n, m) == (b % m, c % m)


def test_term_memo_holds_only_requested_indices():
    from balkit.sequences import _memo

    _memo.cache_clear()
    certify_floor(TailSpec("B", "alt_even_sq"), 1000)
    assert _memo.cache_info().currsize <= 36
