"""Sequence kernel tests: seeds, recurrences, fast pairs, reflections."""

from __future__ import annotations

import random
from math import isqrt

import pytest
import sympy  # an independent oracle, used by the tests only
from hypothesis import given, settings
from hypothesis import strategies as st

from balkit import (
    BALANCING,
    FIBONACCI,
    LUCAS,
    LUCAS_BALANCING,
    TailSpec,
    binet,
    binet_pair,
    certify_floor,
    family,
    gen_fibonacci,
    is_balancing,
    pair_fast,
    pair_mod,
    term,
    values,
)
from balkit import sequences
from balkit.sequences import Sequence, _lucas_u, _squarefree


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
            assert vs[n] == seq.p * vs[n - 1] - seq.q * vs[n - 2]


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
    # Oracle: run the recurrence backwards, S(n-2) = S(n) - P*S(n-1) for Q = -1.
    for seq in (FIBONACCI, LUCAS):
        back = {0: term(seq, 0), 1: term(seq, 1)}
        for n in range(0, -60, -1):
            back[n - 1] = back[n + 1] - seq.p * back[n]
        for n in range(-58, 2):
            assert term(seq, n) == back[n]


def test_stream_examples():
    assert values(FIBONACCI, 0, 5) == [0, 1, 1, 2, 3, 5]
    assert values(BALANCING, 2, 2) == [6]
    assert values(gen_fibonacci(1), 0, 4) == [0, 1, 1, 2, 3]


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
        values(BALANCING, 3, 1)
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
    members = set(values(BALANCING, 1, 10))
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


# -- pinned edge cases of the modular route ----------------------------------

EDGE_MODULI = (1, 2, 3, 6, 12, 2 ** 61 - 1)


@pytest.mark.parametrize("m", EDGE_MODULI)
def test_pair_mod_at_the_first_indices(m):
    # n <= 1 runs no doubling step, so only the final reduction brings U(1) = 1 to 0 mod 1.
    for n in range(4):
        b, c = pair_fast(n)
        assert pair_mod(n, m) == (b % m, c % m)


@pytest.mark.parametrize("seq", [FIBONACCI, LUCAS, gen_fibonacci(2)], ids=["F", "L", "G2"])
@pytest.mark.parametrize("m", EDGE_MODULI)
def test_kernel_mod_m_matches_the_reduced_exact_pair(seq, m):
    p, q, s0, s1 = seq.p, seq.q, term(seq, 0), term(seq, 1)
    us = iterate(p, -q, 0, 1, 202)
    for n in list(range(40)) + [63, 64, 65, 127, 128, 200]:
        u, u1 = _lucas_u(p, q, n, m)
        assert (u, u1) == (us[n] % m, us[n + 1] % m)
        assert (s0 * u1 + (s1 - p * s0) * u) % m == term(seq, n) % m


@settings(deadline=None)
@given(st.integers(-12, 12), st.sampled_from((1, -1)), st.integers(0, 3000),
       st.one_of(st.integers(1, 64), st.integers(1, 10 ** 20)))
def test_kernel_mod_m_matches_reduced_kernel(p, q, n, m):
    # P = 0 and P sharing a factor with m both take the product for U(2k).
    u, u1 = _lucas_u(p, q, n)
    assert _lucas_u(p, q, n, m) == (u % m, u1 % m)


def test_kernel_without_division_at_p_zero():
    # U(0, Q) = 0, 1, 0, -Q, 0, Q^2, ...: the exact route cannot divide by P = 0.
    # No family has P = 0 (D = -4Q is negative or the square 4), so the kernel is called directly.
    for q in (1, -1):
        assert [_lucas_u(0, q, n)[0] for n in range(41)] == iterate(0, -q, 0, 1, 41)


def test_kernel_rejects_q_other_than_plus_minus_one():
    with pytest.raises(ValueError, match="Q = 2"):
        _lucas_u(3, 2, 5)
    with pytest.raises(ValueError, match="Q = 2"):
        Sequence("q2", 3, 2, "U", 1)


@pytest.mark.parametrize("p, q, kind, s", [
    (3, 2, "U", 1), (2, 1, "U", 1), (1, 1, "U", 1), (3, 1, "W", 1), (3, 1, "V", 3), (3, 1, "V", 2),
], ids=["Q=2", "square D", "negative D", "kind W", "s=3", "s=2, odd P"])
def test_family_record_is_checked_when_built(p, q, kind, s):
    with pytest.raises(ValueError, match=f"got P = {p}, Q = {q}, kind '{kind}', s = {s}$"):
        Sequence("x", p, q, kind, s)
    with pytest.raises(ValueError, match=f"got P = {p}, Q = {q}, kind '{kind}', s = {s}$"):
        BALANCING._replace(p=p, q=q, kind=kind, s=s)


def test_squarefree_split_matches_factorint():
    # Past 3000: a square cofactor of one large prime, and two large primes.
    for n in [*range(2, 3000), 6 * 1_000_003 ** 2, 999_983 * 1_000_003]:
        f = d = 1
        for p, e in sympy.factorint(n).items():
            f, d = f * p ** (e // 2), d * p ** (e % 2)
        assert _squarefree(n) == (f, d), n
    assert gen_fibonacci(4).radicand == (2, 5) and LUCAS_BALANCING.radicand == (4, 2)


def test_building_a_record_factors_nothing(monkeypatch):
    # Splitting D = a^2 + 4 at a = 10^12 + 7, where D is prime, takes about 10^8
    # trial divisions: a record is built without it, and only reading its radicand splits D.
    monkeypatch.setattr(sequences, "_squarefree", lambda n: pytest.fail(f"split {n}"))
    assert gen_fibonacci(10 ** 12 + 7).p == 10 ** 12 + 7
    with pytest.raises(ValueError, match="got P = 0, Q = -1"):
        Sequence("square D", 0, -1, "U", 1)  # D = 4


# (U(P, Q), V(P, Q)/s) record pairs: the named families, then the balancing-like
# pairs U(A, 1) beside V(3, 1) and V(4, 1)/2.
NAMED_PAIRS = [(BALANCING, LUCAS_BALANCING), (FIBONACCI, LUCAS)] + [
    (gen_fibonacci(a), Sequence("v", a, -1, "V", 1)) for a in range(1, 5)]
BALANCING_LIKE = [(Sequence("u", a, 1, "U", 1), Sequence("v", a, 1, "V", s)) for a, s in ((3, 1), (4, 2))]


@pytest.mark.parametrize("pairs", [NAMED_PAIRS, BALANCING_LIKE], ids=["B-C-F-L-G", "balancing-like"])
def test_binet_matches_the_linear_pass(pairs):
    # binet(seq, n) is (U(n), V(n)/s) of seq's (P, Q): V/s for the V record, V for the U one.
    for u_seq, v_seq in pairs:
        us, vs = values(u_seq, -50, 200), values(v_seq, -50, 200)
        for n, u, v in zip(range(-50, 201), us, vs):
            assert binet(v_seq, n) == (u, v)
            assert binet(u_seq, n) == (u, v_seq.s * v)


def test_term_memo_holds_only_requested_indices():
    from balkit.sequences import _memo

    _memo.cache_clear()
    certify_floor(TailSpec("B", "alt_even_sq"), 1000)
    assert _memo.cache_info().currsize <= 36
