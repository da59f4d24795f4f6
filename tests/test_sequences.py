"""Sequence kernel tests: seeds, recurrences, fast pairs, reflections."""

from __future__ import annotations

import random
from contextlib import contextmanager
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
from balkit import convolutions, sequences
from balkit.sequences import Sequence, _lucas_u, _squarefree


@contextmanager
def cold_kernel():
    """The one reset for kernel state: the term memo, the kernel's ladder record
    and the convolution-row memo are empty on entry and again on exit, also
    when the body raises, so no value computed by one kernel is read under another."""
    def clear():
        sequences._memo.cache_clear()
        sequences._ladder.clear()
        convolutions._row.cache_clear()

    clear()
    try:
        yield
    finally:
        clear()


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


def mat_pow(m, n, modulus=None):
    """Integer 2x2 matrix power by repeated squaring, n >= 0, each product
    reduced mod `modulus` if one is given."""
    result = ((1, 0), (0, 1))
    while n:
        if n & 1:
            result = mat_mul(result, m, modulus)
        m = mat_mul(m, m, modulus)
        n >>= 1
    return result


def mat_mul(x, y, modulus=None):
    product = tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
                    for i in range(2))
    return product if modulus is None else tuple(tuple(v % modulus for v in row) for row in product)


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


@settings(deadline=None)
@given(st.integers(0, 10 ** 30), st.integers(1, 10 ** 30))
def test_pair_mod_matches_the_reduced_matrix_power_at_huge_indices(n, drawn):
    # [[6, -1], [1, 0]]^n = [[B(n+1), -B(n)], [B(n), -B(n-1)]] and C(n) = B(n+1) - 3 B(n),
    # at indices that no exact route reaches.
    for m in (*EDGE_MODULI, drawn):
        (b1, _), (b, _) = mat_pow(((6, -1), (1, 0)), n, m)
        assert pair_mod(n, m) == (b % m, (b1 - 3 * b) % m)


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
    with cold_kernel():
        certify_floor(TailSpec("B", "alt_even_sq"), 1000)
        assert sequences._memo.cache_info().currsize <= 36


# -- the resumable ladder ----------------------------------------------------------

# Every named record, and the balancing-like U(3, 1), V(3, 1), U(4, 1), V(4, 1)/2.
RECORDS = [BALANCING, LUCAS_BALANCING, FIBONACCI, LUCAS] + [gen_fibonacci(a) for a in range(1, 5)] + [
    seq for pair in BALANCING_LIKE for seq in pair]
LO, HI = -70, 1040
# Terms of each record, and U of its (P, Q) for the expansions E(k) = (U(2k-1), U(2k), U(2k+1)),
# from the linear pass.
TERMS = {seq: dict(zip(range(LO, HI + 1), values(seq, LO, HI))) for seq in RECORDS}
U_TERMS = {(seq.p, seq.q): values(Sequence("u", seq.p, seq.q, "U", 1), 0, HI + 2) for seq in RECORDS}
POWERS_OF_TWO = sorted(2 ** k + d for k in range(1, 11) for d in (-1, 0, 1))
# How each call picks its index: at a drawn one, or from the previous index again,
# one below it, or at its sibling (n = 2m and 2m + 1 share the doubling of m).
MOVES = st.one_of(st.tuples(st.just("at"), st.integers(LO, HI) | st.sampled_from(POWERS_OF_TWO)),
                  st.tuples(st.sampled_from(("again", "down", "sibling")), st.just(0)))
# Calls over two records, so that most calls meet a ladder of their own (P, Q);
# a modulus of None is an exact call, any other a pair_mod call.
CALLS = st.tuples(st.sampled_from(RECORDS), st.sampled_from(RECORDS)).flatmap(lambda two: st.lists(
    st.tuples(st.sampled_from(two), MOVES, st.none() | st.sampled_from(EDGE_MODULI)),
    min_size=1, max_size=40))


@settings(deadline=None, max_examples=80)
@given(CALLS)
def test_resumed_ladder_equals_a_cold_one_and_the_linear_pass(calls):
    with cold_kernel():
        n = 0
        for seq, (move, at), modulus in calls:
            n = min(max({"at": at, "again": n, "down": n - 1, "sibling": n ^ 1}[move], LO), HI)
            p, q, us = seq.p, seq.q, U_TERMS[seq.p, seq.q]
            prior = [(key, last, list(levels)) for key, last, levels in sequences._ladder]
            if modulus is not None:  # pair_mod runs its own ladder and keeps nothing
                k, bs = abs(n), U_TERMS[6, 1]
                assert pair_mod(k, modulus) == (bs[k] % modulus, (bs[k + 1] - 3 * bs[k]) % modulus)
                assert [(key, last, list(levels)) for key, last, levels in sequences._ladder] == prior
                continue
            got = term(seq, n)
            assert got == TERMS[seq][n]
            (key, last, levels), = sequences._ladder
            k = n if n >= 0 else -n - 1  # the index term ran the ladder at
            top = k.bit_length() - 1
            assert (key, last) == ((p, q), k) and len(levels) <= max(top, 0)
            assert levels == [tuple(us[2 * (k >> (top - j)) + i] for i in (-1, 0, 1))
                              for j in range(len(levels))]
            # The levels whose parents the previous ladder doubled are read, not doubled again.
            for key, last, old in prior:
                if key == (p, q) and last.bit_length() == k.bit_length():
                    shared = top + 1 - (k ^ last).bit_length()
                    assert all(levels[j] is old[j] for j in range(min(shared, len(old))))
            kept = sequences._ladder[:]
            sequences._ladder.clear()  # a cold ladder for the same call
            assert term(seq, n) == got
            sequences._ladder[:] = kept


# -- FFT squaring -------------------------------------------------------------------

FFT = sequences._FFT


@st.composite
def square_operands(draw):
    """+-x of m bits, from just below `_FFT` to about 8 times it: random bits
    (from a drawn seed, since hypothesis draws no integers this large), all
    ones (2^m - 1, which pushes every coefficient c_j to its bound), a power
    of two, or a sparse pattern of a few set bits."""
    m = draw(st.integers(FFT - 8, 8 * FFT))
    form = draw(st.sampled_from(("random", "ones", "power", "sparse")))
    top = 1 << m - 1
    if form == "random":
        x = random.Random(draw(st.integers(0, 2 ** 32))).getrandbits(m) | top
    elif form == "ones":
        x = 2 * top - 1
    else:
        bits = draw(st.sets(st.integers(0, m - 2), max_size=8)) if form == "sparse" else ()
        x = top | sum(1 << i for i in bits)
    return x if draw(st.booleans()) else -x


@settings(deadline=None, max_examples=40)
@given(square_operands())
def test_fft_square_equals_the_builtin_product(x):
    assert sequences._square(x) == x * x


# k = (bits.bit_length() - 1) // 2 steps from 8 to 9 at 2^18 bits and from 9
# to 10 at 2^20; at those two and at 2^19 (k = 9) every piece is full.  At
# 614,400 = 300 * 8 * 256 bits (k = 9, M/2 = 256 pieces) every piece holds
# exactly 300 bytes; one bit less leaves the top piece a bit short, and one
# bit more makes every piece 301 bytes.
SQUARE_BITS = [2 ** e + d for e in (18, 19, 20) for d in (-1, 0, 1)] + [614_399, 614_400, 614_401]
_rng = random.Random(3301)
SQUARE_CASES = {"0": 0, "1": 1, "-1": -1} | {
    f"{form} {m} bits": x for m in SQUARE_BITS
    for form, x in (("ones", 2 ** m - 1), ("-ones", 1 - 2 ** m), ("power", 2 ** (m - 1)),
                    ("random", _rng.getrandbits(m) | 1 << m - 1))}


@pytest.mark.parametrize("x", SQUARE_CASES.values(), ids=SQUARE_CASES)
def test_fft_square_pinned_cases(x):
    assert sequences._square(x) == x * x


# The operands pinned for the Toom-3 square that the FFT replaced, kept under
# their old name: 0, +-1, 2^m and 2^m - 1 on both sides of its 20,000-bit
# threshold and at 60,000 bits, which `_square` now hands to the builtin, and
# at 300,001 bits and random operands of 3 * 10^5 and 450,001, which it
# squares by the FFT at k = 9.
_toom_rng = random.Random(3301)
TOOM_SQUARE_CASES = {"0": 0, "1": 1, "-1": -1} | {
    sign + name.format(m): s * (2 ** m - d) for m in (19_999, 20_000, 20_001, 60_000, 300_001)
    for d, name in ((0, "2^{}"), (1, "(2^{}-1)")) for s, sign in ((1, ""), (-1, "-"))} | {
    f"{sign}random {bits} bits": s * (_toom_rng.getrandbits(bits) | 1 << bits - 1)
    for bits in (300_000, 450_001) for s, sign in ((1, ""), (-1, "-"))}


@pytest.mark.parametrize("x", TOOM_SQUARE_CASES.values(), ids=TOOM_SQUARE_CASES)
def test_toom_square_pinned_cases(x):
    assert sequences._square(x) == x * x


# Past the threshold: U(k) reaches `_FFT` bits near k = 78,700 for B and C,
# 116,000 for G(3) and 288,000 for F, and the ladder of n squares U(n // 2).
# At 160,600 and 167,000 its top squares cut U(n // 2) into pieces of 200 and
# 208 bytes, where 2b is itself a multiple of M/2, so a ring bound short of
# 2b + k - 1 would show; 160,601 resumes 160,600's ladder and 167,000 shares
# its top levels.  The linear pass is too slow at these indices, so the
# kernel is checked against the Binet route, pair_mod and C^2 - 8 B^2 = 1.
FFT_INDICES = (160_600, 160_601, 167_000)
FFT_PAIRS = {n: binet_pair(n) for n in FFT_INDICES}


def test_kernel_above_the_fft_threshold():
    m = 2 ** 61 - 1
    with cold_kernel():
        resumed = [pair_fast(n) for n in FFT_INDICES]
        cold = []
        for n in FFT_INDICES:
            sequences._ladder.clear()
            cold.append(pair_fast(n))
        assert resumed == cold == [FFT_PAIRS[n] for n in FFT_INDICES]
        for n, (b, c) in zip(FFT_INDICES, cold):
            assert c * c - 8 * b * b == 1, n
            assert (b % m, c % m) == pair_mod(n, m), n
        # two Q = -1 families, whose 2 Q^k alternates in sign between squares
        for seq, n in ((gen_fibonacci(3), 240_000), (FIBONACCI, 600_000)):
            assert term(seq, n) == binet(seq, n)[0], seq
