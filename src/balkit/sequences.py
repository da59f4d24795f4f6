"""Integer linear-recurrence kernels: balancing, Lucas-balancing, Fibonacci,
Lucas, and generalized Fibonacci terms at arbitrary (including negative)
indices.  Each is a Lucas record (P, Q, kind, s), so one fast-doubling routine
gives every term and the balancing pair, and one memo serves the modules that
revisit indices; the linear pass in `values` stays as the independent route.

The doubling step costs two squarings per bit.  Cassini's identity
U(k+1) U(k-1) - U(k)^2 = -Q^(k-1) turns the cross product U(k) U(k-1) into
squares, so U(2k-1) and U(2k+1) follow from U(k)^2 and U(k-1)^2 alone, and
U(2k) from the recurrence U(2k+1) = P U(2k) - Q U(2k-1), a division by P
that is exact because the recurrence holds in the integers.  Reduced mod m
that division is not available (P may share a factor with m), so the
modular route takes U(2k) as a product of word-sized residues instead."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt


@lru_cache(maxsize=None)
def _squarefree(n: int) -> tuple[int, int]:
    """(f, d) with n = f^2 d, d squarefree, n >= 1: once p^3 passes the part of n
    left, that part has at most two prime factors, so it is a square or squarefree."""
    f = d = p = 1
    while (p := p + 1) ** 3 <= n:
        while n % (p * p) == 0:
            n, f = n // (p * p), f * p
        if n % p == 0:
            n, d = n // p, d * p
    r = isqrt(n)
    return (f * r, d) if r * r == n else (f, d * n)


class Sequence(namedtuple("Sequence", "key p q kind s")):
    """The Lucas family U(P, Q) (kind "U", s = 1) or V(P, Q)/s (kind "V", s = 1,
    or 2 when P is even), where Q = +-1 and D = P^2 - 4Q is positive and not a
    square: S(n) = P S(n-1) - Q S(n-2) with S(0), S(1) = 0, 1 or 2/s, P/s.
    The constructor checks all of this, so every module reads the fields as given.

    Negative indices run the recurrence backwards: balancing terms reflect as
    -S(n), their companions as +S(n), Fibonacci and generalized Fibonacci as
    (-1)^(n+1) S(n), Lucas as (-1)^n S(n).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace is checked too

    def __new__(cls, key: str, p: int, q: int, kind: str, s: int) -> Sequence:
        disc = p * p - 4 * q
        if not (q in (1, -1) and disc > 0 and isqrt(disc) ** 2 != disc
                and (kind, s) in (("U", 1), ("V", 1), ("V", 2)) and p % s == 0):
            raise ValueError(f"a Lucas family needs Q = +-1, P^2 - 4Q > 0 not a square, s = 1 for U "
                             f"or 1, 2 dividing P for V; got P = {p}, Q = {q}, kind {kind!r}, s = {s}")
        return super().__new__(cls, key, p, q, kind, s)

    radicand = property(lambda seq: _squarefree(seq.p * seq.p - 4 * seq.q))  # (f, d): D = P^2 - 4Q = f^2 d

    def __str__(self) -> str:
        if self.key == "gen-fibonacci":
            return f"{self.key}({self.p})"
        return self.key


BALANCING = Sequence("balancing", 6, 1, "U", 1)
LUCAS_BALANCING = Sequence("lucas-balancing", 6, 1, "V", 2)
FIBONACCI = Sequence("fibonacci", 1, -1, "U", 1)
LUCAS = Sequence("lucas", 1, -1, "V", 1)


def gen_fibonacci(a: int) -> Sequence:
    """Sequence G(n) = a*G(n-1) + G(n-2), G(0)=0, G(1)=1, for integer a >= 1."""
    if a < 1:
        raise ValueError(f"gen-fibonacci parameter must be >= 1, got {a}")
    return Sequence("gen-fibonacci", a, -1, "U", 1)


_FAMILIES = {"B": BALANCING, "C": LUCAS_BALANCING, "F": FIBONACCI, "L": LUCAS}


def family(letter: str, a: int = 1) -> Sequence:
    """The family named by its letter: B, C, F, L, or G(a).  Only G takes a."""
    if letter == "G":
        return gen_fibonacci(a)
    if letter not in _FAMILIES:
        raise ValueError(f"unknown family {letter!r} (expected B, C, F, L, or G)")
    if a != 1:
        raise ValueError(f"family {letter} takes no parameter a, got a={a}")
    return _FAMILIES[letter]


def _lucas_u(p: int, q: int, n: int, modulus: int | None = None) -> tuple[int, int]:
    """(U(n), U(n+1)) of the Lucas sequence U(P, Q), Q = +-1, at n >= 0 in
    two squarings per bit of n, optionally reduced mod `modulus` after every
    step.

    The ladder holds (U(k-1), U(k)) from k = 1 (k = 0, with U(-1) = -Q, when
    n = 0) and reads a = U(k)^2 and b = U(k-1)^2.  Cassini's identity
    U(k+1) U(k-1) - a = -Q^(k-1) gives P U(k) U(k-1) = a + Q b - Q^(k-1),
    and with it
        U(2k-1) = a - Q b,
        U(2k+1) = U(k+1)^2 - Q a = (P^2 - 3Q) a - b + 2 Q^k,
        U(2k)   = (U(2k+1) + Q U(2k-1)) / P,
    the division exact because U(2k+1) = P U(2k) - Q U(2k-1) holds in the
    integers.  Mod m the quotient need not exist (P may share a factor with
    m), so that route, and P = 0, take U(2k) = U(k) (P U(k) - 2Q U(k-1)),
    one product of residues.  At the end U(n+1) = P U(n) - Q U(n-1).
    """
    if q not in (1, -1):
        raise ValueError(f"the term kernel needs Q = +-1, got Q = {q}")
    c, two_q, divide = p * p - 3 * q, 2 * q, modulus is None and p != 0
    # U(k-1), U(k), 2 Q^k at k = 1, the leading bit of n, or at k = 0 when n = 0
    prev, u, two_qk = (0, 1, two_q) if n else (-q, 0, 2)
    for bit in bin(n)[3:]:
        a, b = u * u, prev * prev
        lo, hi = a - q * b, c * a - b + two_qk  # U(2k-1), U(2k+1)
        mid = (hi + q * lo) // p if divide else u * (p * u - two_q * prev)  # U(2k)
        if bit == "1":
            prev, u, two_qk = mid, hi, two_q
        else:
            prev, u, two_qk = lo, mid, 2
        if modulus is not None:
            prev, u = prev % modulus, u % modulus
    u1 = p * u - q * prev
    return (u, u1) if modulus is None else (u % modulus, u1 % modulus)


def term(seq: Sequence, n: int) -> int:
    """Exact term of `seq` at index n.

    A family is U(n), or V(n)/s with V(n) = 2 U(n+1) - P U(n), for its Lucas
    sequence U = U(P, Q), whose Q is +-1, so negative indices follow from
    U(-k) = -Q^k U(k).
    """
    p, q = seq.p, seq.q
    if n >= 0:
        u, u1 = _lucas_u(p, q, n)
    else:
        u_prev, u_k = _lucas_u(p, q, -n - 1)  # U(k-1), U(k) for k = -n
        s = q if n % 2 else 1  # Q^k
        u, u1 = -s * u_k, -s * q * u_prev
    return u if seq.kind == "U" else (2 * u1 - p * u) // seq.s


@lru_cache(maxsize=None)
def _memo(seq: Sequence, n: int) -> int:
    """term(seq, n) for callers that revisit indices (convolution weights,
    identity grids, tail summands).  It keeps only the indices asked for."""
    return term(seq, n)


def values(seq: Sequence, start: int, stop: int) -> list[int]:
    """Terms for start <= n <= stop (inclusive) in one linear recurrence pass."""
    if start > stop:
        raise ValueError(f"empty range: start {start} > stop {stop}")
    p, q = seq.p, seq.q
    prev, cur = term(seq, start), term(seq, start + 1)
    out = [prev]
    for _ in range(stop - start):
        out.append(cur)
        prev, cur = cur, p * cur - q * prev
    return out


def pair_fast(n: int) -> tuple[int, int]:
    """(balancing, Lucas-balancing) pair at index n >= 0 in O(log n)
    multiplications: B(n) = U(n) and C(n) = U(n+1) - 3 U(n) for U = U(6, 1)."""
    if n < 0:
        raise ValueError(f"pair_fast requires n >= 0, got {n}")
    u, u1 = _lucas_u(6, 1, n)
    return u, u1 - 3 * u


def pair_mod(n: int, modulus: int) -> tuple[int, int]:
    """pair_fast(n) reduced mod `modulus` at every step."""
    if n < 0:
        raise ValueError(f"pair_mod requires n >= 0, got {n}")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    u, u1 = _lucas_u(6, 1, n, modulus)
    return u, (u1 - 3 * u) % modulus


def is_balancing(x: int) -> bool:
    """True iff x >= 1 occurs in the balancing sequence: 8x^2 + 1 is a perfect square."""
    if x < 1:
        raise ValueError(f"is_balancing requires x >= 1, got {x}")
    y = 8 * x * x + 1
    r = isqrt(y)
    return r * r == y
