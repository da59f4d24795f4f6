"""Integer linear-recurrence kernels: balancing, Lucas-balancing, Fibonacci,
Lucas, and generalized Fibonacci terms at arbitrary (including negative)
indices.  All five are Lucas sequences, so one fast-doubling routine gives
every term and the balancing pair, and one memo serves the modules that
revisit indices; the linear stream stays as the independent route."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import NamedTuple


class IndexedTerm(NamedTuple):
    n: int
    value: int


class Sequence(NamedTuple):
    """Two-term recurrence S(n) = mult*S(n-1) + add*S(n-2) with fixed seeds.

    Negative indices run the recurrence backwards: balancing terms reflect as
    -S(n), their companions as +S(n), Fibonacci and generalized Fibonacci as
    (-1)^(n+1) S(n), Lucas as (-1)^n S(n).
    """

    key: str
    mult: int
    add: int
    seed0: int
    seed1: int
    param: int | None = None

    def __str__(self) -> str:
        if self.key == "gen-fibonacci":
            return f"{self.key}({self.param})"
        return self.key


BALANCING = Sequence("balancing", 6, -1, 0, 1)
LUCAS_BALANCING = Sequence("lucas-balancing", 6, -1, 1, 3)
FIBONACCI = Sequence("fibonacci", 1, 1, 0, 1)
LUCAS = Sequence("lucas", 1, 1, 2, 1)


def gen_fibonacci(a: int) -> Sequence:
    """Sequence G(n) = a*G(n-1) + G(n-2), G(0)=0, G(1)=1, for integer a >= 1."""
    if a < 1:
        raise ValueError(f"gen-fibonacci parameter must be >= 1, got {a}")
    return Sequence("gen-fibonacci", a, 1, 0, 1, param=a)


def family(letter: str, a: int = 1) -> Sequence:
    """The family named by its letter: B, C, F, L, or G(a).  Only G takes a."""
    if letter == "G":
        return gen_fibonacci(a)
    families = {"B": BALANCING, "C": LUCAS_BALANCING, "F": FIBONACCI, "L": LUCAS}
    if letter not in families:
        raise ValueError(f"unknown family {letter!r} (expected B, C, F, L, or G)")
    if a != 1:
        raise ValueError(f"family {letter} takes no parameter a, got a={a}")
    return families[letter]


def _lucas_u(p: int, q: int, n: int, modulus: int | None = None) -> tuple[int, int]:
    """(U(n), U(n+1)) of the Lucas sequence U(P, Q) at n >= 0 in O(log n)
    multiplications, optionally reduced mod `modulus` after every step.

    Division-free doubling: U(2k) = U(k) (2 U(k+1) - P U(k)) and
    U(2k+1) = U(k+1)^2 - Q U(k)^2, which is one product when Q = 1; a set
    bit then steps once with U(m+2) = P U(m+1) - Q U(m).
    """
    u, u1 = 0, 1
    for bit in bin(n)[2:]:
        odd = (u1 - u) * (u1 + u) if q == 1 else u1 * u1 - q * u * u
        u, u1 = u * (2 * u1 - p * u), odd
        if bit == "1":
            u, u1 = u1, p * u1 - q * u
        if modulus is not None:
            u, u1 = u % modulus, u1 % modulus
    return u, u1


def _lucas_type(seq: Sequence) -> tuple[int, int, str]:
    """(P, Q, kind) of a family that is U(P, Q) itself (kind "U", seeds 0, 1)
    or V(P, Q)/s with s = 2/S(0) (kind "V"), where Q = -add is +-1 and
    D = P^2 - 4Q is positive and not a square."""
    p, q = seq.mult, -seq.add
    if (seq.seed0, seq.seed1) == (0, 1):
        kind = "U"
    elif seq.seed0 in (1, 2) and 2 * seq.seed1 == p * seq.seed0:
        kind = "V"
    else:
        raise ValueError(f"{seq} is neither U(P, Q) nor V(P, Q)/s")
    disc = p * p - 4 * q
    if q not in (1, -1) or disc <= 0 or isqrt(disc) ** 2 == disc:
        raise ValueError(f"{seq} needs Q = +-1 and a positive non-square P^2 - 4Q")
    return p, q, kind


def term(seq: Sequence, n: int) -> int:
    """Exact term of `seq` at index n.

    Every family is S(n) = S(0) U(n+1) + (S(1) - mult S(0)) U(n) for the
    Lucas sequence U = U(mult, -add), whose Q = -add is +-1, so negative
    indices follow from U(-k) = -Q^k U(k).
    """
    p, q = seq.mult, -seq.add
    if n >= 0:
        u, u1 = _lucas_u(p, q, n)
    else:
        u_prev, u_k = _lucas_u(p, q, -n - 1)  # U(k-1), U(k) for k = -n
        s = q if n % 2 else 1  # Q^k
        u, u1 = -s * u_k, -s * q * u_prev
    return seq.seed0 * u1 + (seq.seed1 - p * seq.seed0) * u


@lru_cache(maxsize=None)
def _memo(seq: Sequence, n: int) -> int:
    """term(seq, n) for callers that revisit indices (convolution weights,
    identity grids, tail summands).  It keeps only the indices asked for."""
    return term(seq, n)


def stream(seq: Sequence, start: int, stop: int) -> list[IndexedTerm]:
    """Terms for start <= n <= stop (inclusive) in one linear recurrence pass."""
    if start > stop:
        raise ValueError(f"empty range: start {start} > stop {stop}")
    prev, cur = term(seq, start), term(seq, start + 1)
    out = [IndexedTerm(start, prev)]
    for n in range(start + 1, stop + 1):
        out.append(IndexedTerm(n, cur))
        prev, cur = cur, seq.mult * cur + seq.add * prev
    return out


def values(seq: Sequence, start: int, stop: int) -> list[int]:
    """Bare values of stream(), for callers that index arithmetically."""
    return [t.value for t in stream(seq, start, stop)]


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
