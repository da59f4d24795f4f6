"""Integer linear-recurrence kernels: balancing, Lucas-balancing, Fibonacci,
Lucas, and generalized Fibonacci terms at arbitrary (including negative)
indices.  Each is a Lucas record (P, Q, kind, s), so one fast-doubling routine
gives every term and the balancing pair, and one memo serves the modules that
revisit indices; the linear pass in `values` stays as the independent route.
Only `term`, and `pair_fast` and `pair_mod` for C = U(n+1) - 3 U(n), turn U
into V; other modules read U(k) or V(k) of a (P, Q) through the records
U(P, Q) and V(P, Q), never through the kernel itself.

The doubling step costs two squarings per bit.  Cassini's identity
U(k+1) U(k-1) - U(k)^2 = -Q^(k-1) turns the cross product U(k) U(k-1) into
squares, so U(2k-1) and U(2k+1) follow from U(k)^2 and U(k-1)^2 alone, and
U(2k) from the recurrence U(2k+1) = P U(2k) - Q U(2k-1), a division by P
that is exact because the recurrence holds in the integers.

At large indices nearly all of the time goes to those squarings, which
CPython does by Karatsuba.  From `_TOOM` bits up the kernel squares by
Toom-3 in `_square`, five squarings of a third of the size where Karatsuba
recursion does nine; the result is the same integer.  The Binet route of
`quadfield` keeps the builtin product.

The kernel keeps one ladder, its last: the expansion
(U(2k-1), U(2k), U(2k+1)) of each parent k it doubled, about six times the
size of its result.  The next call of the same (P, Q) and bit length reads
the levels whose parents it shares and doubles only the rest, so the
sibling indices 2m and 2m + 1 cost one doubling between them and consecutive
indices share all but a few levels.  What is kept was made by doubling steps,
never by the recurrence of `values`, which stays the independent route.

`pair_mod` runs a ladder of its own, on residues of U(6, 1), and keeps
nothing: it shares no code with `pair_fast`, so each checks the other."""

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


# The bit length from which `_square` splits its operand: below it CPython's
# own product is as fast (Python 3.11, BENCH_toom_square.json).
_TOOM = 20_000


def _square(x: int) -> int:
    """x * x, by Toom-3 from `_TOOM` bits up: |x| = x2 B^2 + x1 B + x0 with
    B = 2^k and k = ceil(bits / 3), the limb polynomial squared at 0, 1, -1,
    -2 and infinity (each through `_square`), and its five coefficients
    interpolated by Bodrato's sequence: one exact division by 3, two exact
    halvings, adds and shifts."""
    x = abs(x)
    if x.bit_length() < _TOOM:
        return x * x
    k = (x.bit_length() + 2) // 3
    mask = (1 << k) - 1
    x0, x1, x2 = x & mask, (x >> k) & mask, x >> 2 * k
    p = x0 + x2
    vm1 = p - x1
    r0, r1, rm1, r4 = _square(x0), _square(p + x1), _square(vm1), _square(x2)
    rm2 = _square(((vm1 + x2) << 1) - x0)  # the square at -2: x0 - 2 x1 + 4 x2
    r3 = (rm2 - r1) // 3
    r1 = (r1 - rm1) >> 1
    r2 = rm1 - r0
    r3 = ((r2 - r3) >> 1) + 2 * r4
    r2 += r1 - r4
    r1 -= r3
    return r0 + (r1 << k) + (r2 << 2 * k) + (r3 << 3 * k) + (r4 << 4 * k)


# The last exact ladder, at most one ((P, Q), n, levels): levels[j] is the
# expansion E(k) = (U(2k-1), U(2k), U(2k+1)) of the parent k = n >> (b - 1 - j)
# that level j of n's ladder doubles, b the bit length of n.
_ladder: list = []


def _lucas_u(p: int, q: int, n: int) -> tuple[int, int]:
    """(U(n), U(n+1)) of the Lucas sequence U(P, Q) of a family, Q = +-1 and
    P != 0, at n >= 0 in two squarings per bit of n.

    The ladder holds (U(k-1), U(k)) from k = 1 (k = 0, with U(-1) = -Q, when
    n = 0) and reads a = U(k)^2 and b = U(k-1)^2.  Cassini's identity
    U(k+1) U(k-1) - a = -Q^(k-1) gives P U(k) U(k-1) = a + Q b - Q^(k-1),
    and with it
        U(2k-1) = a - Q b,
        U(2k+1) = U(k+1)^2 - Q a = (P^2 - 3Q) a - b + 2 Q^k,
        U(2k)   = (U(2k+1) + Q U(2k-1)) / P,
    the division exact because U(2k+1) = P U(2k) - Q U(2k-1) holds in the
    integers.  The child 2k takes (U(2k-1), U(2k)) and 2k+1 takes
    (U(2k), U(2k+1)).  At the end U(n+1) = P U(n) - Q U(n-1).

    It squares by Toom-3 (`_square`) once U(k) has `_TOOM` bits; the test
    sits in the ladder, so that smaller steps pay no extra call.

    It keeps its last ladder in `_ladder`: each level's expansion, at most
    bit_length(n) - 1 of them and about six times the size of U(n) in all,
    replaced by the next call.  A call of the same (P, Q) and bit length
    resumes it: its first bit_length(n) - bit_length(n ^ last) levels double
    the same parents, so it reads the last of those and doubles only the
    levels below, and n = 2m + 1 after n = 2m squares nothing.  Every value
    still comes from a doubling step, never from the recurrence of `values`,
    so the kernel stays a route independent of the linear pass.
    """
    if q not in (1, -1):
        raise ValueError(f"the term kernel needs Q = +-1, got Q = {q}")
    c, two_q = p * p - 3 * q, 2 * q
    levels, shared = [], 0
    if _ladder:
        key, last, levels = _ladder.pop()
        if key == (p, q) and last.bit_length() == n.bit_length():
            shared = min(len(levels), n.bit_length() - (n ^ last).bit_length())
        del levels[shared:]
    start = max(shared - 1, 0)
    # U(k-1), U(k), 2 Q^k at k = 1, the leading bit of n, or at k = 0 when n = 0
    prev, u, two_qk = (0, 1, two_q) if n else (-q, 0, 2)
    for j, bit in enumerate(bin(n)[3 + start:], start):
        if j < shared:  # the last level shared with the previous ladder
            lo, mid, hi = levels[j]
        else:
            a, b = (u * u, prev * prev) if u.bit_length() < _TOOM else (_square(u), _square(prev))
            lo, hi = a - q * b, c * a - b + two_qk  # U(2k-1), U(2k+1)
            mid = (hi + q * lo) // p  # U(2k)
            levels.append((lo, mid, hi))
        if bit == "1":
            prev, u, two_qk = mid, hi, two_q
        else:
            prev, u, two_qk = lo, mid, 2
    _ladder[:] = [((p, q), n, levels)]  # one record, even if a concurrent call left another
    return u, p * u - q * prev


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
    """pair_fast(n) mod `modulus`, by a ladder of its own over
    (U(k), U(k+1)) of U(6, 1), reduced mod m at every step:
        U(2k)   = U(k) (2 U(k+1) - 6 U(k)),
        U(2k+1) = (U(k+1) - U(k)) (U(k+1) + U(k)),
    two products of residues per bit.  The exact kernel's division by P has
    no counterpart here, since 6 may share a factor with m.  It keeps no
    state and shares no code with `pair_fast`, so each checks the other."""
    if n < 0:
        raise ValueError(f"pair_mod requires n >= 0, got {n}")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    u, u1 = 0, 1 % modulus  # U(0), U(1)
    for bit in bin(n)[2:]:
        u, u1 = u * (2 * u1 - 6 * u) % modulus, (u1 - u) * (u1 + u) % modulus
        if bit == "1":
            u, u1 = u1, (6 * u1 - u) % modulus
    return u, (u1 - 3 * u) % modulus


def is_balancing(x: int) -> bool:
    """True iff x >= 1 occurs in the balancing sequence: 8x^2 + 1 is a perfect square."""
    if x < 1:
        raise ValueError(f"is_balancing requires x >= 1, got {x}")
    y = 8 * x * x + 1
    r = isqrt(y)
    return r * r == y
