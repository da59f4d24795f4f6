"""Executable instance checks for the balancing-number identity catalog.

Every checker evaluates both sides of its identity in exact integer
arithmetic over caller-supplied parameters and returns a Verdict; a failing
Verdict carries the first counterexample as (label, lhs, rhs).
"""

from __future__ import annotations

from functools import partial
from math import comb, gcd, isqrt
from typing import NamedTuple

from .sequences import BALANCING, LUCAS_BALANCING, _memo, pair_mod


class Verdict(NamedTuple):
    witness: tuple | None = None  # the first failed equality (label, lhs, rhs), if any

    # A plain one-field tuple is always truthy; a Verdict is as true as it holds.
    def __bool__(self) -> bool:
        return self.witness is None
    holds = property(__bool__)


_PASS = Verdict()


def _verdict(equalities) -> Verdict:
    """Fold (label, lhs, rhs) equalities into the first that fails, or the shared pass."""
    for label, lhs, rhs in equalities:
        if lhs != rhs:
            return Verdict((label, lhs, rhs))
    return _PASS


# B(n) and C(n) of the docstrings, read through the shared term memo.
B = partial(_memo, BALANCING)
C = partial(_memo, LUCAS_BALANCING)


def check_catalan(n: int, r: int) -> Verdict:
    """B(n-r)B(n+r) = B(n)^2 - B(r)^2 and C(n-r)C(n+r) = C(n)^2 + C(r)^2 - 1."""
    if not n >= r >= 0:
        raise ValueError(f"need n >= r >= 0, got n={n}, r={r}")
    return _verdict([
        ("B", B(n - r) * B(n + r), B(n) ** 2 - B(r) ** 2),
        ("C", C(n - r) * C(n + r), C(n) ** 2 + C(r) ** 2 - 1),
    ])


def check_odd_index_sum(n: int) -> Verdict:
    """B(1) + B(3) + ... + B(2n-1) = B(n)^2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = sum(B(2 * i - 1) for i in range(1, n + 1))
    return _verdict([("sum", total, B(n) ** 2)])


def check_shifted_product(a: int, b: int) -> Verdict:
    """B(a+b+1) = B(a+1)B(b+1) - B(a)B(b)."""
    if a < 0 or b < 0:
        raise ValueError(f"need a, b >= 0, got a={a}, b={b}")
    return _verdict([("B", B(a + b + 1), B(a + 1) * B(b + 1) - B(a) * B(b))])


def check_addition(m: int, n: int) -> Verdict:
    """All four index addition/subtraction laws:
    B(n±m) = B(n)C(m) ± B(m)C(n), C(n±m) = C(n)C(m) ± 8 B(m)B(n)."""
    if not n >= m >= 0:
        raise ValueError(f"need n >= m >= 0, got m={m}, n={n}")
    bm, bn, cm, cn = B(m), B(n), C(m), C(n)
    return _verdict([
        ("B+", B(n + m), bn * cm + bm * cn),
        ("B-", B(n - m), bn * cm - bm * cn),
        ("C+", C(n + m), cn * cm + 8 * bm * bn),
        ("C-", C(n - m), cn * cm - 8 * bm * bn),
    ])


def check_combination(m: int, n: int) -> Verdict:
    """Case-split double-product laws: B(n+m) - 2 B(n)C(m) is -B(n-m) when
    n >= m and +B(m-n) otherwise; C(n+m) - 2 C(n)C(m) = -C(|n-m|)."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    b_rhs = -B(n - m) if n >= m else B(m - n)
    return _verdict([
        ("B", B(n + m) - 2 * B(n) * C(m), b_rhs),
        ("C", C(n + m) - 2 * C(n) * C(m), -C(abs(n - m))),
    ])


def check_gcd(m: int, n: int) -> Verdict:
    """gcd(B(m), B(n)) = B(gcd(m, n))."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    return _verdict([("gcd", gcd(B(m), B(n)), B(gcd(m, n)))])


PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to the first 13 prime bases


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the first 13 prime bases are exact below PSI_13 (3.3e24)."""
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % a == 0:  # trial division by each base also settles every n <= 41
            return n == a
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    try:  # a limit past the address space fails here, before any memory is touched
        sieve = bytearray([1]) * (limit + 1)
    except (OverflowError, MemoryError):
        raise ValueError(f"cannot allocate a sieve up to {limit}") from None
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray((limit - p * p) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def kronecker_p8(p: int) -> int:
    """The mod-8 quadratic character of an odd prime: +1 when p = +-1 (mod 8),
    -1 when p = +-3 (mod 8).  Primes are known only below PSI_13, where
    is_prime is exact."""
    if p >= PSI_13:
        raise ValueError(f"primality is decided only below {PSI_13}, got {p}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return 1 if p % 8 in (1, 7) else -1


def check_prime_congruences(p: int) -> Verdict:
    """C(p) = 3 (mod p) and B(p) = kronecker_p8(p) (mod p) for odd primes."""
    sign = kronecker_p8(p)
    bp, cp = pair_mod(p, p)
    return _verdict([("C", cp % p, 3 % p), ("B", bp % p, sign % p)])


def check_mod_companion(m: int) -> Verdict:
    """B(2m) = 0 and B(2m-1) = 1 modulo the companion term C(m)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    cm = C(m)
    return _verdict([("B2m", B(2 * m) % cm, 0), ("B2m-1", B(2 * m - 1) % cm, 1 % cm)])


def check_binomial_3pow(n: int) -> Verdict:
    """Parity-cased binomial transforms with weight (-1)^(n-k) 3^k:
    the B-weighted sum gives 2^(3n/2) B(n) (n even) or 2^(3(n-1)/2) C(n)
    (n odd); the C-weighted sum gives 2^(3n/2) C(n) or 2^(3(n+1)/2) B(n)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    sb = sum(comb(n, k) * (-1) ** (n - k) * 3 ** k * B(k) for k in range(n + 1))
    sc = sum(comb(n, k) * (-1) ** (n - k) * 3 ** k * C(k) for k in range(n + 1))
    if n % 2 == 0:
        rb = 2 ** (3 * n // 2) * B(n)
        rc = 2 ** (3 * n // 2) * C(n)
    else:
        rb = 2 ** (3 * (n - 1) // 2) * C(n)
        rc = 2 ** (3 * (n + 1) // 2) * B(n)
    return _verdict([("B", sb, rb), ("C", sc, rc)])


def check_binomial_plain(n: int) -> Verdict:
    """Row-2n binomial sums: plain weights give 8^n B(n) / 8^n C(n),
    alternating weights give 4^n B(n) / 4^n C(n)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    eqs = []
    for label, f in (("B", B), ("C", C)):
        plain = sum(comb(2 * n, k) * f(k) for k in range(2 * n + 1))
        alt = sum(comb(2 * n, k) * (-1) ** k * f(k) for k in range(2 * n + 1))
        eqs.append((label + "+", plain, 8 ** n * f(n)))
        eqs.append((label + "-", alt, 4 ** n * f(n)))
    return _verdict(eqs)


def check_second_order_product(n: int) -> Verdict:
    """B(n)B(n-4) - B(n-1)B(n-3) = -35 for n >= 4."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    return _verdict([("B", B(n) * B(n - 4) - B(n - 1) * B(n - 3), -35)])
