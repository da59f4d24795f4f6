"""Convolution sums of strided subsequences, evaluated two independent ways.

brute_conv sums the n+1 products directly.  The closed forms rewrite the sum
through the derivative of the subsequence generating function.  Every family
is a Lucas sequence U(P, Q) or V(P, Q)/s with Q = +-1, and one weight formula
in (P, Q) serves them all: conjugate-pair expressions over Q(sqrt d)(i),
Q(sqrt d) or plain rationals, d the squarefree part of D = P^2 - 4Q, whose
irrational and imaginary parts must cancel identically.
Both conjugate powers are computed independently (no conjugation shortcut), so
the final certified extraction doubles as a self-check of the whole evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .quadfield import GaussQuad, QuadRat, _parts, certified_int
from .sequences import BALANCING, Sequence, _lucas_type, _lucas_u, _memo


def _validate(k: int, r: int, n: int) -> None:
    if not k > r >= 0:
        raise ValueError(f"need k > r >= 0, got k={k}, r={r}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")


def brute_conv(seq: Sequence, k: int, r: int, n: int) -> int:
    """sum over m = 0..n of term(k*m + r) * term(k*(n-m) + r)."""
    _validate(k, r, n)
    sub = [_memo(seq, k * m + r) for m in range(n + 1)]
    return sum(sub[m] * sub[n - m] for m in range(n + 1))


# -- inner weights -----------------------------------------------------------
#
# Weight w(j) multiplies (n - j + 1) * term(k*(n-j+1) + r) inside each closed
# form; it depends on (family, k, r, j) only, so each (family, k, r) keeps one
# row of weights, and powers of the conjugate bases are built incrementally and
# shared across every n of a sweep.


def _pow(base, j: int):
    """base**j for any integer j, one cached step from base**(j -+ 1).  Equal
    values from different fields hash alike (Fraction(1) == GaussQuad.of(1, 0, 5)),
    so the key holds the type and radicand too, or call order picks the field.
    The key is plain integers, so a lookup hashes no Fraction."""
    numerators, denominator = _parts(base)
    return _field_pow((type(base), getattr(base, "d", None), numerators, denominator), base, j)


_POWERS: dict = {}


def _field_pow(key: tuple, base, j: int):
    power = _POWERS.get((key, j))
    if power is None:
        if -1 <= j <= 1:
            power = base ** j
        else:
            step = 1 if j > 0 else -1
            power = _field_pow(key, base, j - step) * _field_pow(key, base, step)
        _POWERS[key, j] = power
    return power


@lru_cache(maxsize=None)
def _row(seq: Sequence, k: int, r: int) -> tuple:
    """(subtract, half, plus, minus, rot, weights) of one family, k and r.

    With a = U(k) for U-type families and a = sqrt(D) U(k)/s for V-type ones,
    w(j) = a/2 * rot^j * ((-1)^j plus^(-j-1) + minus^(-j-1)) over the bases
    a +- S(r) and rot = +-Q^r S(k-r) (+ for U-type, - for V-type).  Where the
    weighted sum is subtracted (Q^(k-r) = -1 for U-type, +1 for V-type), S(r)
    and rot carry a factor i.  closed_form_raw extends the weights as n grows.
    """
    p, q, kind = _lucas_type(seq)
    disc = p * p - 4 * q
    f = max(f for f in range(1, isqrt(disc) + 1) if disc % (f * f) == 0)
    d = disc // (f * f)  # the squarefree radicand
    uk, sr, skr = _lucas_u(p, q, k)[0], _memo(seq, r), _memo(seq, k - r)
    sign = 1 if kind == "U" else -1
    subtract = q ** (k - r) == -sign
    a = Fraction(uk) if kind == "U" else QuadRat.of(0, Fraction(f * uk * seq.seed0, 2), d)
    rot = Fraction(sign * q ** r * skr)
    if subtract:
        sr, rot = GaussQuad.of(0, sr, d), GaussQuad.of(0, rot, d)
    return subtract, a / 2, a + sr, a - sr, rot, []


def closed_form_raw(seq: Sequence, k: int, r: int, n: int):
    """The closed-form total before rationality extraction: a Fraction,
    QuadRat, or GaussQuad whose irrational parts must vanish identically."""
    _validate(k, r, n)
    subtract, half, plus, minus, rot, weights = _row(seq, k, r)
    for j in range(len(weights), n + 1):
        weights.append(_pow(rot, j) * half * ((-1) ** j * _pow(plus, -j - 1) + _pow(minus, -j - 1)))
    edge = (n + 1) * _memo(seq, k * (n + 1) + r)
    inner = sum(
        weights[j] * ((n - j + 1) * _memo(seq, k * (n - j + 1) + r))
        for j in range(n + 1)
    )
    outer = _memo(seq, k - r)
    if subtract:
        return outer * (edge - inner)
    return outer * (-edge + inner)


def conv_closed(seq: Sequence, k: int, r: int, n: int) -> int:
    """Closed-form convolution value, certified free of irrational residue."""
    return certified_int(closed_form_raw(seq, k, r, n))


def conv_balancing_r0(k: int, n: int) -> int:
    """Simplified r = 0 balancing form:
    B(k) * sum over l = 1..floor((n+1)/2) of (n - 2l + 1) B(k(n - 2l + 1))."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    total = sum(
        (n - 2 * l + 1) * _memo(BALANCING, k * (n - 2 * l + 1))
        for l in range(1, (n + 1) // 2 + 1)
    )
    return _memo(BALANCING, k) * total
