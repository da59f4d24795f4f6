"""Convolution sums of strided subsequences, evaluated two independent ways.

brute_conv sums the n+1 products directly.  The closed forms rewrite the sum
through the derivative of the subsequence generating function; their inner
weights are conjugate-pair expressions over Q(sqrt 2)(i), Q(sqrt 5)(i), or
plain rationals, whose irrational and imaginary parts must cancel identically.
Both conjugate powers are computed independently (no conjugation shortcut), so
the final certified extraction doubles as a self-check of the whole evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .quadfield import GaussQuad, QuadRat, certified_int
from .sequences import BALANCING, FIBONACCI, LUCAS, LUCAS_BALANCING, Sequence, _memo


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
# form; it depends on (family, k, r, j) only, so powers of the conjugate bases
# are built incrementally and shared across every n of a sweep.


def _pow(base, j: int):
    """base**j for any integer j, one cached step from base**(j -+ 1).  Equal
    values from different fields hash alike (Fraction(1) == GaussQuad.of(1, 0, 5)),
    so the key holds the type and radicand too, or call order picks the field."""
    return _field_pow(type(base), getattr(base, "d", None), base, j)


@lru_cache(maxsize=None)
def _field_pow(kind: type, d: int | None, base, j: int):
    if -1 <= j <= 1:
        return base ** j
    step = 1 if j > 0 else -1
    return _field_pow(kind, d, base, j - step) * _field_pow(kind, d, base, step)


@lru_cache(maxsize=None)
def _weight_balancing(k: int, r: int, j: int) -> Fraction:
    bk, br, bkr = _memo(BALANCING, k), _memo(BALANCING, r), _memo(BALANCING, k - r)
    plus = _pow(Fraction(bk + br), -j - 1)
    minus = _pow(Fraction(bk - br), -j - 1)
    return Fraction(bk * bkr ** j, 2) * ((-1) ** j * plus + minus)


@lru_cache(maxsize=None)
def _weight_lucas_balancing(k: int, r: int, j: int) -> GaussQuad:
    bk = _memo(BALANCING, k)
    cr, ckr = _memo(LUCAS_BALANCING, r), _memo(LUCAS_BALANCING, k - r)
    x = QuadRat.of(0, 2 * bk, 2)  # 2 sqrt(2) B(k)
    plus = _pow(GaussQuad.of(x, cr), -j - 1)
    minus = _pow(GaussQuad.of(x, -cr), -j - 1)
    rot = _pow(GaussQuad.of(0, ckr, 2), j)  # (C(k-r) i)^j
    return rot * x * Fraction(1, 2) * (plus + (-1) ** j * minus)


@lru_cache(maxsize=None)
def _weight_fibonacci(k: int, r: int, j: int):
    fk, fr, fkr = _memo(FIBONACCI, k), _memo(FIBONACCI, r), _memo(FIBONACCI, k - r)
    sign = (-1) ** (k * j)
    if (k - r) % 2 == 0:
        plus = _pow(Fraction(fk + fr), -j - 1)
        minus = _pow(Fraction(fk - fr), -j - 1)
        return sign * Fraction(fk * fkr ** j, 2) * ((-1) ** j * plus + minus)
    plus = _pow(GaussQuad.of(fk, fr, 5), -j - 1)
    minus = _pow(GaussQuad.of(fk, -fr, 5), -j - 1)
    rot = _pow(GaussQuad.of(0, fkr, 5), j)  # (F(k-r) i)^j
    return rot * Fraction(sign * fk, 2) * (plus + (-1) ** j * minus)


@lru_cache(maxsize=None)
def _weight_lucas(k: int, r: int, j: int):
    fk = _memo(FIBONACCI, k)
    lr, lkr = _memo(LUCAS, r), _memo(LUCAS, k - r)
    sign = (-1) ** ((r + 1) * j)
    x = QuadRat.of(0, fk, 5)  # sqrt(5) F(k)
    if (k - r) % 2 == 0:
        plus = _pow(GaussQuad.of(x, lr), -j - 1)
        minus = _pow(GaussQuad.of(x, -lr), -j - 1)
        rot = _pow(GaussQuad.of(0, lkr, 5), j)  # (L(k-r) i)^j
        return rot * x * Fraction(sign, 2) * ((-1) ** j * plus + minus)
    plus = _pow(x + lr, -j - 1)
    minus = _pow(x - lr, -j - 1)
    return x * Fraction(sign * lkr ** j, 2) * ((-1) ** j * plus + minus)


_WEIGHTS = {
    "balancing": _weight_balancing,
    "lucas-balancing": _weight_lucas_balancing,
    "fibonacci": _weight_fibonacci,
    "lucas": _weight_lucas,
}

# Families whose weighted sum is subtracted from +(n+1)*term(k(n+1)+r) rather
# than added to its negative; Fibonacci dispatches on the parity of k - r.
def _subtract_form(key: str, k: int, r: int) -> bool:
    if key == "lucas-balancing":
        return True
    odd = (k - r) % 2 == 1
    if key == "fibonacci":
        return odd
    if key == "lucas":
        return not odd
    return False


def closed_form_raw(seq: Sequence, k: int, r: int, n: int):
    """The closed-form total before rationality extraction: a Fraction,
    QuadRat, or GaussQuad whose irrational parts must vanish identically."""
    _validate(k, r, n)
    if seq.key not in _WEIGHTS:
        raise ValueError(f"no convolution closed form for {seq}")
    weight = _WEIGHTS[seq.key]
    edge = (n + 1) * _memo(seq, k * (n + 1) + r)
    inner = sum(
        weight(k, r, j) * ((n - j + 1) * _memo(seq, k * (n - j + 1) + r))
        for j in range(n + 1)
    )
    outer = _memo(seq, k - r)
    if _subtract_form(seq.key, k, r):
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
