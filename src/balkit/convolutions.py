"""Convolution sums of strided subsequences, evaluated two independent ways.

brute_conv sums the n+1 products directly.  The closed forms rewrite the sum
through the derivative of the subsequence generating function.  Every family
is a Lucas sequence U(P, Q) or V(P, Q)/s with Q = +-1, and one formula in
(P, Q) serves them all: a sum weighted by two conjugate geometric series over
Q(sqrt d)(i), Q(sqrt d) or plain rationals, d the squarefree part of
D = P^2 - 4Q, whose irrational and imaginary parts must cancel identically.
The two conjugate ratios are computed independently (no conjugation shortcut),
so the final certified extraction doubles as a self-check of the evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .quadfield import GaussQuad, QuadRat, certified_int
from .sequences import BALANCING, Sequence, _memo


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


# -- weighted sums -----------------------------------------------------------
#
# The sum over j = 0..n of w(j) * g(n + 1 - j), g(m) = m * term(k*m + r),
# with w(j) = A*l1^j + B*l2^j, is A*h1(n) + B*h2(n) for the running sums
# h_i(n) = l_i * h_i(n - 1) + g(n + 1), h_i(-1) = 0.  Each (family, k, r) keeps
# its latest sums and extends them as n grows, so a row up to n costs O(n) time
# and holds one pair; an earlier n restarts the row from h_i(-1).


@lru_cache(maxsize=None)
def _row(seq: Sequence, k: int, r: int) -> tuple:
    """(tau, A, l1, B, l2, last) of one family, k and r.

    tau = +-Q^(k-r) and rot = +-Q^r S(k-r), + for U-type families and - for
    V-type ones.  With a = U(k) for U-type and sqrt(D) U(k)/s for V-type, and
    plus, minus = a +- S(r): A = a/2/plus, l1 = -rot/plus, B = a/2/minus and
    l2 = rot/minus, where S(r) and rot carry a factor i if tau = -1.  last is
    [n + 1, h1(n), h2(n)] for the latest n evaluated.
    """
    q, (f, d) = seq.q, seq.radicand
    uk, sr, skr = _memo(Sequence("u", seq.p, q, "U", 1), k), _memo(seq, r), _memo(seq, k - r)
    sign = 1 if seq.kind == "U" else -1
    tau = sign * q ** (k - r)
    a = Fraction(uk) if sign == 1 else QuadRat.of(0, Fraction(f * uk, seq.s), d)
    rot = sign * q ** r * skr
    if tau == -1:
        sr, rot = GaussQuad.of(0, sr, d), GaussQuad.of(0, rot, d)
    half, plus, minus = a / 2, a + sr, a - sr
    return tau, half / plus, -rot / plus, half / minus, rot / minus, [0, 0, 0]


def closed_form_raw(seq: Sequence, k: int, r: int, n: int):
    """tau S(k-r) (A h1(n) + B h2(n) - (n+1) S(k(n+1) + r)) before rationality
    extraction: a Fraction, QuadRat or GaussQuad whose irrational parts must vanish."""
    _validate(k, r, n)
    tau, a1, l1, a2, l2, last = _row(seq, k, r)
    m, h1, h2 = last if last[0] <= n + 1 else (0, 0, 0)
    for m in range(m + 1, n + 2):
        g = m * _memo(seq, k * m + r)
        h1, h2 = l1 * h1 + g, l2 * h2 + g
    last[:] = n + 1, h1, h2
    edge = (n + 1) * _memo(seq, k * (n + 1) + r)
    return tau * _memo(seq, k - r) * (a1 * h1 + a2 * h2 - edge)


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
