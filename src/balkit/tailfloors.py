"""Floors of reciprocal tail sums, closed-form and independently certified.

Each TailSpec names an infinite series: a reciprocal (or reciprocal-product,
or alternating) tail of the balancing family (B), its companion family (C),
or a generalized Fibonacci family (G, parameter a).  closed_floor evaluates
the known closed form for floor(1 / tail); verified_floor certifies the same
integer from scratch by enclosing the tail in exact rational intervals and
tightening until the reciprocal floor is pinned down, never guessing.

Every shape is one SHAPES row of data: summand k >= n is +-1 / d(k), d(k)
the product of S(L k + j + f) over the row's factors f, and every closed
form is the backbone d(n) -+ d(n-1) plus an offset derived from the family's
Lucas record (closed_floor, _offset): no row keeps a table.

The certification path, certify_floor, runs one enclosure, _enclose: the
partial sum plus exact bounds on the omitted remainder, from a two-sided
ratio interval.  With r(m) = S(m+1)/S(m), the cross identity
S(m-1)S(m+1) - S(m)^2 = kappa(m) gives r(m) - r(m-1) = kappa(m)/(S(m-1)S(m)),
so for every m >= M the ratio stays within s(M) = |kappa| / (S(M)S(M+1)) / (1 - g)
of r(M), where g bounds S(m-1)/S(m+1).  That pins consecutive remainder-term
ratios inside an interval [u_lo, u_hi] and the remainder inside exact
geometric bounds whose width shrinks like the square of the term size - tight
enough to separate every floor within a handful of terms even when the true
reciprocal hugs an integer boundary.  Should the interval reach 1, _enclose
raises rather than fall back to a looser bracket.

The enclosure's ends are unreduced integer numerator/denominator pairs:
certify_floor takes no gcd and builds no Fraction.  Each round makes one
enclosure at one scale: exact for a floor of F < 256 bits, else rounded
outward by shifts to about F + 64 bits, or 2F + 64 on one factor per summand.
It contains the exact one at the same terms, so a floor it decides is the
exact floor, while the ends carry a few times the floor's bits rather than 5
to 11; a round that does not decide doubles the terms.  One exact cross
product checks every enclosure, fresh or intersected, for order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from typing import NamedTuple

from .sequences import Sequence, _memo, family


class UndecidedIntervalError(ArithmeticError):
    """The term budget ran out before the interval pinned the floor down."""


class TailSpec(namedtuple("TailSpec", "family shape l a")):
    """family 'B' | 'C' | 'G', a shape key from SHAPES, stride l for the
    plain shape and parameter a for the G family, each 1 elsewhere.  The
    row's stride is multiplied by l: plain's summand k is 1 / S(l k)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace is checked too

    def __new__(cls, family: str, shape: str, l: int = 1, a: int = 1) -> TailSpec:
        if shape not in SHAPES:
            raise ValueError(f"unknown shape {shape!r}")
        if family not in SHAPES[shape].families:
            raise ValueError(f"shape {shape} does not belong to family {family}")
        if shape == "plain" and l < 1:
            raise ValueError(f"plain shape needs l >= 1, got {l}")
        if shape != "plain" and l != 1:
            raise ValueError(f"only the plain shape takes a stride l, got l={l} for {shape}")
        spec = super().__new__(cls, family, shape, l, a)
        spec.sequence()  # sequences.family rejects a < 1 for G and any a != 1 for B and C
        return spec

    def sequence(self) -> Sequence:
        return family(self.family, self.a)


# A row's summand k is +-1 / prod_f S(L k + j + f) over its factors f, L = l times
# the spec's l.  A row holds no per-family data: _offset derives every offset.
_Shape = namedtuple("_Shape", "families l j factors alternating")


SHAPES: dict[str, _Shape] = {
    "plain": _Shape(("B", "C"), 1, 0, (0,), False),
    "alt": _Shape(("B", "C"), 1, 0, (0,), True),
    "alt_sq": _Shape(("B", "C"), 1, 0, (0, 0), True),
    "alt_even_idx": _Shape(("B", "C"), 2, 0, (0,), True),
    "alt_odd_idx": _Shape(("B", "C"), 2, 1, (0,), True),
    "alt_consec_prod": _Shape(("B", "C"), 1, 0, (0, 1), True),
    "alt_even_sq": _Shape(("B", "C"), 2, 0, (0, 0), True),
    "alt_odd_sq": _Shape(("B", "C"), 2, -1, (0, 0), True),
    "alt_oddprod": _Shape(("B", "C"), 2, 0, (-1, 1), True),
    "alt_evenprod": _Shape(("B", "C"), 2, 1, (-1, 1), True),
    "gf_plain": _Shape(("G",), 1, 0, (0,), False),
    "gf_sq": _Shape(("G",), 1, 0, (0, 0), False),
    "gf_even_idx": _Shape(("G",), 2, 0, (0,), False),
    "gf_odd_idx": _Shape(("G",), 2, -1, (0,), False),
}


def threshold(spec: TailSpec) -> int:
    """The smallest n >= 1 at which the backbone's lower index L(n-1) + j is not negative."""
    row = SHAPES[spec.shape]
    return 1 - row.j // (row.l * spec.l) if row.j < 0 else 1


def _require_valid_n(spec: TailSpec, n: int) -> None:
    t = threshold(spec)
    if n < t:
        raise ValueError(f"{spec.family}/{spec.shape} needs n >= {t}, got {n}")


# -- closed forms -------------------------------------------------------------

def _offset(spec: TailSpec, S: Sequence, n: int) -> int:
    """The closed form's offset at n, S = spec.sequence() of Lucas type
    (P, Q, kind).  One index, or Q = -1 (gf_sq), takes the rule: delta is 1
    when Q = -1 and L(n-1) + j is odd, else 0, eta is delta for U-type and
    1 - delta for V-type families, and a positive tail adds eta - 1, an
    alternating one n % 2 - eta.  The six two-factor rows with Q = 1, all
    alternating, take one Binet limit: with gap t between the factors,
    kappa = S(0)S(2) - S(1)^2 and U, V of (P, 1), (-1)^n / tail less the
    backbone tends to -kappa V(t) U(L)^2 / V(2L), and the offset is n % 2
    plus its floor.  For B and C the quotients are 1/17 and -8/17 (alt_sq),
    3/17 and -24/17 (alt_consec_prod), 36/577 and -288/577 (the even and odd
    squares), 612/577 and -4896/577 (the symmetric products): no integer."""
    row, q, kind = SHAPES[spec.shape], S.q, S.kind
    if len(row.factors) == 1 or q == -1:
        delta = (row.l * spec.l * (n - 1) + row.j) % 2 if q == -1 else 0
        eta = delta if kind == "U" else 1 - delta
        return n % 2 - eta if row.alternating else eta - 1
    kappa = _memo(S, 0) * _memo(S, 2) - _memo(S, 1) ** 2
    L, t = row.l * spec.l, row.factors[1] - row.factors[0]
    U, V = Sequence("u", S.p, 1, "U", 1), Sequence("v", S.p, 1, "V", 1)
    return n % 2 + (-kappa * _memo(V, t) * _memo(U, L) ** 2) // _memo(V, 2 * L)


def closed_floor(spec: TailSpec, n: int) -> int:
    """floor(1 / tail(spec, n)), toward -infinity, from the backbone d(n) -+ d(n-1)."""
    _require_valid_n(spec, n)
    row, S = SHAPES[spec.shape], spec.sequence()
    L = row.l * spec.l
    i, d0, d1 = L * (n - 1) + row.j, 1, 1
    for f in row.factors:  # d0 = d(n - 1), d1 = d(n)
        d0, d1 = d0 * _memo(S, i + f), d1 * _memo(S, i + L + f)
    x = d1 + (d0 if row.alternating else -d0) + _offset(spec, S, n)
    return -x if row.alternating and n % 2 else x


# -- enclosures ----------------------------------------------------------------

def _growth(seq: Sequence) -> tuple[int, int]:
    """(num, den): num/den bounds S(m+1)/S(m) below, so (num/den)^steps bounds
    the ratio of summands whose factors advance `steps` indices.  With the
    family's (P, Q), from m = 2 on: for Q = 1 the terms increase, so
    S(m+1) = P S(m) - S(m-1) >= (P - 1) S(m); for Q = -1,
    S(m+1) = P S(m) + S(m-1) and S(m) <= (P + 1) S(m-1) give
    (P + 1) S(m+1) >= (P^2 + P + 1) S(m).
    """
    p, q = seq.p, seq.q
    return (p - 1, 1) if q == 1 else (p * p + p + 1, p + 1)


def _shift(v: int, t: int, up: bool) -> int:
    """v / 2^t rounded down, or up."""
    return -(-v >> t) if up else v >> t


def _round(x: int, y: int, bits: int | None, up: bool) -> tuple[int, int]:
    """x/y (y > 0) cut to about `bits` bits by one right shift of both, rounded
    down or up so that the new quotient bounds the old one; exact when bits is None."""
    t = 0 if bits is None else min(abs(x).bit_length(), y.bit_length()) - bits
    if t <= 0:
        return x, y
    x = _shift(x, t, up)
    # A larger denominator moves x/y toward 0: down when x >= 0, up when x < 0.
    return x, _shift(y, t, (x < 0) == up)


def _power(x: int, y: int, k: int, bits: int | None, up: bool) -> tuple[int, int]:
    """(x/y)^k for x, y > 0 and k >= 1 by squaring, rounded as _round rounds
    after every product."""
    x, y = p = _round(x, y, bits, up)
    for bit in bin(k)[3:]:
        p = _round(p[0] * p[0], p[1] * p[1], bits, up)
        if bit == "1":
            p = _round(p[0] * x, p[1] * y, bits, up)
    return p


def _enclose(spec: TailSpec, n: int, terms: int, scale: int | None = None) -> tuple[int, int, int, int]:
    """tail(spec, n) in [lo_num / lo_den, hi_num / hi_den] from `terms` >= 1
    summands, n checked by the caller: the partial sum plus the ratio
    interval's remainder bounds.  With s0 = S(M), s1 = S(M+1) and g = gn/gd,
    S(m+1)/S(m) lies in [A-, A+] / Bq for m >= M, Bq = (gd - gn) s0 s1,
    A-+ = (gd - gn) s1^2 -+ kappa gd, so consecutive remainder terms have ratio
    in [Bq^s / A+^s, Bq^s / A-^s].  Raises ArithmeticError if A- <= Bq, when
    that interval reaches 1 and bounds no remainder.

    Given a scale, the ratio interval, the remainder bounds and the ends are
    rounded outward to about scale * F + 64 bits, F the floor's bit length as D
    and the partial sum estimate it: the result then contains the exact one."""
    seq, row = spec.sequence(), SHAPES[spec.shape]
    S, L = partial(_memo, seq), row.l * spec.l
    start, steps = L * n + row.j, L * len(row.factors)  # summands advance `steps` indices
    idxs = list(zip(*[range(start + f, start + f + L * (terms + 1), L) for f in row.factors]))
    # Every summand is a product of distinct indices, or of one index p times,
    # so the k-th summand is +-nums[k] / D over D = (the product over every index)^p.
    p, every = idxs[0].count(idxs[0][0]), sorted(set().union(*idxs))
    D = math.prod(map(S, every)) ** p
    nums = [math.prod(S(i) for i in every if i not in ix) ** p for ix in idxs]
    total = sum(-x if row.alternating and k % 2 else x for k, x in enumerate(nums[:terms], n))
    # Rounded, everything is in units of 2^cut / D, with cut such that total keeps `bits` bits.
    bits = None if scale is None else scale * (D.bit_length() - abs(total).bit_length()) + 64
    cut = 0 if bits is None else max(0, abs(total).bit_length() - bits)
    N = [_shift(nums[terms], cut, up) for up in (False, True)]  # rounded down and up
    bn, bd = _growth(seq)
    M = min(idxs[terms])
    s0, s1, gn, gd = S(M), S(M + 1), bd * bd, bn * bn
    bq = (gd - gn) * s0 * s1
    kappa = abs(S(0) * S(2) - S(1) ** 2)  # = |S(m-1)S(m+1) - S(m)^2| for every m, as Q = +-1
    am, ap = ((gd - gn) * s1 * s1 + e * kappa * gd for e in (-1, 1))
    if am <= bq:
        raise ArithmeticError(f"ratio interval reaches 1 at {spec}, n={n}")
    # The ratio interval [a/b, c/d]: (bq/ap)^steps rounded down, (bq/am)^steps up.
    (a, b), (c, d) = _power(bq, ap, steps, bits, False), _power(bq, am, steps, bits, True)
    if row.alternating:
        # R/mag lies in the nested fixed interval of y -> 1 - u*y.
        w = b * d - a * c
        (a, b), (c, d) = _round((d - c) * b, w, bits, False), _round((b - a) * d, w, bits, True)
    else:  # R/mag lies in [1/(1 - a/b), 1/(1 - c/d)], and at most rho/(rho - rd)
        rho, rd = bn ** steps, bd ** steps
        (a, b), (c, d) = (b, b - a), (d, d - c)
        if rho * d <= c * (rho - rd):
            c, d = rho, rho - rd
    lo, hi = _round(a * N[0], b, bits, False), _round(c * N[1], d, bits, True)
    # An end is (total + sign * a/b) / D, sign that of the first omitted summand.
    sign = -1 if row.alternating and (n + terms) % 2 else 1
    # D counts only to `bits` bits: it is rounded past them and shifted back.
    extra = 0 if bits is None else max(0, D.bit_length() - cut - bits - 64)
    ends = ()
    for (a, b), up in zip((lo, hi)[::sign], (False, True)):
        num = _shift(total, cut, up) * b + sign * a
        ends += _round(num, _shift(D, cut + extra, (num < 0) == up) * b << extra, bits, up)
    return ends


class CertifiedFloor(NamedTuple):
    """The floor, the summand count that pinned it, and the enclosure that
    decided it, rounded outward: it contains _enclose(spec, n, terms)."""

    value: int
    terms: int
    ends: tuple[int, int, int, int]  # (lo_num, lo_den, hi_num, hi_den)


def certify_floor(spec: TailSpec, n: int, max_terms: int = 64) -> CertifiedFloor:
    """Tighten the enclosure by doubling terms (2, 4, 8, ...) until the
    reciprocal floor is the same at both endpoints; intervals are intersected
    across rounds so refinement never widens.  Each round makes one enclosure,
    exact for floors under 256 bits and otherwise rounded outward to about
    F + 64 or 2F + 64 bits; a round that does not decide doubles the terms at
    the same scale.  Raises UndecidedIntervalError if the budget is exhausted first."""
    _require_valid_n(spec, n)
    S, row = spec.sequence(), SHAPES[spec.shape]
    F = sum(_memo(S, row.l * spec.l * n + row.j + f).bit_length() for f in row.factors)
    # F is about the floor's bits.  Below 256 bits the exact enclosure costs less
    # than a rounded one.  With one sequence factor per summand, 1/tail lies
    # within about 2^-F of an integer, which F + 64 bits cannot resolve: such
    # tails round to 2F + 64, and products to F + 64.
    scale = None if F < 256 else 2 if len(row.factors) == 1 else 1
    current, value, terms = None, 0, 2
    while terms <= max_terms:
        ends = _enclose(spec, n, terms, scale)
        if current is not None:  # keep the larger lower end and the smaller upper end
            (a, b, c, d), (e, f, g, h) = current, ends
            ends = ((a, b) if a * f >= e * b else (e, f)) + ((c, d) if c * h <= g * d else (g, h))
        lo, lo_den, hi, hi_den = current = ends
        if not lo <= 0 <= hi:  # an interval holding 0 pins no floor yet
            # 1/x is decreasing on either side of 0, so ends of one sign are ordered
            # when 1/S spans [1/hi, 1/lo]: when floor(1/lo) - floor(1/hi) = q is
            # positive, or 0 with the larger fractional part at 1/lo.  Each floor is
            # taken relative to the last one found, a short quotient.
            if (lo > 0) != (hi > 0) or lo == 0:
                raise ArithmeticError(f"inconsistent enclosures for {spec}, n={n}")
            step, r = divmod(hi_den - value * hi, hi)
            value += step  # 1/hi = value + r/hi
            r_lo = lo_den - value * lo
            q = r_lo // lo
            if q < 0 or q == 0 and r_lo * hi < r * lo:  # r_lo/lo < r/hi, as lo * hi > 0
                raise ArithmeticError(f"inconsistent enclosures for {spec}, n={n}")
            if q == 0:
                return CertifiedFloor(value, terms, ends)
        terms *= 2
    raise UndecidedIntervalError(
        f"{spec.family}/{spec.shape} n={n}: floor undecided within {max_terms} terms"
    )


def verified_floor(spec: TailSpec, n: int, max_terms: int = 64) -> int:
    """Independently certified floor(1 / tail); must agree with closed_floor."""
    return certify_floor(spec, n, max_terms).value
