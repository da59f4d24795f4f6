"""Floors of reciprocal tail sums, closed-form and independently certified.

Each TailSpec names an infinite series: a reciprocal (or reciprocal-product,
or alternating) tail of the balancing family (B), its companion family (C),
or a generalized Fibonacci family (G, parameter a).  closed_floor evaluates
the known closed form for floor(1 / tail); verified_floor certifies the same
integer from scratch by enclosing the tail in exact rational intervals and
tightening until the reciprocal floor is pinned down, never guessing.

Two enclosures are provided.  bracket_tail is the textbook one, kept in
Fractions as the reference: consecutive partial sums for alternating series,
partial sum plus a geometric majorant for positive ones.  The certification
path, certify_floor, runs the integer enclosure _enclose directly, and
refined_bracket reads the same enclosure as Fractions.  It bounds the omitted
remainder through a two-sided ratio interval: with r(m) = S(m+1)/S(m), the
cross identity S(m-1)S(m+1) - S(m)^2 = kappa(m) gives
r(m) - r(m-1) = kappa(m)/(S(m-1)S(m)), so for every m >= M the ratio stays
within s(M) = |kappa| / (S(M)S(M+1)) / (1 - g) of r(M), where g bounds
S(m-1)/S(m+1).  That pins consecutive remainder-term ratios inside an
interval [u_lo, u_hi] and the remainder inside exact geometric bounds whose
width shrinks like the square of the term size - tight enough to separate
every floor within a handful of terms even when the true reciprocal hugs an
integer boundary.

The certificate runs on unreduced integer numerator/denominator pairs, each
bound over a closed product of sequence values and the ratio interval's
integer ends: certify_floor takes no gcd and builds no Fraction, and
refined_bracket and CertifiedFloor.interval reduce to Fractions when read.
It works at the floor's precision: with F the floor's bit length, each round
first tries the enclosure with its ratio interval, remainder bounds and ends
rounded outward by shifts to about F + 64 bits, then 2F + 64, and only then
the exact one (tails of one sequence factor per summand start at 2F + 64,
floors under 256 bits take the exact one alone).  A rounded enclosure
contains refined_bracket's at the same terms, so the floor and the term count
are the exact path's, while the ends carry a few times the floor's bits
rather than 5 to 11 times.  Every enclosure, fresh or intersected, is checked
for order through the reciprocal floors that read it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .sequences import Sequence, _memo, family


class Interval(NamedTuple):
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


class UndecidedIntervalError(ArithmeticError):
    """The term budget ran out before the interval pinned the floor down."""


class TailSpec(namedtuple("TailSpec", "family shape l a")):
    """family 'B' | 'C' | 'G', a shape key from SHAPES, stride l for the
    plain shape and parameter a for the G family, each 1 elsewhere."""

    __slots__ = ()

    def __new__(cls, family: str, shape: str, l: int = 1, a: int = 1) -> TailSpec:
        if shape not in SHAPES:
            raise ValueError(f"unknown shape {shape!r}")
        if family not in SHAPES[shape].offsets:
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


class _Shape(NamedTuple):
    offsets: dict[str, tuple[int, int]]  # family -> (e, o) of the closed form below
    indices: Callable[[int, int], tuple[int, ...]]  # (k, l) -> factor indices
    alternating: bool
    threshold: int  # smallest valid n
    backbone: Callable[..., int]  # (S, n, l, a) -> x of the closed form below


# Summand at k (running from n): sign / product of sequence values at indices.
# A shape floors to x + e for even n and to x + o for odd n, negated when it
# alternates, where x is its backbone and (e, o) its offsets for the family.
# The offsets differ from the naive square/product analogy by small constants:
# each records what the rigorous bracketer gives.  _ALT holds the alternating
# B and C shapes' pair and _PROD the two next-but-one product shapes'.
_ALT = {"B": (0, 1), "C": (-1, 0)}
_PROD = {"B": (-1, 0), "C": (7, 8)}

SHAPES: dict[str, _Shape] = {
    "plain": _Shape({"B": (-1, -1), "C": (0, 0)}, lambda k, l: (l * k,), False, 1,
                    lambda S, n, l, a: S(l * n) - S(l * (n - 1))),
    "alt": _Shape(_ALT, lambda k, l: (k,), True, 1, lambda S, n, l, a: S(n) + S(n - 1)),
    "alt_sq": _Shape(_ALT, lambda k, l: (k, k), True, 1,
                     lambda S, n, l, a: S(n) ** 2 + S(n - 1) ** 2),
    "alt_even_idx": _Shape(_ALT, lambda k, l: (2 * k,), True, 1,
                           lambda S, n, l, a: S(2 * n) + S(2 * n - 2)),
    "alt_odd_idx": _Shape(_ALT, lambda k, l: (2 * k + 1,), True, 1,
                          lambda S, n, l, a: S(2 * n + 1) + S(2 * n - 1)),
    "alt_consec_prod": _Shape({**_ALT, "C": (-2, -1)}, lambda k, l: (k, k + 1), True, 1,
                              lambda S, n, l, a: S(n) * S(n + 1) + S(n - 1) * S(n)),
    "alt_even_sq": _Shape(_ALT, lambda k, l: (2 * k, 2 * k), True, 1,
                          lambda S, n, l, a: S(2 * n) ** 2 + S(2 * n - 2) ** 2),
    "alt_odd_sq": _Shape(_ALT, lambda k, l: (2 * k - 1, 2 * k - 1), True, 2,
                         lambda S, n, l, a: S(2 * n - 1) ** 2 + S(2 * n - 3) ** 2),
    "alt_oddprod": _Shape(_PROD, lambda k, l: (2 * k - 1, 2 * k + 1), True, 1,
                          lambda S, n, l, a: S(2 * n) ** 2 + S(2 * n - 2) ** 2),
    "alt_evenprod": _Shape(_PROD, lambda k, l: (2 * k, 2 * k + 2), True, 1,
                           lambda S, n, l, a: S(2 * n + 1) ** 2 + S(2 * n - 1) ** 2),
    "gf_plain": _Shape({"G": (0, -1)}, lambda k, l: (k,), False, 1,
                       lambda S, n, l, a: S(n) - S(n - 1)),
    "gf_sq": _Shape({"G": (-1, 0)}, lambda k, l: (k, k), False, 1,
                    lambda S, n, l, a: a * S(n - 1) * S(n)),
    "gf_even_idx": _Shape({"G": (-1, -1)}, lambda k, l: (2 * k,), False, 1,
                          lambda S, n, l, a: S(2 * n) - S(2 * n - 2)),
    "gf_odd_idx": _Shape({"G": (0, 0)}, lambda k, l: (2 * k - 1,), False, 2,
                         lambda S, n, l, a: S(2 * n - 1) - S(2 * n - 3)),
}


def threshold(spec: TailSpec) -> int:
    return SHAPES[spec.shape].threshold


def _require_valid_n(spec: TailSpec, n: int) -> None:
    t = threshold(spec)
    if n < t:
        raise ValueError(f"{spec.family}/{spec.shape} needs n >= {t}, got {n}")


# -- closed forms -------------------------------------------------------------

def closed_floor(spec: TailSpec, n: int) -> int:
    """Closed-form value of floor(1 / tail(spec, n)); floor is toward -infinity."""
    _require_valid_n(spec, n)
    shape = SHAPES[spec.shape]
    x = shape.backbone(partial(_memo, spec.sequence()), n, spec.l, spec.a)
    e, o = shape.offsets[spec.family]
    if n % 2 == 0:
        return x + e
    return -(x + o) if shape.alternating else x + o


# -- enclosures ----------------------------------------------------------------

def _growth(spec: TailSpec) -> tuple[int, int, int]:
    """(num, den, steps): num/den bounds S(m+1)/S(m) below, and the shape's
    factors advance `steps` indices per summand, so (num/den)^steps bounds
    the summand ratio.  With P = mult and Q = -add, from m = 2 on: for Q = 1
    the terms increase, so S(m+1) = P S(m) - S(m-1) >= (P - 1) S(m); for
    Q = -1, S(m+1) = P S(m) + S(m-1) and S(m) <= (P + 1) S(m-1) give
    (P + 1) S(m+1) >= (P^2 + P + 1) S(m).
    """
    idx, seq = SHAPES[spec.shape].indices, spec.sequence()
    steps = sum(idx(11, spec.l)) - sum(idx(10, spec.l))
    p, q = seq.mult, -seq.add
    return (p - 1, 1, steps) if q == 1 else (p * p + p + 1, p + 1, steps)


def bracket_tail(spec: TailSpec, n: int, terms: int) -> Interval:
    """Exact rational enclosure of the infinite tail from `terms` summands.

    Alternating shapes: the limit lies between consecutive partial sums
    (strict magnitude decrease is asserted).  Positive shapes: the partial sum
    bounds below, and the first omitted term times rho/(rho-1) majorizes the
    remainder for the proven growth bound rho.  This is the Fraction reference
    that the integer enclosure behind refined_bracket is tested against.
    """
    _require_valid_n(spec, n)
    if terms < 1:
        raise ValueError(f"need terms >= 1, got {terms}")
    S, shape = partial(_memo, spec.sequence()), SHAPES[spec.shape]
    dens = [math.prod(map(S, shape.indices(k, spec.l))) for k in range(n, n + terms + 1)]
    ts = [Fraction(-1 if shape.alternating and k % 2 else 1, d) for k, d in enumerate(dens, n)]
    if shape.alternating:
        for prev, cur in zip(ts, ts[1:]):
            if abs(cur) >= abs(prev):
                raise ArithmeticError(f"summands not strictly decreasing at {spec}, n={n}")
        p_prev = sum(ts[: terms - 1], Fraction(0))
        p_last = p_prev + ts[terms - 1]
        return Interval(min(p_prev, p_last), max(p_prev, p_last))
    num, den, steps = _growth(spec)
    total = sum(ts[:terms], Fraction(0))
    return Interval(total, total + ts[terms] * num ** steps / (num ** steps - den ** steps))


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
    if bits is None:
        return x ** k, y ** k
    x, y = p = _round(x, y, bits, up)
    for bit in bin(k)[3:]:
        p = _round(p[0] * p[0], p[1] * p[1], bits, up)
        if bit == "1":
            p = _round(p[0] * x, p[1] * y, bits, up)
    return p


def _enclose(spec: TailSpec, n: int, terms: int, scale: int | None = None) -> tuple[int, int, int, int]:
    """refined_bracket as integers (lo_num, lo_den, hi_num, hi_den), positive
    denominators.  With s0 = S(M), s1 = S(M+1) and g = gn/gd, S(m+1)/S(m) lies in
    [A-, A+] / Bq for m >= M, Bq = (gd - gn) s0 s1, A-+ = (gd - gn) s1^2 -+ kappa gd,
    so consecutive remainder terms have ratio in [Bq^s / A+^s, Bq^s / A-^s].

    Given a scale, the ratio interval, the remainder bounds and the ends are
    rounded outward to about scale * F + 64 bits, F the floor's bit length as D
    and the partial sum estimate it: the result then contains the exact one."""
    _require_valid_n(spec, n)
    if terms < 1:
        raise ValueError(f"need terms >= 1, got {terms}")
    S, shape = partial(_memo, spec.sequence()), SHAPES[spec.shape]
    idxs = [shape.indices(k, spec.l) for k in range(n, n + terms + 1)]
    # Every summand is a product of distinct indices, or of one index p times,
    # so summand j is +-nums[j] / D over D = (the product over every index)^p.
    p, every = idxs[0].count(idxs[0][0]), sorted(set().union(*idxs))
    D = math.prod(map(S, every)) ** p
    nums = [math.prod(S(i) for i in every if i not in ix) ** p for ix in idxs]
    if shape.alternating and any(cur >= prev for prev, cur in zip(nums, nums[1:])):
        raise ArithmeticError(f"summands not strictly decreasing at {spec}, n={n}")
    total = sum(-x if shape.alternating and k % 2 else x for k, x in enumerate(nums[:terms], n))
    # Rounded, everything is in units of 2^cut / D, with cut such that total keeps `bits` bits.
    bits = None if scale is None else scale * (D.bit_length() - abs(total).bit_length()) + 64
    cut = 0 if bits is None else max(0, abs(total).bit_length() - bits)
    # Remainder magnitude bounds a / b, first the simple bracket's.
    bn, bd, steps = _growth(spec)
    rho, rd = bn ** steps, bd ** steps
    N = [_shift(nums[terms], cut, up) for up in (False, True)]  # rounded down and up
    lo, hi = (0, 1), (_shift(nums[terms - 1], cut, True), 1) if shape.alternating else (rho * N[1], rho - rd)
    M = min(idxs[terms])
    s0, s1, gn, gd = S(M), S(M + 1), bd * bd, bn * bn
    bq = (gd - gn) * s0 * s1
    kappa = abs(S(0) * S(2) - S(1) ** 2)  # = |S(m-1)S(m+1) - S(m)^2| for every m, as Q = +-1
    am, ap = ((gd - gn) * s1 * s1 + e * kappa * gd for e in (-1, 1))
    if am > bq:  # else the ratio interval reaches 1: keep the simple bracket
        # The ratio interval [a/b, c/d]: (bq/ap)^steps rounded down, (bq/am)^steps up.
        (a, b), (c, d) = _power(bq, ap, steps, bits, False), _power(bq, am, steps, bits, True)
        if c < d:  # always so unrounded
            if shape.alternating:
                # R/mag lies in the nested fixed interval of y -> 1 - u*y.
                w = b * d - a * c
                (a, b), (c, d) = _round((d - c) * b, w, bits, False), _round((b - a) * d, w, bits, True)
            else:  # R/mag lies in [1/(1 - a/b), 1/(1 - c/d)], and at most rho/(rho - rd)
                (a, b), (c, d) = (b, b - a), (d, d - c)
                if rho * d <= c * (rho - rd):
                    c, d = rho, rho - rd
            lo, ref = _round(a * N[0], b, bits, False), _round(c * N[1], d, bits, True)
            # A positive remainder kept the lower of its two upper bounds above; an
            # alternating one's simple bound, nums[terms - 1], is compared here.
            if not shape.alternating or ref[0] < hi[0] * ref[1]:
                hi = ref
    # An end is (total + sign * a/b) / D, sign that of the first omitted summand.
    sign = -1 if shape.alternating and (n + terms) % 2 else 1
    if bits is None:  # the loop below without its rounding calls, dearer than small ends' arithmetic
        (a, b), (c, d) = (lo, hi)[::sign]
        return total * b + sign * a, D * b, total * d + sign * c, D * d
    # D counts only to `bits` bits: it is rounded past them and shifted back.
    extra = max(0, D.bit_length() - cut - bits - 64)
    ends = ()
    for (a, b), up in zip((lo, hi)[::sign], (False, True)):
        num = _shift(total, cut, up) * b + sign * a
        ends += _round(num, _shift(D, cut + extra, (num < 0) == up) * b << extra, bits, up)
    return ends


def _as_interval(ends: tuple[int, int, int, int]) -> Interval:
    return Interval(Fraction(ends[0], ends[1]), Fraction(ends[2], ends[3]))


def refined_bracket(spec: TailSpec, n: int, terms: int) -> Interval:
    """Certification-grade enclosure: partial sum plus two-sided geometric
    remainder bounds from the ratio interval, intersected with bracket_tail."""
    return _as_interval(_enclose(spec, n, terms))


class CertifiedFloor(NamedTuple):
    """The floor, the summand count that pinned it, and the enclosure that
    decided it, rounded outward: it contains refined_bracket(spec, n, terms)."""

    value: int
    terms: int
    ends: tuple[int, int, int, int]  # (lo_num, lo_den, hi_num, hi_den); `interval` reads them

    @property
    def interval(self) -> Interval:
        return _as_interval(self.ends)


# Quotients of more than this many bits take a Newton reciprocal, which beats
# CPython's schoolbook division from about 2^16 quotient bits.  From 3.12 on,
# CPython divides long integers in subquadratic time itself, faster than the
# Newton path at every size, so it takes none.
_NEWTON_BITS = 1 << 16 if sys.version_info < (3, 12) else math.inf


def _reciprocal(y: int, m: int) -> int:
    """About 4^m / y, within a few units, for y of m bits: past _NEWTON_BITS,
    one Newton step r + r (4^m - y r) / 4^m from r, the reciprocal of y's top
    half, with the correction's product taken on its leading m/2 + 64 bits."""
    if m <= _NEWTON_BITS:
        return (1 << 2 * m) // y
    h = m // 2 + 32
    r = _reciprocal(y >> (m - h), h)  # r << (m - h) is 4^m / y to about h bits
    e = (1 << 2 * m) - (y * r << (m - h))  # of size about 4^m / 2^h
    return (r << (m - h)) + (r * (e >> (m - 64)) >> (h + 64))


def _divmod(x: int, y: int) -> tuple[int, int]:
    """divmod(x, y) for y != 0.  Past _NEWTON_BITS, the quotient comes from the
    reciprocal of y's leading bits, as many as it has plus 64, within a few
    units, and an exact correction."""
    if y < 0:
        q, r = _divmod(-x, -y)
        return q, -r
    m = abs(x).bit_length() - y.bit_length() + 64
    if m <= _NEWTON_BITS:
        return divmod(x, y)
    t = y.bit_length() - m
    x_m, y_m = (x >> t, y >> t) if t >= 0 else (x << -t, y << -t)
    q = (x_m >> (m - 64)) * _reciprocal(y_m, m) >> (m + 64)
    step, r = _divmod(x - q * y, y)
    return q + step, r


def _less(a: int, b: int, c: int, d: int) -> bool:
    """a/b < c/d for b, d of one sign and both quotients in [0, 1).  Each is
    first bracketed on the k leading bits of its denominator, k = 64 and then
    half the longer one's length: only when neither tells is the product exact."""
    if b < 0:
        a, b, c, d = -a, -b, -c, -d
    for k in (64, max(b.bit_length(), d.bit_length()) // 2 + 64):
        s, t = max(0, b.bit_length() - k), max(0, d.bit_length() - k)
        a_k, b_k, c_k, d_k = a >> s, b >> s, c >> t, d >> t  # a/b in (a_k/(b_k+1), (a_k+1)/b_k)
        p, q = a_k * d_k, c_k * b_k
        if p + a_k + d_k < q:  # (a_k+1)(d_k+1) <= c_k b_k
            return True
        if q + c_k + b_k < p:
            return False
    return a * d < c * b


def certify_floor(spec: TailSpec, n: int, max_terms: int = 64) -> CertifiedFloor:
    """Tighten refined_bracket by doubling terms (2, 4, 8, ...) until the
    reciprocal floor is the same at both endpoints; intervals are intersected
    across rounds so refinement never widens.  Each round tries the enclosure
    rounded outward to about F + 64 bits, then 2F + 64, and last the exact one,
    so the floor and the term count are those of the exact enclosures alone.
    Raises UndecidedIntervalError if the budget is exhausted first."""
    _require_valid_n(spec, n)
    S, factors = spec.sequence(), SHAPES[spec.shape].indices(n, spec.l)
    F = sum(_memo(S, i).bit_length() for i in factors)  # the floor's bits, about
    # Below 256 bits the exact enclosure costs less than a rounded one.  With one
    # sequence factor per summand, 1/tail lies within about 2^-F of an integer,
    # which F + 64 bits cannot resolve: such tails start at 2F + 64.
    scales = (None,) if F < 256 else (2, None) if len(factors) == 1 else (1, 2, None)
    current, value, terms = None, 0, 2
    while terms <= max_terms:
        for scale in scales:
            ends = _enclose(spec, n, terms, scale)
            if current is not None:  # keep the larger lower end and the smaller upper end
                (a, b, c, d), (e, f, g, h) = current, ends
                ends = ((a, b) if a * f >= e * b else (e, f)) + ((c, d) if c * h <= g * d else (g, h))
            lo, lo_den, hi, hi_den = ends
            if lo <= 0 <= hi:  # ordered, but straddling 0: no floor yet
                continue
            # 1/x is decreasing on either side of 0, so ends of one sign are ordered
            # when 1/S spans [1/hi, 1/lo]: when floor(1/lo) - floor(1/hi) = q is
            # positive, or 0 with the larger fractional part at 1/lo.  Each floor is
            # taken relative to the last one found, a short quotient.
            if (lo > 0) != (hi > 0) or lo == 0:
                raise ArithmeticError(f"inconsistent enclosures for {spec}, n={n}")
            step, r = _divmod(hi_den - value * hi, hi)
            value += step  # 1/hi = value + r/hi
            r_lo = lo_den - value * lo
            q = r_lo // lo
            if q < 0 or q == 0 and _less(r_lo, lo, r, hi):
                raise ArithmeticError(f"inconsistent enclosures for {spec}, n={n}")
            if q == 0:
                return CertifiedFloor(value, terms, ends)
        current = ends
        terms *= 2
    raise UndecidedIntervalError(
        f"{spec.family}/{spec.shape} n={n}: floor undecided within {max_terms} terms"
    )


def verified_floor(spec: TailSpec, n: int, max_terms: int = 64) -> int:
    """Independently certified floor(1 / tail); must agree with closed_floor."""
    return certify_floor(spec, n, max_terms).value
