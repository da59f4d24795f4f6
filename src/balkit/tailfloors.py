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
"""

from __future__ import annotations

import math
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


class _Shape(NamedTuple):
    families: tuple[str, ...]
    indices: Callable[[int, int], tuple[int, ...]]  # (k, l) -> factor indices
    alternating: bool
    threshold: int  # smallest valid n
    backbone: Callable[..., int]  # (S, n, l, a) -> x of the closed form below


_BC, _G = ("B", "C"), ("G",)

# Summand at k (running from n): sign / product of sequence values at indices.
SHAPES: dict[str, _Shape] = {
    "plain": _Shape(_BC, lambda k, l: (l * k,), False, 1,
                    lambda S, n, l, a: S(l * n) - S(l * (n - 1))),
    "alt": _Shape(_BC, lambda k, l: (k,), True, 1, lambda S, n, l, a: S(n) + S(n - 1)),
    "alt_sq": _Shape(_BC, lambda k, l: (k, k), True, 1,
                     lambda S, n, l, a: S(n) ** 2 + S(n - 1) ** 2),
    "alt_even_idx": _Shape(_BC, lambda k, l: (2 * k,), True, 1,
                           lambda S, n, l, a: S(2 * n) + S(2 * n - 2)),
    "alt_odd_idx": _Shape(_BC, lambda k, l: (2 * k + 1,), True, 1,
                          lambda S, n, l, a: S(2 * n + 1) + S(2 * n - 1)),
    "alt_consec_prod": _Shape(_BC, lambda k, l: (k, k + 1), True, 1,
                              lambda S, n, l, a: S(n) * S(n + 1) + S(n - 1) * S(n)),
    "alt_even_sq": _Shape(_BC, lambda k, l: (2 * k, 2 * k), True, 1,
                          lambda S, n, l, a: S(2 * n) ** 2 + S(2 * n - 2) ** 2),
    "alt_odd_sq": _Shape(_BC, lambda k, l: (2 * k - 1, 2 * k - 1), True, 2,
                         lambda S, n, l, a: S(2 * n - 1) ** 2 + S(2 * n - 3) ** 2),
    "alt_oddprod": _Shape(_BC, lambda k, l: (2 * k - 1, 2 * k + 1), True, 1,
                          lambda S, n, l, a: S(2 * n) ** 2 + S(2 * n - 2) ** 2),
    "alt_evenprod": _Shape(_BC, lambda k, l: (2 * k, 2 * k + 2), True, 1,
                           lambda S, n, l, a: S(2 * n + 1) ** 2 + S(2 * n - 1) ** 2),
    "gf_plain": _Shape(_G, lambda k, l: (k,), False, 1, lambda S, n, l, a: S(n) - S(n - 1)),
    "gf_sq": _Shape(_G, lambda k, l: (k, k), False, 1, lambda S, n, l, a: a * S(n - 1) * S(n)),
    "gf_even_idx": _Shape(_G, lambda k, l: (2 * k,), False, 1,
                          lambda S, n, l, a: S(2 * n) - S(2 * n - 2)),
    "gf_odd_idx": _Shape(_G, lambda k, l: (2 * k - 1,), False, 2,
                         lambda S, n, l, a: S(2 * n - 1) - S(2 * n - 3)),
}


def threshold(spec: TailSpec) -> int:
    return SHAPES[spec.shape].threshold


def _require_valid_n(spec: TailSpec, n: int) -> None:
    t = threshold(spec)
    if n < t:
        raise ValueError(f"{spec.family}/{spec.shape} needs n >= {t}, got {n}")


# -- closed forms -------------------------------------------------------------
#
# A shape floors to x + e for even n and to x + o for odd n, negated when it
# alternates, where x is its backbone in SHAPES.  (e, o) is (0, 1) for the
# alternating B shapes and (-1, 0) for the C ones.  Plain and G shapes have
# their own, as do the exceptions, which differ from the naive square/product
# analogy by small constants: each records what the rigorous bracketer gives.

_OFFSETS = {"B": (0, 1), "C": (-1, 0), ("B", "plain"): (-1, -1), ("C", "plain"): (0, 0),
            ("B", "alt_oddprod"): (-1, 0), ("B", "alt_evenprod"): (-1, 0),
            ("C", "alt_consec_prod"): (-2, -1), ("C", "alt_oddprod"): (7, 8),
            ("C", "alt_evenprod"): (7, 8), ("G", "gf_plain"): (0, -1), ("G", "gf_sq"): (-1, 0),
            ("G", "gf_even_idx"): (-1, -1), ("G", "gf_odd_idx"): (0, 0)}


def closed_floor(spec: TailSpec, n: int) -> int:
    """Closed-form value of floor(1 / tail(spec, n)); floor is toward -infinity."""
    _require_valid_n(spec, n)
    shape = SHAPES[spec.shape]
    x = shape.backbone(partial(_memo, spec.sequence()), n, spec.l, spec.a)
    e, o = _OFFSETS.get((spec.family, spec.shape)) or _OFFSETS[spec.family]
    if n % 2 == 0:
        return x + e
    return -(x + o) if shape.alternating else x + o


# -- enclosures ----------------------------------------------------------------

def _growth(spec: TailSpec) -> tuple[int, int, int]:
    """(num, den, steps): num/den bounds S(m+1)/S(m) below, and the shape's
    factors advance `steps` indices per summand, so (num/den)^steps bounds
    the summand ratio.  B and C terms at least quintuple per index step (from
    index 1 resp. 2 on); G terms satisfy G(m+1)(a+1) >= (a^2+a+1) G(m) for
    m >= 2, since G(m) <= (a+1) G(m-1) there.
    """
    idx, a = SHAPES[spec.shape].indices, spec.a
    steps = sum(idx(11, spec.l)) - sum(idx(10, spec.l))
    return (5, 1, steps) if spec.family in ("B", "C") else (a * a + a + 1, a + 1, steps)


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


def _enclose(spec: TailSpec, n: int, terms: int) -> tuple[int, int, int, int]:
    """refined_bracket as integers (lo_num, lo_den, hi_num, hi_den), positive
    denominators.  With s0 = S(M), s1 = S(M+1) and g = gn/gd, S(m+1)/S(m) lies in
    [A-, A+] / Bq for m >= M, Bq = (gd - gn) s0 s1, A-+ = (gd - gn) s1^2 -+ kappa gd,
    so consecutive remainder terms have ratio in [Bq^s / A+^s, Bq^s / A-^s]."""
    _require_valid_n(spec, n)
    if terms < 1:
        raise ValueError(f"need terms >= 1, got {terms}")
    S, shape = partial(_memo, spec.sequence()), SHAPES[spec.shape]
    idxs = [shape.indices(k, spec.l) for k in range(n, n + terms + 1)]
    # Summand j is +-nums[j] / D over the common denominator D, each index at
    # the largest power any one summand has.
    top = {i: max(ix.count(i) for ix in idxs) for ix in idxs for i in ix}
    D = math.prod(S(i) ** e for i, e in top.items())
    nums = [math.prod(S(i) ** (e - ix.count(i)) for i, e in top.items()) for ix in idxs]
    if shape.alternating and any(cur >= prev for prev, cur in zip(nums, nums[1:])):
        raise ArithmeticError(f"summands not strictly decreasing at {spec}, n={n}")
    total = sum(-x if shape.alternating and k % 2 else x for k, x in enumerate(nums[:terms], n))
    # Remainder magnitude bounds a / (b * D), first the simple bracket's.
    bn, bd, steps = _growth(spec)
    rho, rd = bn ** steps, bd ** steps
    lo, hi = (0, 1), (nums[terms - 1], 1) if shape.alternating else (rho * nums[terms], rho - rd)
    M = min(idxs[terms])
    s0, s1, gn, gd = S(M), S(M + 1), bd * bd, bn * bn
    bq = (gd - gn) * s0 * s1
    kappa = abs(S(0) * S(2) - S(1) ** 2)  # = |S(m-1)S(m+1) - S(m)^2| for every m, as Q = +-1
    am, ap = ((gd - gn) * s1 * s1 + e * kappa * gd for e in (-1, 1))
    if am > bq:  # else the ratio interval reaches 1: keep the simple bracket
        am, ap, bq = am ** steps, ap ** steps, bq ** steps
        if shape.alternating:
            # R/mag lies in the nested fixed interval of y -> 1 - u*y.
            w = am * ap - bq * bq
            lo, ref = ((am - bq) * ap * nums[terms], w), ((ap - bq) * am * nums[terms], w)
        else:
            lo, ref = (ap * nums[terms], ap - bq), (am * nums[terms], am - bq)
        if ref[0] * hi[1] < hi[0] * ref[1]:
            hi = ref
    if not (shape.alternating and (n + terms) % 2):  # the first omitted summand is positive
        return total * lo[1] + lo[0], D * lo[1], total * hi[1] + hi[0], D * hi[1]
    return total * hi[1] - hi[0], D * hi[1], total * lo[1] - lo[0], D * lo[1]


def _as_interval(ends: tuple[int, int, int, int]) -> Interval:
    return Interval(Fraction(ends[0], ends[1]), Fraction(ends[2], ends[3]))


def refined_bracket(spec: TailSpec, n: int, terms: int) -> Interval:
    """Certification-grade enclosure: partial sum plus two-sided geometric
    remainder bounds from the ratio interval, intersected with bracket_tail."""
    return _as_interval(_enclose(spec, n, terms))


class CertifiedFloor(NamedTuple):
    """The floor, the summand count that pinned it, and the final enclosure."""

    value: int
    terms: int
    ends: tuple[int, int, int, int]  # (lo_num, lo_den, hi_num, hi_den); `interval` reads them

    @property
    def interval(self) -> Interval:
        return _as_interval(self.ends)


def certify_floor(spec: TailSpec, n: int, max_terms: int = 64) -> CertifiedFloor:
    """Tighten refined_bracket by doubling terms (2, 4, 8, ...) until the
    reciprocal floor is the same at both endpoints; intervals are intersected
    across rounds so refinement never widens.  Raises UndecidedIntervalError
    if the budget is exhausted first."""
    _require_valid_n(spec, n)
    current = None
    terms = 2
    while terms <= max_terms:
        fresh = _enclose(spec, n, terms)
        if current is not None:  # keep the larger lower end and the smaller upper end
            (a, b, c, d), (e, f, g, h) = current, fresh
            current = (a, b) if a * f >= e * b else (e, f)
            current += (c, d) if c * h <= g * d else (g, h)
        else:
            current = fresh
        lo, lo_den, hi, hi_den = current
        if lo > hi if lo_den == hi_den else lo * hi_den > hi * lo_den:
            raise ArithmeticError(f"inconsistent enclosures for {spec}, n={n}")
        # 1/x is decreasing on either side of 0, so 1/S ranges over [1/hi, 1/lo].
        if (lo > 0 or hi < 0) and (value := hi_den // hi) == lo_den // lo:
            return CertifiedFloor(value, terms, current)
        terms *= 2
    raise UndecidedIntervalError(
        f"{spec.family}/{spec.shape} n={n}: floor undecided within {max_terms} terms"
    )


def verified_floor(spec: TailSpec, n: int, max_terms: int = 64) -> int:
    """Independently certified floor(1 / tail); must agree with closed_floor."""
    return certify_floor(spec, n, max_terms).value
