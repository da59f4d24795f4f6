"""Floors of reciprocal tail sums, closed-form and independently certified.

Each TailSpec names an infinite series: a reciprocal (or reciprocal-product,
or alternating) tail of the balancing family (B), its companion family (C),
or a generalized Fibonacci family (G, parameter a).  closed_floor evaluates
the known closed form for floor(1 / tail); verified_floor certifies the same
integer from scratch by enclosing the tail in exact rational intervals and
tightening until the reciprocal floor is pinned down, never guessing.

Two enclosures are provided.  bracket_tail is the textbook one: consecutive
partial sums for alternating series, partial sum plus a geometric majorant
for positive ones.  The certification path uses refined_bracket, which
bounds the omitted remainder through a two-sided ratio interval: with
r(m) = S(m+1)/S(m), the cross identity S(m-1)S(m+1) - S(m)^2 = kappa(m)
gives r(m) - r(m-1) = kappa(m)/(S(m-1)S(m)), so for every m >= M the ratio
stays within s(M) = |kappa| / (S(M)S(M+1)) / (1 - g) of r(M), where g bounds
S(m-1)/S(m+1).  That pins consecutive remainder-term ratios inside an
interval [u_lo, u_hi] and the remainder inside exact geometric bounds whose
width shrinks like the square of the term size - tight enough to separate
every floor within a handful of terms even when the true reciprocal hugs an
integer boundary.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .sequences import BALANCING, LUCAS_BALANCING, Sequence, _memo, gen_fibonacci


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
    plain shape, parameter a for the G family."""

    __slots__ = ()

    def __new__(cls, family: str, shape: str, l: int = 1, a: int = 1) -> TailSpec:
        if family not in ("B", "C", "G"):
            raise ValueError(f"unknown family {family!r}")
        if shape not in SHAPES:
            raise ValueError(f"unknown shape {shape!r}")
        if (family == "G") != shape.startswith("gf_"):
            raise ValueError(f"shape {shape} does not belong to family {family}")
        if shape == "plain" and l < 1:
            raise ValueError(f"plain shape needs l >= 1, got {l}")
        if family == "G" and a < 1:
            raise ValueError(f"G family needs a >= 1, got {a}")
        return super().__new__(cls, family, shape, l, a)

    def sequence(self) -> Sequence:
        if self.family == "B":
            return BALANCING
        if self.family == "C":
            return LUCAS_BALANCING
        return gen_fibonacci(self.a)


class _Shape(NamedTuple):
    indices: Callable[[int, int], tuple[int, ...]]  # (k, l) -> factor indices
    alternating: bool
    threshold: int  # smallest valid n


# Summand at k (running from n): sign / product of sequence values at indices.
SHAPES: dict[str, _Shape] = {
    "plain": _Shape(lambda k, l: (l * k,), False, 1),
    "alt": _Shape(lambda k, l: (k,), True, 1),
    "alt_sq": _Shape(lambda k, l: (k, k), True, 1),
    "alt_even_idx": _Shape(lambda k, l: (2 * k,), True, 1),
    "alt_odd_idx": _Shape(lambda k, l: (2 * k + 1,), True, 1),
    "alt_consec_prod": _Shape(lambda k, l: (k, k + 1), True, 1),
    "alt_even_sq": _Shape(lambda k, l: (2 * k, 2 * k), True, 1),
    "alt_odd_sq": _Shape(lambda k, l: (2 * k - 1, 2 * k - 1), True, 2),
    "alt_oddprod": _Shape(lambda k, l: (2 * k - 1, 2 * k + 1), True, 1),
    "alt_evenprod": _Shape(lambda k, l: (2 * k, 2 * k + 2), True, 1),
    "gf_plain": _Shape(lambda k, l: (k,), False, 1),
    "gf_sq": _Shape(lambda k, l: (k, k), False, 1),
    "gf_even_idx": _Shape(lambda k, l: (2 * k,), False, 1),
    "gf_odd_idx": _Shape(lambda k, l: (2 * k - 1,), False, 2),
}


def threshold(spec: TailSpec) -> int:
    return SHAPES[spec.shape].threshold


def _require_valid_n(spec: TailSpec, n: int) -> None:
    t = threshold(spec)
    if n < t:
        raise ValueError(f"{spec.family}/{spec.shape} needs n >= {t}, got {n}")


# -- closed forms -------------------------------------------------------------
#
# Each alternating shape of B and C floors to x + e for even n (the positive
# tail) and -(x + o) for odd n, where x is the shape's positive backbone below.
# (e, o) is (0, 1) for B and (-1, 0) for C; the exceptions, which differ from
# the naive square/product analogy by small constants, record the values the
# rigorous bracketer reproduces exactly.

_BACKBONES: dict[str, Callable] = {
    "alt": lambda S, n: S(n) + S(n - 1),
    "alt_sq": lambda S, n: S(n) ** 2 + S(n - 1) ** 2,
    "alt_even_idx": lambda S, n: S(2 * n) + S(2 * n - 2),
    "alt_odd_idx": lambda S, n: S(2 * n + 1) + S(2 * n - 1),
    "alt_consec_prod": lambda S, n: S(n) * S(n + 1) + S(n - 1) * S(n),
    "alt_even_sq": lambda S, n: S(2 * n) ** 2 + S(2 * n - 2) ** 2,
    "alt_odd_sq": lambda S, n: S(2 * n - 1) ** 2 + S(2 * n - 3) ** 2,
    "alt_oddprod": lambda S, n: S(2 * n) ** 2 + S(2 * n - 2) ** 2,
    "alt_evenprod": lambda S, n: S(2 * n + 1) ** 2 + S(2 * n - 1) ** 2,
}
_OFFSETS = {"B": (0, 1), "C": (-1, 0), ("B", "alt_oddprod"): (-1, 0),
            ("B", "alt_evenprod"): (-1, 0), ("C", "alt_consec_prod"): (-2, -1),
            ("C", "alt_oddprod"): (7, 8), ("C", "alt_evenprod"): (7, 8)}


def _closed_G(shape: str, S, n: int, a: int) -> int:
    even = n % 2 == 0
    if shape == "gf_plain":
        return S(n) - S(n - 1) - (0 if even else 1)
    if shape == "gf_sq":
        return a * S(n - 1) * S(n) - (1 if even else 0)
    if shape == "gf_even_idx":
        return S(2 * n) - S(2 * n - 2) - 1
    if shape == "gf_odd_idx":
        return S(2 * n - 1) - S(2 * n - 3)
    raise ValueError(shape)


def closed_floor(spec: TailSpec, n: int) -> int:
    """Closed-form value of floor(1 / tail(spec, n)); floor is toward -infinity."""
    _require_valid_n(spec, n)
    S = partial(_memo, spec.sequence())
    if spec.family == "G":
        return _closed_G(spec.shape, S, n, spec.a)
    if spec.shape == "plain":
        return S(spec.l * n) - S(spec.l * (n - 1)) - (1 if spec.family == "B" else 0)
    x = _BACKBONES[spec.shape](S, n)
    e, o = _OFFSETS.get((spec.family, spec.shape), _OFFSETS[spec.family])
    return x + e if n % 2 == 0 else -(x + o)


# -- summand evaluation --------------------------------------------------------

def _summands(spec: TailSpec, n: int, count: int) -> tuple[list[Fraction], Callable[[int], int]]:
    """First `count` signed summands starting at k = n, plus the term lookup."""
    S = partial(_memo, spec.sequence())
    idx = SHAPES[spec.shape].indices
    alt = SHAPES[spec.shape].alternating
    out = []
    for k in range(n, n + count):
        den = 1
        for i in idx(k, spec.l):
            den *= S(i)
        t = Fraction(1, den)
        out.append(-t if alt and k % 2 else t)
    return out, S


def _growth_ratio(spec: TailSpec) -> Fraction:
    """Per-summand-step geometric growth lower bound for the positive shapes.

    B and C terms at least quintuple per index step (from index 1 resp. 2 on);
    G terms satisfy G(m+1)(a+1) >= (a^2+a+1) G(m) for m >= 2, since
    G(m) <= (a+1) G(m-1) there.  The shape's index map advances the base index
    by a fixed step count per summand, so the bound is a fixed power.
    """
    idx = SHAPES[spec.shape].indices
    steps = sum(idx(11, spec.l)) - sum(idx(10, spec.l))
    base = Fraction(5) if spec.family in ("B", "C") else Fraction(
        spec.a * spec.a + spec.a + 1, spec.a + 1
    )
    return base ** steps


def bracket_tail(spec: TailSpec, n: int, terms: int) -> Interval:
    """Exact rational enclosure of the infinite tail from `terms` summands.

    Alternating shapes: the limit lies between consecutive partial sums
    (strict magnitude decrease is asserted).  Positive shapes: the partial sum
    bounds below, and the first omitted term times rho/(rho-1) majorizes the
    remainder for the proven growth bound rho.
    """
    _require_valid_n(spec, n)
    if terms < 1:
        raise ValueError(f"need terms >= 1, got {terms}")
    ts, _ = _summands(spec, n, terms + 1)
    if SHAPES[spec.shape].alternating:
        for prev, cur in zip(ts, ts[1:]):
            if abs(cur) >= abs(prev):
                raise ArithmeticError(f"summands not strictly decreasing at {spec}, n={n}")
        p_prev = sum(ts[: terms - 1], Fraction(0))
        p_last = p_prev + ts[terms - 1]
        return Interval(min(p_prev, p_last), max(p_prev, p_last))
    partial = sum(ts[:terms], Fraction(0))
    rho = _growth_ratio(spec)
    return Interval(partial, partial + ts[terms] * rho / (rho - 1))


# -- refined enclosure ---------------------------------------------------------

_CROSS_CONSTANT = {"B": 1, "C": 8, "G": 1}  # |S(m-1)S(m+1) - S(m)^2|


def _ratio_interval(spec: TailSpec, S, M: int) -> tuple[Fraction, Fraction]:
    """Rational [q_lo, q_hi] containing S(m+1)/S(m) for every m >= M.

    |r(m) - r(M)| <= sum over i > M of |kappa| / (S(i-1)S(i)), and consecutive
    terms of that sum shrink by at least g = 1/rho^2 per step, so the whole
    drift is at most |kappa| / (S(M)S(M+1)) / (1 - g).
    """
    if spec.family in ("B", "C"):
        g = Fraction(1, 25)
    else:
        rho = Fraction(spec.a * spec.a + spec.a + 1, spec.a + 1)
        g = 1 / (rho * rho)
    drift = Fraction(_CROSS_CONSTANT[spec.family], S(M) * S(M + 1)) / (1 - g)
    r = Fraction(S(M + 1), S(M))
    return r - drift, r + drift


def refined_bracket(spec: TailSpec, n: int, terms: int) -> Interval:
    """Certification-grade enclosure: partial sum plus two-sided geometric
    remainder bounds from the ratio interval, intersected with bracket_tail."""
    _require_valid_n(spec, n)
    if terms < 1:
        raise ValueError(f"need terms >= 1, got {terms}")
    ts, S = _summands(spec, n, terms + 1)
    partial = sum(ts[:terms], Fraction(0))
    first_omitted = ts[terms]
    mag = abs(first_omitted)
    idx = SHAPES[spec.shape].indices
    omitted_indices = idx(n + terms, spec.l)
    M = min(omitted_indices)
    q_lo, q_hi = _ratio_interval(spec, S, M)
    if q_lo <= 1:
        # Ratio interval too loose to bound the remainder; the plain bracket
        # still stands on its own.
        return bracket_tail(spec, n, terms)
    steps = sum(idx(n + terms + 1, spec.l)) - sum(omitted_indices)
    u_lo = q_hi ** (-steps)  # smallest possible consecutive summand ratio
    u_hi = q_lo ** (-steps)  # largest
    if SHAPES[spec.shape].alternating:
        # Remainder magnitude R satisfies R/mag in [y_lo, y_hi]: the nested
        # fixed interval of y -> 1 - u*y over u in [u_lo, u_hi].
        y_lo = (1 - u_hi) / (1 - u_lo * u_hi)
        y_hi = (1 - u_lo) / (1 - u_lo * u_hi)
        r_lo, r_hi = mag * y_lo, mag * y_hi
    else:
        r_lo, r_hi = mag / (1 - u_lo), mag / (1 - u_hi)
    if first_omitted > 0:
        refined = Interval(partial + r_lo, partial + r_hi)
    else:
        refined = Interval(partial - r_hi, partial - r_lo)
    simple = bracket_tail(spec, n, terms)
    return Interval(max(refined.lo, simple.lo), min(refined.hi, simple.hi))


def _floor_pair(interval: Interval) -> tuple[int, int] | None:
    """Floors of the reciprocal's endpoints, or None while 0 might be inside."""
    lo, hi = interval
    if lo <= 0 <= hi:
        return None
    # 1/x is decreasing on either side of 0, so 1/S ranges over [1/hi, 1/lo].
    return math.floor(1 / hi), math.floor(1 / lo)


class CertifiedFloor(NamedTuple):
    value: int
    terms: int
    interval: Interval


def certify_floor(spec: TailSpec, n: int, max_terms: int = 64) -> CertifiedFloor:
    """Tighten refined_bracket by doubling terms (2, 4, 8, ...) until the
    reciprocal floor is the same at both endpoints; intervals are intersected
    across rounds so refinement never widens.  Raises UndecidedIntervalError
    if the budget is exhausted first."""
    _require_valid_n(spec, n)
    current: Interval | None = None
    terms = 2
    while terms <= max_terms:
        fresh = refined_bracket(spec, n, terms)
        current = fresh if current is None else Interval(
            max(current.lo, fresh.lo), min(current.hi, fresh.hi)
        )
        if current.lo > current.hi:
            raise ArithmeticError(f"inconsistent enclosures for {spec}, n={n}")
        pair = _floor_pair(current)
        if pair is not None and pair[0] == pair[1]:
            return CertifiedFloor(pair[0], terms, current)
        terms *= 2
    raise UndecidedIntervalError(
        f"{spec.family}/{spec.shape} n={n}: floor undecided within {max_terms} terms"
    )


def verified_floor(spec: TailSpec, n: int, max_terms: int = 64) -> int:
    """Independently certified floor(1 / tail); must agree with closed_floor."""
    return certify_floor(spec, n, max_terms).value
