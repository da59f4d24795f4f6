"""Rational generating functions of the strided subsequences S(k*n + r) and
their exact power-series expansion.  One formula in the Lucas parameters
(P, Q) of the family serves every U(P, Q) and V(P, Q)/s family."""

from __future__ import annotations

from collections import namedtuple

from .sequences import Sequence, term


class RationalGF(namedtuple("RationalGF", "numer denom")):
    """numer(t) / denom(t) with integer coefficients, ascending powers,
    denom(0) != 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace is checked too

    def __new__(cls, numer: tuple[int, ...], denom: tuple[int, ...]) -> RationalGF:
        if not denom or denom[0] == 0:
            raise ValueError("denominator must have a nonzero constant term")
        return super().__new__(cls, numer, denom)

    def __str__(self) -> str:
        return f"({_poly_str(self.numer)}) / ({_poly_str(self.denom)})"


def _poly_str(coeffs: tuple[int, ...]) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            t = "t" if i == 1 else f"t^{i}"
            body = t if abs(c) == 1 else f"{abs(c)}*{t}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def gf(seq: Sequence, k: int, r: int) -> RationalGF:
    """Closed-form generating function of n |-> term(seq, k*n + r), k > r >= 0.

    For a family of Lucas parameters (P, Q) the strided subsequence obeys
    x(n) = V(k) x(n-1) - Q^k x(n-2), so the denominator is 1 - V(k) t + Q^k t^2
    and the numerator is S(r) + x(1) - V(k) x(0) = S(r) +- Q^r S(k-r) t, with
    + for U-type families and - for V-type ones.
    """
    if not k > r >= 0:
        raise ValueError(f"need k > r >= 0, got k={k}, r={r}")
    q, sign = seq.q, 1 if seq.kind == "U" else -1
    return RationalGF((term(seq, r), sign * q ** r * term(seq, k - r)),
                      (1, -term(Sequence("v", seq.p, q, "V", 1), k), q ** k))


def expand(g: RationalGF, count: int) -> list[int]:
    """First `count` Taylor coefficients of g, via the recurrence the
    denominator induces: d0*c[n] = numer[n] - sum(d[i]*c[n-i], i >= 1).
    Each coefficient is certified to be an integer."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    d0 = g.denom[0]
    coeffs: list[int] = []
    for n in range(count):
        acc = g.numer[n] if n < len(g.numer) else 0
        for i in range(1, min(n, len(g.denom) - 1) + 1):
            acc -= g.denom[i] * coeffs[n - i]
        c, rem = divmod(acc, d0)
        if rem:
            from fractions import Fraction  # only to word the error; a `gf` run loads no fractions

            raise ArithmeticError(f"non-integer series coefficient at t^{n}: {Fraction(acc, d0)}")
        coeffs.append(c)
    return coeffs


def series_mul(xs: list[int], ys: list[int], count: int) -> list[int]:
    """First `count` coefficients of the Cauchy product of two coefficient
    prefixes (both must supply at least `count` entries)."""
    if len(xs) < count or len(ys) < count:
        raise ValueError("operand prefixes shorter than requested product")
    return [sum(xs[m] * ys[n - m] for m in range(n + 1)) for n in range(count)]
