"""Exact arithmetic in the tower Q < Q(sqrt(d)) < Q(sqrt(d))(i).

An element is integer numerators over one denominator q > 0, in lowest terms:
(A, B)/q is the `QuadRat` (A + B*sqrt(d))/q and (A, B, C, E)/q the `GaussQuad`
with re = (A, B)/q and im = (C, E)/q.  A value from a lower floor (an int, a
Fraction, or a QuadRat beside a GaussQuad) is a prefix of the numerators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .sequences import LUCAS_BALANCING, Sequence, _squarefree


class CancellationError(ArithmeticError):
    """An exact value expected to be a rational integer carried a nonzero
    irrational or imaginary residue (or a fractional part)."""


def _check_radicand(d: int) -> None:
    if d < 2 or _squarefree(d)[0] != 1:
        raise ValueError(f"d must be squarefree and >= 2, got {d}")


def _frozen(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _zmul(d: int, a: int, b: int, c: int, e: int) -> tuple[int, int]:
    """(a + b*sqrt(d)) * (c + e*sqrt(d)) in Z[sqrt(d)]."""
    # d * (b * e), not (d * b) * e: a square then multiplies an int by itself, CPython's fast path.
    if a is c and b is e:  # a square, whose a*e + b*c is one product twice
        return a * a + d * (b * b), 2 * (a * b)
    return a * c + d * (b * e), a * e + b * c


def _times(d: int, n: tuple, m: tuple) -> tuple:
    """The product of two numerator tuples, on n's floor; m is never longer than n."""
    if len(m) == 1:
        return tuple([x * m[0] for x in n])
    if len(n) == 2:
        return _zmul(d, n[0], n[1], m[0], m[1])
    if len(m) == 2:
        return _zmul(d, n[0], n[1], m[0], m[1]) + _zmul(d, n[2], n[3], m[0], m[1])
    a, b, c, e = _times(d, n, m[:2])  # n * (x + y*i) = n*x + n*y*i, with i*i = -1
    f, g, h, k = _times(d, n, m[2:])
    return a - h, b - k, c + f, e + g


def _invert(d: int, n: tuple) -> tuple[tuple, int]:
    """1/n as (numerators, positive denominator): the conjugate over the norm,
    which vanishes only at n = 0 (sqrt(d) is irrational, and re^2 + im^2 > 0)."""
    if len(n) > 1:
        h = len(n) // 2
        conj = n[:h] + tuple([-y for y in n[h:]])
        m, r = _invert(d, _times(d, n, conj)[:h])
        return _times(d, conj, m), r
    if not n[0]:
        raise ZeroDivisionError("division by zero in the field tower")
    return ((1,), n[0]) if n[0] > 0 else ((-1,), -n[0])


def _parts(v) -> tuple[tuple, int] | None:
    """(numerators, denominator) of an int, a Fraction or an element; None otherwise."""
    if isinstance(v, _Extension):
        return v._n, v._q
    if isinstance(v, (int, Fraction)):
        return (v.numerator,), v.denominator
    return None


class _Extension:
    """x + y*w over the floor below.  Each subclass binds `__mul__`, `__rmul__`,
    `__pow__` and `inverse` in its own body: perfbench/tracer.py wraps them there."""

    __slots__ = ("_n", "_q", "d")
    __setattr__ = __delattr__ = _frozen
    _below: tuple[type, ...]  # the types a part may have: ints, Fractions, the floor below

    def __new__(cls, x, y, d: int | None = None):
        """x + y*w from parts in lowest terms; over lcm(q, r), so is the result.
        A float or a string is refused: it would round or parse, not stay exact.
        d defaults to the radicand of a part from the floor below."""
        for v in (x, y):
            if not isinstance(v, cls._below):
                raise TypeError(f"{cls.__name__} parts are "
                                f"{', '.join(t.__name__ for t in cls._below)}, not {type(v).__name__}")
            if isinstance(v, _Extension):
                if d is None:
                    d = v.d
                elif v.d != d:
                    raise ValueError(f"mixed radicands: sqrt({d}) vs sqrt({v.d})")
        if d is None:
            raise ValueError(f"{cls.__name__} of two rationals needs a radicand d")
        _check_radicand(d)
        (n, q), (m, r) = _parts(x), _parts(y)
        s, h = lcm(q, r), 2 if cls is GaussQuad else 1  # h numerators per part
        return _make(cls, tuple([v * (s // q) for v in n] + [0] * (h - len(n))
                                + [v * (s // r) for v in m] + [0] * (h - len(m))), s, d)

    @classmethod
    def of(cls, x, y, d: int | None = None):
        """The same as cls(x, y, d)."""
        return cls(x, y, d)

    def __reduce__(self):
        return _make, (type(self), self._n, self._q, self.d)

    def _operand(self, other) -> tuple[tuple, int] | None:
        """_parts(other) for an element of this floor and field or a scalar from below."""
        if isinstance(other, _Extension):
            if len(other._n) > len(self._n):
                return None
            if other.d != self.d:
                raise ValueError(f"mixed radicands: sqrt({self.d}) vs sqrt({other.d})")
        return _parts(other)

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        (m, r), n, q = o, self._n, self._q
        # As in Fraction._add: over lcm(q, r) only a factor of g = gcd(q, r) can
        # be left in common, so the second gcd runs on g rather than on q*r.
        g = gcd(q, r)
        qg, rg = q // g, r // g
        t = tuple([x * rg + y * qg for x, y in zip(n, m)] + [x * rg for x in n[len(m):]])
        return _make(type(self), t, qg * r, self.d, gcd(g, *t) if g > 1 else 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(type(self), tuple([-x for x in self._n]), self._q, self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        (m, r), n, q = o, self._n, self._q
        if len(m) > 1:
            p = _times(self.d, n, m)
            return _make(type(self), p, q * r, self.d, gcd(q * r, *p))
        # A rational p/r: as in Fraction._mul, cancelling gcd(p, q) and
        # gcd(r, *n) first leaves the product in lowest terms.
        g, h = gcd(m[0], q), gcd(r, *n)
        p = m[0] // g
        return _make(type(self), tuple([x // h * p for x in n]), q // g * (r // h), self.d)

    __rmul__ = __mul__

    def conjugate(self):
        n, h = self._n, len(self._n) // 2
        return _make(type(self), n[:h] + tuple([-y for y in n[h:]]), self._q, self.d)

    def norm(self):
        """x^2 - w^2 y^2, the product with the conjugate, on the floor below."""
        return (self * self.conjugate())._x

    def inverse(self):
        m, r = _invert(self.d, self._n)
        m = tuple([x * self._q for x in m])
        return _make(type(self), m, r, self.d, gcd(r, *m))

    def __truediv__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self * (other.inverse() if isinstance(other, _Extension) else 1 / Fraction(other))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** -exponent
        if exponent == 0:
            return _make(type(self), (1,) + (0,) * (len(self._n) - 1), 1, self.d)
        # Left to right: square, then multiply by self, which stays small.
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        # Lowest terms: equal tuples, one zero-padded; across fields, no sqrt(d) part.
        o = _parts(other)
        if o is None:
            return NotImplemented
        (m, r), n = o, self._n
        if len(n) < len(m):
            n, m = m, n
        return (r == self._q and n[:len(m)] == m and not any(n[len(m):])
                and (getattr(other, "d", self.d) == self.d or not any(n[1::2])))

    def __hash__(self):
        # Values from a lower floor hash like that floor, matching __eq__.
        n = self._n
        while len(n) > 1 and not any(n[len(n) // 2:]):
            n = n[:len(n) // 2]
        return hash(Fraction(n[0], self._q)) if len(n) == 1 else hash((n, self._q))


_set_n, _set_q, _set_d = (vars(_Extension)[s].__set__ for s in _Extension.__slots__)


def _make(cls, n: tuple, q: int, d: int, g: int = 1):
    """n/q in `cls`, divided by their common factor g, without the constructors' checks."""
    if g > 1:
        n, q = tuple([x // g for x in n]), q // g
    new = object.__new__(cls)
    _set_n(new, n)
    _set_q(new, q)
    _set_d(new, d)
    return new


class QuadRat(_Extension):
    """a + b*sqrt(d) with rational a, b and squarefree d >= 2."""

    __slots__ = ()
    _below = (int, Fraction)
    a = _x = property(lambda self: Fraction(self._n[0], self._q))
    b = property(lambda self: Fraction(self._n[1], self._q))
    __mul__ = __rmul__ = _Extension.__mul__
    __pow__ = _Extension.__pow__
    inverse = _Extension.inverse

    def __repr__(self) -> str:
        return f"QuadRat({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"


class GaussQuad(_Extension):
    """re + im*i with re, im in the same Q(sqrt(d))."""

    __slots__ = ()
    _below = (int, Fraction, QuadRat)
    re = _x = property(lambda s: _make(QuadRat, s._n[:2], s._q, s.d, gcd(s._q, *s._n[:2])))
    im = property(lambda s: _make(QuadRat, s._n[2:], s._q, s.d, gcd(s._q, *s._n[2:])))
    __mul__ = __rmul__ = _Extension.__mul__
    __pow__ = _Extension.__pow__
    inverse = _Extension.inverse

    def __repr__(self) -> str:
        return f"GaussQuad({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return f"({self.re}) + ({self.im})*i"


def certified_int(x: int | Fraction | QuadRat | GaussQuad) -> int:
    """Collapse x to a rational integer, raising CancellationError on any
    imaginary or sqrt(d) residue or fractional part."""
    if (parts := _parts(x)) is None:
        raise TypeError("certified_int takes an int, a Fraction or a field element, "
                        f"not {type(x).__name__}")
    n, q = parts
    if any(n[2:]):
        raise CancellationError(f"imaginary residue: {x}")
    if any(n[1:]):
        raise CancellationError(f"sqrt({x.d}) residue: {x if len(n) == 2 else x.re}")
    if q != 1:
        raise CancellationError(f"non-integer value: {Fraction(n[0], q)}")
    return n[0]


def binet(seq: Sequence, n: int) -> tuple[int, int]:
    """(U(n), V(n)/s) of seq's Lucas pair at any integer index over Q(sqrt d),
    D = P^2 - 4Q = f^2 d: U(n) = (alpha^n - beta^n)/(f sqrt d) and V(n)/s =
    (alpha^n + beta^n)/s for alpha, beta = (P +- f sqrt d)/2, whose powers are
    computed independently.  Both results are certified integers, not assumed."""
    f, d = seq.radicand
    an = (QuadRat.of(seq.p, f, d) / 2) ** n  # alpha^n
    bn = (QuadRat.of(seq.p, -f, d) / 2) ** n  # beta^n
    return certified_int((an - bn) / QuadRat.of(0, f, d)), certified_int((an + bn) / seq.s)


def binet_pair(n: int) -> tuple[int, int]:
    """(balancing, Lucas-balancing) pair at any integer index: the pair of C = V(6, 1)/2."""
    return binet(LUCAS_BALANCING, n)
