"""Exact arithmetic in the tower Q < Q(sqrt(d)) < Q(sqrt(d))(i).

Both floors are quadratic extensions of the floor below them, so one class
body, `_Extension`, holds all the arithmetic: an element is x + y*w with x, y
in the floor below and w*w a fixed element of it.  `QuadRat` is a + b*sqrt(d)
with rational a, b (w*w = d); `GaussQuad` is re + im*i with re, im in one
Q(sqrt(d)) (w*w = -1).  An operand from a lower floor (an int, a Fraction, or
a QuadRat beside a GaussQuad) acts on the coordinates directly and is never
lifted into a full element.  Elements are immutable and every operation is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt


class CancellationError(ArithmeticError):
    """An exact value expected to be a rational integer carried a nonzero
    irrational or imaginary residue (or a fractional part)."""


@cache
def _check_radicand(d: int) -> None:
    if d < 2 or any(d % (p * p) == 0 for p in range(2, isqrt(d) + 1)):
        raise ValueError(f"d must be squarefree and >= 2, got {d}")


def _frozen(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Extension:
    """x + y*w over the floor below, where w*w is `_w2`.

    A subclass sets `_scalars`, the types of the floors below, and `_w2`.
    It also binds `__mul__`, `__rmul__`, `__pow__` and `inverse` in its own
    body, because perfbench/tracer.py wraps them from each class's dict.
    """

    __slots__ = ("_x", "_y", "d")
    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return _make, (type(self), self._x, self._y, self.d)

    def _same(self, other) -> bool | None:
        """True for an element of this floor and field, False for a scalar
        from a floor below, None for anything else."""
        if type(other) is type(self):
            if other.d != self.d:
                raise ValueError(f"mixed radicands: sqrt({self.d}) vs sqrt({other.d})")
            return True
        return False if isinstance(other, self._scalars) else None

    def __add__(self, other):
        same = self._same(other)
        if same is None:
            return NotImplemented
        if same:
            return _make(type(self), self._x + other._x, self._y + other._y, self.d)
        return _make(type(self), self._x + other, self._y, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _make(type(self), -self._x, -self._y, self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        same = self._same(other)
        if same is None:
            return NotImplemented
        x, y = self._x, self._y
        if same:
            u, v = other._x, other._y
            return _make(type(self), x * u + self._w2 * (y * v), x * v + y * u, self.d)
        return _make(type(self), x * other, y * other, self.d)

    __rmul__ = __mul__

    def conjugate(self):
        return _make(type(self), self._x, -self._y, self.d)

    def norm(self):
        """x^2 - w^2 y^2, the product with the conjugate: an element of the
        floor below."""
        return self._x * self._x - self._w2 * (self._y * self._y)

    def inverse(self):
        # The norm vanishes only at zero: sqrt(d) is irrational for squarefree
        # d >= 2, and re^2 + im^2 > 0 in the real field Q(sqrt(d)).
        nrm = self.norm()
        if nrm == 0:
            raise ZeroDivisionError(f"inverse of zero in {type(self).__name__}")
        inv = 1 / nrm
        return _make(type(self), self._x * inv, -self._y * inv, self.d)

    def __truediv__(self, other):
        same = self._same(other)
        if same is None:
            return NotImplemented
        if same:
            return self * other.inverse()
        return _make(type(self), self._x / other, self._y / other, self.d)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** -exponent
        if exponent == 0:
            return _make(type(self), self._x ** 0, self._y * 0, self.d)
        result, base = None, self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        # Equal coordinates are equal values unless w differs, which only
        # sqrt(d) does across fields.
        if type(other) is type(self):
            return (self._x == other._x and self._y == other._y
                    and (self._y == 0 or self._w2 == other._w2))
        if isinstance(other, self._scalars):
            return self._y == 0 and self._x == other
        return NotImplemented

    def __hash__(self):
        # Values from a lower floor hash like that floor, matching __eq__.
        return hash(self._x) if self._y == 0 else hash((self._x, self._y))


_set_x, _set_y, _set_d = (vars(_Extension)[s].__set__ for s in _Extension.__slots__)


def _make(cls, x, y, d):
    """An element of `cls` without the public constructor's checks."""
    new = object.__new__(cls)
    _set_x(new, x)
    _set_y(new, y)
    _set_d(new, d)
    return new


class QuadRat(_Extension):
    """a + b*sqrt(d) with rational a, b and squarefree d >= 2."""

    __slots__ = ()
    _scalars = (int, Fraction)
    _w2 = _Extension.d  # w = sqrt(d), so w*w is the radicand
    a, b = _Extension._x, _Extension._y
    __mul__ = __rmul__ = _Extension.__mul__
    __pow__ = _Extension.__pow__
    inverse = _Extension.inverse

    def __init__(self, a, b, d: int) -> None:
        _check_radicand(d)
        _set_x(self, a)
        _set_y(self, b)
        _set_d(self, d)

    @classmethod
    def of(cls, a: int | Fraction, b: int | Fraction, d: int) -> QuadRat:
        return cls(Fraction(a), Fraction(b), d)

    def __repr__(self) -> str:
        return f"QuadRat({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"


def sqrt_of(d: int) -> QuadRat:
    """The element sqrt(d) itself."""
    return QuadRat.of(0, 1, d)


class GaussQuad(_Extension):
    """re + im*i with re, im in the same Q(sqrt(d))."""

    __slots__ = ()
    _scalars = (int, Fraction, QuadRat)
    _w2 = -1
    re, im = _Extension._x, _Extension._y
    __mul__ = __rmul__ = _Extension.__mul__
    __pow__ = _Extension.__pow__
    inverse = _Extension.inverse

    def __init__(self, re: QuadRat, im: QuadRat) -> None:
        if re.d != im.d:
            raise ValueError("re and im must share the radicand")
        _set_x(self, re)
        _set_y(self, im)
        _set_d(self, re.d)

    @classmethod
    def of(cls, re, im, d: int | None = None) -> GaussQuad:
        if not isinstance(re, QuadRat):
            re = QuadRat.of(re, 0, d)
        if not isinstance(im, QuadRat):
            im = QuadRat.of(im, 0, re.d)
        return cls(re, im)

    def __repr__(self) -> str:
        return f"GaussQuad({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return f"({self.re}) + ({self.im})*i"


def certified_fraction(x: Fraction | QuadRat | GaussQuad) -> Fraction:
    """Collapse x to a plain rational, raising CancellationError if any
    sqrt(d) or imaginary component survives."""
    if isinstance(x, GaussQuad):
        if x.im.a != 0 or x.im.b != 0:
            raise CancellationError(f"imaginary residue: {x}")
        x = x.re
    if isinstance(x, QuadRat):
        if x.b != 0:
            raise CancellationError(f"sqrt({x.d}) residue: {x}")
        x = x.a
    return x


def certified_int(x: Fraction | QuadRat | GaussQuad) -> int:
    """Collapse x to a rational integer, raising CancellationError on any residue."""
    f = certified_fraction(x)
    if f.denominator != 1:
        raise CancellationError(f"non-integer value: {f}")
    return int(f)


def binet_pair(n: int) -> tuple[int, int]:
    """(balancing, Lucas-balancing) pair at any integer index, evaluated from the
    closed forms over Q(sqrt(2)) with the two unit powers computed independently:
    B(n) = (u^n - v^n)/(4 sqrt 2), C(n) = (u^n + v^n)/2 for u = 3 + 2 sqrt 2,
    v = 3 - 2 sqrt 2.  The rationality of both results is certified, not assumed.
    """
    u = QuadRat.of(3, 2, 2)
    v = QuadRat.of(3, -2, 2)
    un, vn = u ** n, v ** n
    b = certified_int((un - vn) / QuadRat.of(0, 4, 2))
    c = certified_int((un + vn) / 2)
    return b, c
