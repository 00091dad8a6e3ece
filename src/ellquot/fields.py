"""Exact coefficient fields: the rationals and prime fields GF(p).

Field objects expose ``zero``, ``one``, coercion via ``__call__`` and
``divexact``; elements are immutable and carry the usual operators, so the
polynomial layer stays generic over the coefficient field.  Rational numbers
are plain ``fractions.Fraction`` values, which already guarantee lowest terms
and a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Rational = Fraction


def rational(value, den=None) -> Fraction:
    """Coerce ints, strings like '3/4', or pairs into an exact rational."""
    if den is not None:
        return Fraction(value, den)
    return Fraction(value)


def rational_sqrt(q):
    """Nonnegative exact square root of a rational, or None if not a square."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def is_square(q) -> bool:
    return rational_sqrt(q) is not None


class RationalField:
    """The field Q; elements are fractions.Fraction."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def divexact(self, a, b):
        return a / b

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


class FpElement:
    """An element of GF(p), normalized to 0 <= value < p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, Fraction):
            return FpElement(other.numerator, self.p) / FpElement(other.denominator, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return FpElement(pow(self.value, k, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return FpElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, Fraction):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3317044064679887385961981."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field GF(p) for an odd or even prime p."""

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)
        self.name = f"GF({p})"

    def __call__(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ValueError("mixed prime fields")
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return FpElement(value.numerator, self.p) / FpElement(value.denominator, self.p)
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def divexact(self, a, b):
        return a / b

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))
