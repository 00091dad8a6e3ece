"""The exact coefficient field Q, and square roots of rationals.

A field object exposes ``zero``, ``one``, coercion via ``__call__`` and a
``name``; its elements divide with ``/``.  That keeps the polynomial layer
generic over the coefficient field (Q here, Q(c) in ``funcfield``).
Rational numbers are plain ``fractions.Fraction`` values, which already
guarantee lowest terms and a positive denominator; ``QQ`` coerces ints and
Fractions only, since text is parsed at the CLI and JSON boundary.  GF(p)
has no field object: it lives only in the int-list kernel ``intpoly``, where
``factor`` reduces into it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

def rational_sqrt(q):
    """Nonnegative exact square root of a rational, or None if not a square."""
    q = QQ(q)
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
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()
