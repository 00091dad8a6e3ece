"""Rational function fields Q(v): fractions of univariate polynomials over Q.

Used for the symbolic parameter of a curve family, so Weierstrass models and
Velu's formulas run unchanged over Q(c), and for the formal family identities
over Q(t).
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ
from .poly import UniPoly


class RatFunc:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num.is_zero:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        else:
            den = UniPoly.one(den.field, den.var)
        lc = den.lc
        if lc != den.field.one:
            inv = den.field.one / lc
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    def _coerce(self, other):
        """other as an element of this field, None for a foreign type.

        A rational function or a polynomial over Q in another variable
        raises ValueError.
        """
        if isinstance(other, RatFunc):
            if other.num.var != self.num.var:
                raise ValueError("mixed variables")
            return other
        if isinstance(other, UniPoly) and other.field == QQ:
            if other.var != self.num.var:
                raise ValueError("mixed variables")
            return RatFunc(other, UniPoly.one(QQ, other.var))
        if isinstance(other, (int, Fraction)):
            return RatFunc(
                UniPoly.constant(self.num.field, other, self.num.var),
                UniPoly.one(self.num.field, self.num.var),
            )
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return (RatFunc(self.den, self.num)) ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero

    def __repr__(self):
        if self.is_polynomial:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


class FunctionField:
    """The field Q(var) of rational functions in one variable."""

    def __init__(self, var: str):
        self.var = var
        one_poly = UniPoly.one(QQ, var)
        self.zero = RatFunc(UniPoly.zero(QQ, var), one_poly)
        self.one = RatFunc(one_poly, one_poly)
        self.gen = RatFunc(UniPoly.gen(QQ, var), one_poly)
        self.name = f"{QQ.name}({var})"

    def __call__(self, value) -> RatFunc:
        out = self.zero._coerce(value)
        if out is None:
            raise TypeError(f"cannot coerce {value!r} into {self.name}")
        return out

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.var == self.var

    def __hash__(self):
        return hash(("FunctionField", self.var))
