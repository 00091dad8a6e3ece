"""Rational function fields K(v): fractions of univariate polynomials.

Used with K = Q for the symbolic parameter of a curve family, so Weierstrass
models and Velu's formulas run unchanged over Q(c).  Fields may be nested,
e.g. FunctionField("b", FunctionField("c")) models Q(c)(b).
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
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UniPoly) and other.field == self.num.field:
            return RatFunc(other, UniPoly.one(other.field, other.var))
        if isinstance(other, (int, Fraction)) or type(other) is type(self.num.field.zero):
            try:
                c = self.num.field(other)
            except (TypeError, ValueError):
                return None
            return RatFunc(
                UniPoly.constant(self.num.field, c, self.num.var),
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

    def evaluate(self, value):
        num = self.num(value)
        den = self.den(value)
        return num / den

    def __repr__(self):
        if self.is_polynomial:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


class FunctionField:
    """The field of rational functions base(var)."""

    def __init__(self, var: str, base=QQ):
        self.var = var
        self.base = base
        one_poly = UniPoly.one(base, var)
        self.zero = RatFunc(UniPoly.zero(base, var), one_poly)
        self.one = RatFunc(one_poly, one_poly)
        self.gen = RatFunc(UniPoly.gen(base, var), one_poly)
        self.name = f"{getattr(base, 'name', base)}({var})"

    def __call__(self, value) -> RatFunc:
        if isinstance(value, RatFunc):
            if value.num.field != self.base or value.num.var != self.var:
                raise ValueError("rational function from a different field")
            return value
        if isinstance(value, UniPoly):
            if value.field != self.base:
                raise ValueError("polynomial over a different base")
            return RatFunc(value, UniPoly.one(self.base, self.var))
        c = self.base(value)
        return RatFunc(
            UniPoly.constant(self.base, c, self.var),
            UniPoly.one(self.base, self.var),
        )

    def divexact(self, a, b):
        return self(a) / self(b)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and other.var == self.var
            and other.base == self.base
        )

    def __hash__(self):
        return hash(("FunctionField", self.var, self.base))
