"""Dense univariate polynomials over a pluggable coefficient field.

A polynomial's ring is its coefficient field plus its variable: arithmetic,
division, gcd and resultant between polynomials of different rings raise
ValueError (one check, _same_ring), and == and hash compare both.  Composition is evaluation,
f(g) = f(g(x)).  Coefficients are stored lowest degree first with no
trailing zeros.  The same class serves the fields Q and Q(c), and no
coefficient ring here is anything but a field: a field object gives only
zero, one, coercion and a name, its elements divide with ``/``, and the
resultant is Euclid's over the field.  Integer and modular work is
not done here: the gcd over Q hands the primitive integer models of its
operands to the int-list kernel in ``intpoly``, which is also what the
factoring and Galois layers use.
"""

from __future__ import annotations

from .errors import ZeroPolynomialError
from .fields import QQ
from .intpoly import gcd_zz, integer_model


class UniPoly:
    """A univariate polynomial; immutable once built."""

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field, coeffs, var: str = "x"):
        zero = field.zero
        cs = [field(c) for c in coeffs]
        while cs and cs[-1] == zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def zero(cls, field, var="x"):
        return cls(field, (), var)

    @classmethod
    def one(cls, field, var="x"):
        return cls(field, (field.one,), var)

    @classmethod
    def gen(cls, field, var="x"):
        """The polynomial x."""
        return cls(field, (field.zero, field.one), var)

    @classmethod
    def constant(cls, field, c, var="x"):
        return cls(field, (field(c),), var)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient; raises on the zero polynomial."""
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        """Coefficient of x^k."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def _wrap(self, coeffs):
        return UniPoly(self.field, coeffs, self.var)

    def _same_ring(self, other: "UniPoly"):
        if other.field != self.field:
            raise ValueError("mixed coefficient fields")
        if other.var != self.var:
            raise ValueError("mixed variables")

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            self._same_ring(other)
            return other
        try:
            return self._wrap((self.field(other),))
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return self._wrap([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return self._wrap([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            self._same_ring(other)
            if self.is_zero or other.is_zero:
                return self._wrap(())
            z = self.field.zero
            out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == z:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return self._wrap(out)
        try:
            c = self.field(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._wrap([a * c for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly.one(self.field, self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return (
                self.var == other.var and self.field == other.field and self.coeffs == other.coeffs
            )
        if self.degree > 0:
            return NotImplemented
        try:
            c = self.field(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.coeffs or (self.field.zero,))[0] == c

    def __hash__(self):
        return hash((self.field, self.var, self.coeffs))

    def __call__(self, x):
        """Evaluate by Horner; x may live in any ring the coefficients embed into.

        For a polynomial g this is the composition f(g(x)), in g's variable
        (a constant f gives its constant coefficient).
        """
        if not self.coeffs:
            return self.field.zero if not hasattr(x, "__mul__") else x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def divmod(self, other: "UniPoly"):
        """Quotient and remainder; requires an invertible leading coefficient."""
        self._same_ring(other)
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.degree < other.degree:
            return self._wrap(()), self
        z = self.field.zero
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        quo = [z] * (dq + 1)
        inv_lc = self.field.one / other.lc
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lc
            quo[k] = c
            if c != z:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return self._wrap(quo), self._wrap(rem[: other.degree])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor over a field.

        Over Q (both degrees above 2) the gcd of the primitive integer models
        is taken in the int-list kernel, which keeps intermediate coefficients
        small; other fields use plain Euclid.  Few calls reach that kernel (3 of
        1909 in one symbolic benchmark pass), but with Euclid alone symbolic
        Velu at l = 10 took 46 s against 2.5 s (Python 3.11, 2 CPUs).
        """
        self._same_ring(other)
        if self.field == QQ and self.degree > 2 and other.degree > 2:
            return _gcd_primitive_q(self, other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        if self.lc == self.field.one:
            return self
        inv = self.field.one / self.lc
        return self._wrap([c * inv for c in self.coeffs])

    def derivative(self) -> "UniPoly":
        F = self.field
        return self._wrap([F(k) * c for k, c in enumerate(self.coeffs) if k > 0])

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == self.field.zero:
                continue
            parts.append(f"({c})*{self.var}^{k}")
        return " + ".join(parts)


def resultant(f: UniPoly, g: UniPoly):
    """Resultant of f and g, with the convention resultant(f, x - c) = f(c).

    This is Res(g, f), the Sylvester determinant with g's rows first, taken
    by Euclid's remainder sequence over the coefficient field: for
    A = Q*B + R, Res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A - deg R) Res(B, R).
    """
    f._same_ring(g)
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("resultant of a zero polynomial")
    A, B = g, f
    res = f.field.one
    while B.degree > 0:
        R = A % B
        if R.is_zero:
            return f.field.zero
        if A.degree & B.degree & 1:
            res = -res
        res = res * B.lc ** (A.degree - R.degree)
        A, B = B, R
    return res * B.lc ** A.degree


def discriminant(f: UniPoly):
    """(-1)^(n(n-1)/2) * resultant(f, f') / lc(f) for deg f = n >= 2."""
    n = f.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = resultant(f, f.derivative()) / f.lc
    if (n * (n - 1) // 2) % 2:
        res = -res
    return res


def _gcd_primitive_q(f: UniPoly, g: UniPoly) -> UniPoly:
    """gcd over Q through the primitive integer remainder sequence."""
    h = gcd_zz(integer_model(f.coeffs)[1], integer_model(g.coeffs)[1])
    return UniPoly(f.field, h, f.var).monic()
