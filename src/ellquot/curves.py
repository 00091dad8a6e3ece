"""Long Weierstrass curves over a generic field, group law, Kubert families.

Curves are y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with exact field
coefficients; points are affine pairs plus a distinguished infinity.  The
one-parameter Kubert families are Tate normal forms E(b, c) on which (0, 0)
has exact order l, checked at construction time by the group law itself.

A point is checked against the curve equation once, where it enters the
group law: add (both points), neg, scalar_mul, order_of_point (and through it
is_infinite_order and kubert_curve's order walk), b_point and from_b_point
raise OffCurveError for a point off the curve.  The loops of scalar_mul and
order_of_point, the Velu kernel walk, push_point's kernel sums and the
cyclic-fiber translate of the constructions add through the unchecked _add
(and scalar_mul negates through _neg): the sum of two points on the curve is
on the curve, so a point built from checked points needs no check of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateParameterError,
    OffCurveError,
    SingularCurveError,
    TorsionOrderError,
)
from .fields import QQ
from .funcfield import FunctionField, RatFunc

MAZUR_TORSION_BOUND = 12


@dataclass(frozen=True)
class CurvePoint:
    """Affine point or the point at infinity."""

    inf: bool
    x: object = None
    y: object = None

    @classmethod
    def affine(cls, x, y):
        return cls(False, x, y)

    def __repr__(self):
        if self.inf:
            return "O"
        return f"({self.x}, {self.y})"


INFINITY = CurvePoint(True)


@dataclass(frozen=True)
class BForm:
    """Invariants of the model y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6."""

    b2: object
    b4: object
    b6: object
    b8: object


class WeierstrassCurve:
    """Nonsingular long Weierstrass model over a field."""

    __slots__ = ("field", "a1", "a2", "a3", "a4", "a6", "_b")

    def __init__(self, field, a1, a2, a3, a4, a6):
        self.field = field
        self.a1 = field(a1)
        self.a2 = field(a2)
        self.a3 = field(a3)
        self.a4 = field(a4)
        self.a6 = field(a6)
        self._b = None
        if self.discriminant() == field.zero:
            raise SingularCurveError(
                f"singular model (a1..a6 = {self.a_invariants()})"
            )

    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def b_form(self) -> BForm:
        if self._b is None:
            a1, a2, a3, a4, a6 = self.a_invariants()
            b2 = a1 * a1 + 4 * a2
            b4 = 2 * a4 + a1 * a3
            b6 = a3 * a3 + 4 * a6
            b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
            self._b = BForm(b2, b4, b6, b8)
        return self._b

    def discriminant(self):
        b = self.b_form()
        return (
            -b.b2 * b.b2 * b.b8
            - 8 * b.b4 ** 3
            - 27 * b.b6 * b.b6
            + 9 * b.b2 * b.b4 * b.b6
        )

    def contains(self, P: CurvePoint) -> bool:
        if P.inf:
            return True
        x, y = self.field(P.x), self.field(P.y)
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x ** 3 + self.a2 * x * x + self.a4 * x + self.a6
        return lhs == rhs

    def _require(self, P: CurvePoint):
        if not self.contains(P):
            raise OffCurveError(f"{P!r} is not on the curve")

    def neg(self, P: CurvePoint) -> CurvePoint:
        self._require(P)
        return self._neg(P)

    def _neg(self, P: CurvePoint) -> CurvePoint:
        if P.inf:
            return P
        return CurvePoint.affine(P.x, -P.y - self.a1 * P.x - self.a3)

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """Chord-tangent addition with infinity as the identity."""
        self._require(P)
        self._require(Q)
        return self._add(P, Q)

    def _add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """add without the checks, for points already on the curve.

        The sum of two points on the curve is on the curve, so a walk that
        starts from checked points stays on it.
        """
        if P.inf:
            return Q
        if Q.inf:
            return P
        a1, a2, a3, a4, _ = self.a_invariants()
        x1, y1 = self.field(P.x), self.field(P.y)
        x2, y2 = self.field(Q.x), self.field(Q.y)
        if x1 == x2:
            if y2 == -y1 - a1 * x1 - a3:
                return INFINITY
            denom = 2 * y1 + a1 * x1 + a3
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / denom
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = lam * (x1 - x3) - y1 - a1 * x3 - a3
        return CurvePoint.affine(x3, y3)

    def scalar_mul(self, k: int, P: CurvePoint) -> CurvePoint:
        """k*P by double-and-add."""
        self._require(P)
        if k < 0:
            k, P = -k, self._neg(P)
        out = INFINITY
        base = P
        while k:
            if k & 1:
                out = self._add(out, base)
            k >>= 1
            if k:
                base = self._add(base, base)
        return out

    def order_of_point(self, P: CurvePoint, bound: int):
        """Least k <= bound with k*P = O, else None."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self._require(P)
        acc = P
        for k in range(1, bound + 1):
            if acc.inf:
                return k
            acc = self._add(acc, P)
        return None

    def is_infinite_order(self, P: CurvePoint) -> bool:
        """Proof-grade infinite-order test for rational points over Q.

        Rational torsion orders divide an element order of at most 12, so a
        point with 12 nonvanishing multiples cannot be torsion.  P is checked
        once, on entry; its multiples are not checked again.
        """
        if self.field != QQ:
            raise ValueError("is_infinite_order is specific to curves over Q")
        return self.order_of_point(P, MAZUR_TORSION_BOUND) is None

    # -- b-form transfer ----------------------------------------------------

    def b_point(self, P: CurvePoint):
        """(x, 2y + a1 x + a3) on y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6."""
        self._require(P)
        if P.inf:
            raise ValueError("infinity has no affine b-form image")
        return (P.x, 2 * P.y + self.a1 * P.x + self.a3)

    def from_b_point(self, xb, yb) -> CurvePoint:
        """Inverse of b_point."""
        xb = self.field(xb)
        yb = self.field(yb)
        y = (yb - self.a1 * xb - self.a3) / self.field(2)
        P = CurvePoint.affine(xb, y)
        self._require(P)
        return P

    def b_rhs(self, x):
        """4x^3 + b2 x^2 + 2 b4 x + b6 at x."""
        b = self.b_form()
        x = self.field(x)
        return 4 * x ** 3 + b.b2 * x * x + 2 * b.b4 * x + b.b6

    def translated(self, r) -> "WeierstrassCurve":
        """The same curve in coordinates x' = x - r (so x = x' + r)."""
        r = self.field(r)
        a1, a2, a3, a4, a6 = self.a_invariants()
        return WeierstrassCurve(
            self.field,
            a1,
            a2 + 3 * r,
            a3 + r * a1,
            a4 + 2 * r * a2 + 3 * r * r,
            a6 + r * a4 + r * r * a2 + r ** 3,
        )

    def __eq__(self, other):
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return self.field == other.field and self.a_invariants() == other.a_invariants()

    def __hash__(self):
        return hash((self.field, self.a_invariants()))

    def __repr__(self):
        a1, a2, a3, a4, a6 = self.a_invariants()
        return f"E[{a1}, {a2}, {a3}, {a4}, {a6}] over {self.field}"


def tate_curve(field, b, c) -> WeierstrassCurve:
    """E(b, c): y^2 + (1 - c)xy - by = x^3 - bx^2, the Tate normal form."""
    one = field.one
    return WeierstrassCurve(field, one - field(c), -field(b), -field(b), field.zero, field.zero)


# (b(d), c(d)) putting a point of order l at (0, 0); the classical one
# parameter specializations of the Tate normal form.  Every entry is
# re-validated by the order oracle in kubert_curve.
def _bc_4(d):
    return d, 0 * d


def _bc_5(d):
    return d, d


def _bc_6(d):
    return d * d + d, d


def _bc_7(d):
    return d * d * (d - 1), d * (d - 1)


def _bc_8(d):
    v = (2 * d - 1) * (d - 1)
    return v, v / d


def _bc_9(d):
    c = d * d * (d - 1)
    return c * (d * (d - 1) + 1), c


def _bc_10(d):
    den = d * d - 3 * d + 1
    c = -d * (d - 1) * (2 * d - 1) / den
    b = -c * d * d / den
    return b, c


def _bc_12(d):
    c = -d * (2 * d - 1) * (3 * d * d - 3 * d + 1) / (d - 1) ** 3
    b = -c * (2 * d * d - 2 * d + 1) / (d - 1)
    return b, c


_KUBERT_BC = {
    4: _bc_4,
    5: _bc_5,
    6: _bc_6,
    7: _bc_7,
    8: _bc_8,
    9: _bc_9,
    10: _bc_10,
    12: _bc_12,
}

# The parameter names of each level, in kubert_curve's argument order.
KUBERT_PARAMETERS = {3: ("a1", "a3"), **dict.fromkeys(_KUBERT_BC, ("c",))}


def kubert_curve(l: int, *params):
    """The Kubert family member with its marked point of exact order l.

    l = 3 needs two parameters (a1, a3) for y^2 + a1 xy + a3 y = x^3; the
    other levels need one parameter c.  The marked point is A = (0, 0); its
    order is verified by the group law and a TorsionOrderError is raised when
    it is not exactly l (which cannot happen at nonsingular parameters of a
    correct table entry).
    """
    if l not in KUBERT_PARAMETERS:
        raise ValueError(f"l must be one of {sorted(KUBERT_PARAMETERS)}, got {l}")
    if len(params) != len(KUBERT_PARAMETERS[l]):
        raise ValueError(f"l={l} takes {len(KUBERT_PARAMETERS[l])} parameter(s)")
    field, params = _field_of(params)
    if l == 3:
        a1, a3 = params
        curve = WeierstrassCurve(field, a1, field.zero, a3, field.zero, field.zero)
    else:
        try:
            b, c = _KUBERT_BC[l](params[0])
        except ZeroDivisionError as exc:
            raise DegenerateParameterError(
                f"parameter {params[0]} makes the l={l} Kubert form undefined"
            ) from exc
        curve = tate_curve(field, b, c)
    A = CurvePoint.affine(field.zero, field.zero)
    order = curve.order_of_point(A, max(16, l))
    if order != l:
        raise TorsionOrderError(f"(0,0) has order {order}, expected {l}")
    return curve, A


def _field_of(params):
    """(field, params coerced into it): Q(c) if one parameter is symbolic, else Q.

    Each parameter goes through the field's coercion, so a float or a string
    raises TypeError instead of being read as a rational.
    """
    field = next((FunctionField(p.num.var) for p in params if isinstance(p, RatFunc)), QQ)
    return field, tuple(field(q) for q in params)
