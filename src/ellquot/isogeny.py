"""The cyclic quotient isogeny E -> E/<A> by Velu's formulas.

The codomain keeps a1, a2, a3 and replaces a4, a6 by a4 - 5t and
a6 - b2*t - 7w, where t and w are the usual sums over the kernel with the
2-torsion point counted once.  The x-coordinate map is

    X(P) = x + sum over kernel representatives of t_T/(x - x_T) + u_T/(x - x_T)^2

added one term at a time from x/1, by cross-multiplying and with no
polynomial division, into a single fraction over the monic denominator
prod (x - x_T)^e_T, with e_T = 1 at the 2-torsion point and 2 elsewhere, so
fiber polynomials are canonical.  The fraction is already reduced, so no gcd
is taken: at a representative T the numerator takes the value u_T (t_T at the
2-torsion point) times the nonzero product of (x_T - x_R)^e_R over the other
representatives R, and u_T = g_y(T)^2, t_T = g_x(T) at 2-torsion, are nonzero
on a nonsingular curve.  velu_quotient checks this nonvanishing at each x_T
and returns the isogeny as IsogenyData, a named tuple like every result record.
Everything runs over Q and symbolically over Q(c).
"""

from __future__ import annotations

from collections import namedtuple

from .curves import INFINITY, CurvePoint, WeierstrassCurve
from .errors import (
    DegenerateParameterError,
    InvariantError,
    OffCurveError,
    TorsionOrderError,
)
from .factor import rational_roots
from .fields import QQ, rational_sqrt
from .poly import UniPoly


class IsogenyData(namedtuple("IsogenyData", "domain codomain kernel_x phi_x_num phi_x_den degree"
                             " kernel_points")):
    """A degree-l cyclic isogeny with rational kernel <A>: its curves, x-map and kernel."""

    __slots__ = ()

    def fiber(self, x) -> UniPoly:
        """Monic phi_x_num - x * phi_x_den: its roots are the x-coordinates mapping to x.

        The caller vouches for x; fiber_polynomial is the checked entry point.
        """
        poly = self.phi_x_num - self.phi_x_den * self.domain.field(x)
        if poly.degree != self.degree:
            raise InvariantError(
                f"fiber of degree {poly.degree} under an isogeny of degree {self.degree}"
            )
        return poly.monic()


FiberPolynomial = namedtuple("FiberPolynomial", "poly base_point_x")
FiberPolynomial.__doc__ = "Monic degree-l polynomial whose roots are the preimage x-coordinates."


def velu_quotient(curve: WeierstrassCurve, A: CurvePoint, l: int) -> IsogenyData:
    """Quotient isogeny of degree l with kernel generated by A.

    A must have exact order l on the curve: it is checked on the curve once,
    and the curve's walk over its multiples (_multiples, up to lA) that
    collects the kernel is also the order check.  The x-map num/den starts at x/1
    and each representative Q adds t_Q/(x - x_Q), then u_Q/(x - x_Q)^2 unless
    Q is the 2-torsion point.  It is reduced without a gcd, as the module
    docstring argues: num(x_Q) is u_Q (t_Q at the 2-torsion point) times
    nonzero differences x_Q - x_R.  Each num(x_Q) is evaluated; a zero raises
    InvariantError.
    """
    if A.inf:
        raise TorsionOrderError("the kernel generator cannot be infinity")
    curve._require(A)
    kernel = curve._multiples(A, l)
    if kernel is None or len(kernel) != l - 1:
        order = f"above {l}" if kernel is None else len(kernel) + 1
        raise TorsionOrderError(f"kernel generator has order {order}, expected {l}")
    F = curve.field
    a1, a2, a3, a4, a6 = curve.a_invariants()
    b = curve.b_form()

    # one representative per +-pair; the 2-torsion point (l even) stands alone
    reps = [(kernel[i], False) for i in range((l - 1) // 2)]
    if l % 2 == 0:
        reps.append((kernel[l // 2 - 1], True))

    x = UniPoly.gen(F)
    t = F.zero
    w = F.zero
    num = x
    den = UniPoly.one(F)
    for Q, is_two_torsion in reps:
        gx = 3 * Q.x * Q.x + 2 * a2 * Q.x + a4 - a1 * Q.y
        gy = -2 * Q.y - a1 * Q.x - a3
        tQ = gx if is_two_torsion else 2 * gx - a1 * gy
        uQ = gy * gy
        t = t + tQ
        w = w + uQ + Q.x * tQ
        lin = x - Q.x
        num = num * lin + den * tQ
        if not is_two_torsion:
            num = num * lin + den * uQ
            den = den * lin
        den = den * lin

    codomain = WeierstrassCurve(F, a1, a2, a3, a4 - 5 * t, a6 - b.b2 * t - 7 * w)

    if num.degree != l or den.degree != l - 1:
        raise InvariantError(f"x-map degrees {num.degree}/{den.degree} for l = {l}")
    for Q, _ in reps:
        if not num(Q.x):
            raise InvariantError(f"x-map numerator vanishes at the kernel x = {Q.x}")

    return IsogenyData(
        domain=curve,
        codomain=codomain,
        kernel_x=[Q.x for Q, _ in reps],
        phi_x_num=num,
        phi_x_den=den,
        degree=l,
        kernel_points=kernel,
    )


def push_point(isog: IsogenyData, P: CurvePoint) -> CurvePoint:
    """phi(P), via the coordinate sums x + sum(x(P+Q) - x(Q)) over the kernel.

    Kernel points and infinity map to infinity.  P is checked on the domain
    once; the kernel sums use the unchecked add, as P and the kernel points are
    on it.  Images are verified to sit on the codomain.
    """
    E = isog.domain
    if P.inf:
        return INFINITY
    if not E.contains(P):
        raise OffCurveError(f"{P!r} is not on the isogeny domain")
    if any(P == Q for Q in isog.kernel_points):
        return INFINITY
    xs = P.x
    ys = P.y
    for Q in isog.kernel_points:
        S = E._add(P, Q)
        xs = xs + S.x - Q.x
        ys = ys + S.y - Q.y
    image = CurvePoint.affine(xs, ys)
    if not isog.codomain.contains(image):
        raise InvariantError(f"the image {image!r} is not on the codomain")
    return image


def fiber_polynomial(isog: IsogenyData, xQ) -> FiberPolynomial:
    """Monic degree-l polynomial with roots x(P + iA) over the preimages P + iA.

    xQ must be the x-coordinate of a rational point Q on the codomain; over Q
    this is checked through the curve equation.
    """
    F = isog.domain.field
    xQ = F(xQ)
    if F == QQ and rational_sqrt(isog.codomain.b_rhs(xQ)) is None:
        raise DegenerateParameterError(
            f"x = {xQ} is not the x-coordinate of a rational point on the codomain"
        )
    return FiberPolynomial(poly=isog.fiber(xQ), base_point_x=xQ)


def lift_x(curve: WeierstrassCurve, x):
    """Rational points of a curve over Q with the given x-coordinate, sorted by y."""
    root = rational_sqrt(curve.b_rhs(x))
    if root is None:
        return []
    return [curve.from_b_point(x, yb) for yb in sorted({root, -root})]


def preimage_x(isog: IsogenyData, x):
    """A rational domain point whose image has x-coordinate x, or None.

    It lies above the smallest rational root of the fiber below x that lifts
    to a rational point, and is the lift with the smaller y.
    """
    for x0 in sorted(set(rational_roots(isog.fiber(x)))):
        lifts = lift_x(isog.domain, x0)
        if lifts:
            return lifts[0]
    return None


def has_rational_preimage(isog: IsogenyData, Q: CurvePoint):
    """(found, witness): does some rational P on the domain push to Q?

    The verdict is exact.  A root x0 of the fiber below Q is a root of
    num - x_Q * den with den(x0) != 0, as num and den are coprime, so a
    rational lift P of x0 has x(phi(P)) = x_Q, that is phi(P) = +-Q; and
    phi(-P) = -phi(P), so P or -P pushes to Q.
    """
    if Q.inf:
        raise ValueError("the preimage test needs an affine point")
    if not isog.codomain.contains(Q):
        raise OffCurveError(f"{Q!r} is not on the isogeny codomain")
    P = preimage_x(isog, Q.x)
    if P is None:
        return False, None
    return True, P if push_point(isog, P) == Q else isog.domain._neg(P)
