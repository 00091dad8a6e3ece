"""Explicit rational points on the quotient curves for l = 3, 4, 5, 6.

Each construct_* function evaluates the published parametrization exactly and
returns the quotient-model parameter(s) together with the point (x, y_b) on
the model y^2 = f_l(x), taken from _point, the one point formula per level
that the defining identities also evaluate.  certify() assembles the
quotient isogeny, checks the model against quotient_cubic (the one table per
level, also evaluated by the defining identities and AC-1..3), checks the
point, decides torsion/triviality, and attaches the fiber polynomial used by
the cyclic-field application.  Only construct_l5 and ConstructionInput take
as_printed, the uncorrected l = 5 row-1 value, valid at (l, row) = (5, 1).

Model conventions, fixed by matching the quotient tables symbolically:

  l = 3   domain y^2 + a1 xy + a3 y = x^3; the table model is the Velu
          codomain itself.
  l = 5   domain E(c, c); the table model is the Velu codomain in kernel-sum
          coordinates x_model = x + 2c.
  l = 6   domain E(c + c^2, c); the table model is the Velu codomain itself.
  l = 4   domain E(c - 1/16, 0); the table model (x+c)(4x^2+x+c) is the
          quadratic twist by -1 of the Velu codomain, with x-coordinates
          related by x_model = -(x + c + 7/16)/4.  Rational points of the
          published model therefore never lift to rational domain points,
          and triviality is decided on x-coordinates.  No untwisted
          normalization reproduces that table; see the README.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .curves import CurvePoint, WeierstrassCurve, _cubic_at, _field_of, kubert_curve
from .errors import (
    DegenerateParameterError,
    InvariantError,
    OffCurveError,
    SingularCurveError,
    check_parameters,
)
from .fields import QQ, rational_sqrt
from .isogeny import (
    FiberPolynomial,
    has_rational_preimage,
    preimage_x,
    velu_quotient,
)
from .multipoly import MultiPoly


def a5(c, u0):
    """A_5(c) for the given u0 row parameter."""
    return (
        -(4 * u0 + 3) * (u0 + 1) ** 2 * c * c
        + 2 * (2 * u0 + 1) * (11 * u0 * u0 + 11 * u0 + 2) * c
        + u0 * u0 * (4 * u0 + 1)
    )


def _l6_factors(c):
    """(alpha, beta, gamma) with f_{c,6}(x) = (4x - alpha)(x^2 + beta x + gamma)."""
    return (
        19 * c * c + 14 * c - 1,
        2 * c * (2 * c + 1),
        c * (4 * c ** 3 + 4 * c * c + c + 4),
    )


def quotient_cubic(l, *params):
    """(b2, 2b4, b6) of the published quotient model y^2 = f_l(x) at level l.

    params are the level's parameters as quotient_model takes them: (a1, a3)
    at l = 3, c at l = 4, 5, 6; rationals, Q(c) or MultiPoly elements.
    """
    if l == 3:
        a1, a3 = params
        return (a1 * a1, -18 * a1 * a3, -a3 * (4 * a1 ** 3 + 27 * a3))
    (c,) = params
    if l == 5:
        return (
            c * c - 30 * c + 1,
            -2 * c * (3 * c + 1) * (4 * c - 7),
            -c * (4 * c ** 4 - 4 * c ** 3 - 40 * c * c + 91 * c - 4),
        )
    if l == 6:
        alpha, beta, gamma = _l6_factors(c)
        return (4 * beta - alpha, 4 * gamma - alpha * beta, -alpha * gamma)
    if l == 4:
        return (1 + 4 * c, 2 * c, c * c)
    raise ValueError(f"no quotient table for l={l}")


# The variables of each level's point formula, in _point's order.
_POINT_VARIABLES = {3: ("a1", "a3", "u1"), 4: ("c", "u"), 5: ("c", "u0"), 6: ("c", "v0")}


def _point(l, *params):
    """(table parameters, X, s, A, G): the one point formula of level l.

    The point x_{c,l} = X/s^2, y_b = z G/s^3 with z^2 = A lies on the model
    of quotient_cubic(l, *table parameters), so the defining identity reads
    s^6 f_l(X/s^2) = A G^2.  params are _POINT_VARIABLES[l], rationals or
    MultiPoly generators; X, A and G are polynomials in them.
    """
    if l == 3:
        a1, a3, u1 = params
        A = 4 * u1 ** 3 * a3 + (u1 * a1 + 1) ** 2
        return (a1, a3), u1 ** 3 * a3 + a1 * u1 + 1, u1, A, u1 ** 3 * a3 - u1 * a1 - 2
    c, v = params
    if l == 4:
        return (c,), v * v - c, 1, 4 * c * c - 8 * v * v * c + v * v * (4 * v * v + 1), v
    if l == 5:
        X = -(v + 1) * c * c + (11 * v + 8) * c + v
        return (c,), X, 1, a5(c, v), c * c - 11 * c - 1
    if l == 6:
        w = 3 * v * v
        A = 9 * (w + 1) ** 2 * c * c + 2 * (w + 1) * (w + 5) * c + (v * v - 1) ** 2
        return (c,), _l6_factors(c)[0] + v * v * (9 * c + 1) ** 2, 2, A, 2 * v * (9 * c + 1) ** 2
    raise ValueError(f"no point formula for l={l}")


def _model_point(l, z, *params):
    """(x, y_b) = (X/s^2, z G/s^3) of _point(l, *params) for z^2 = A."""
    _, X, s, _, G = _point(l, *params)
    return X / (s * s), z * G / s ** 3


class QuotientModel(namedtuple("QuotientModel", "l parameter isogeny curve scale shift twisted")):
    """Quotient isogeny wired to the published model of its codomain.

    x_model = scale * x_velu + shift; for l != 4 this is an isomorphism of
    curves and y_b transfers unchanged, for l = 4 it carries the documented
    quadratic twist and only x-level data transports.
    """

    __slots__ = ()

    def from_model_x(self, x_model):
        return (x_model - self.shift) / self.scale


def quotient_model(l, *params) -> QuotientModel:
    """The degree-l quotient of the Kubert curve, in the published model.

    The parameters are coerced into their common field as in kubert_curve:
    Q(c) when one of them is symbolic, else Q, so parameter holds Fractions
    over Q; a float or a string raises TypeError.
    """
    if l not in (3, 4, 5, 6):
        raise ValueError(f"constructions cover l in {{3,4,5,6}}, got {l}")
    _, params = _field_of(params)
    kubert_params = params
    if l == 4:
        (c,) = params  # the l = 4 table belongs to the Kubert curve at c - 1/16
        kubert_params = (c - Fraction(1, 16),)
    E, A = kubert_curve(l, *kubert_params)
    isog = velu_quotient(E, A, l)
    F = E.field
    model, scale, shift = isog.codomain, F.one, F.zero
    if l == 5:
        for Q in isog.kernel_points:
            shift = shift + Q.x
        model = isog.codomain.translated(-shift)
    elif l == 4:
        model = WeierstrassCurve(F, F.one, F(c), F(c), F.zero, F.zero)
        scale = -F.one / F(4)
        shift = -(F(c) + F(Fraction(7, 16))) / F(4)
    return QuotientModel(l, params, isog, model, scale, shift, l == 4)


# ---------------------------------------------------------------------------
# The parametrized points


def _check_as_printed(l, row, as_printed):
    """ValueError for as_printed outside (l, row) = (5, 1), its one valid place."""
    if as_printed and (l, row) != (5, 1):
        raise ValueError(f"as_printed applies to (l, row) = (5, 1) only, not {(l, row)}")


def construct_l5(row: int, *, z=None, t=None, m=None, as_printed: bool = False):
    """(c, x, y_b) for the three published l=5 parametrization rows.

    Each row fixes c, u0 and z with z^2 = A_5(c, u0); x and y_b come from
    _point.  Row 1 as printed gives c = (z^2-3)/4, which contradicts the
    defining identity A_5(c) = z^2 at u0 = -1 (A_5 = -4c-3 forces
    c = -(z^2+3)/4); the corrected value is used unless as_printed is set.

    Row 3 needs no square test on the data: with u0 = (t^2-1)/4 and c as
    below, A_5(c, u0) = (P / (4 den))^2 identically in t and m, where
    P = t^9 + 7t^7 + 13t^5 - 3t^3 - 18t + 44mt^6 + 132mt^4 + 84mt^2 - 4m
    - 16m^2t^3 + 16m^2t and den = t^6 + 8t^4 + 21t^2 + 16m^2 + 18 >= 18.
    A non-square there is a defect of this code and raises InvariantError.
    as_printed on row 2 or 3 raises ValueError, as ConstructionInput does.
    """
    _check_as_printed(5, row, as_printed)
    if row in (1, 2):
        if z is None:
            raise DegenerateParameterError(f"row {row} needs the parameter z")
        z = QQ(z)
        if row == 1:
            u0 = Fraction(-1)
            c = (z * z - 3) / 4 if as_printed else -(z * z + 3) / 4
        else:
            u0 = Fraction(-3, 4)
            c = 16 * z * z + 18
    elif row == 3:
        if t is None or m is None:
            raise DegenerateParameterError("row 3 needs the parameters t and m")
        t, m = QQ(t), QQ(m)
        u0 = (t * t - 1) / 4
        den = t ** 6 + 8 * t ** 4 + 21 * t * t + 16 * m * m + 18
        c = (11 * t ** 6 + 33 * t ** 4 - 8 * m * t ** 3 + 21 * t * t + 8 * m * t - 1) / den
        z = rational_sqrt(a5(c, u0))
        if z is None:
            raise InvariantError(f"A_5 is not a rational square at row 3, t = {t}, m = {m}")
    else:
        raise DegenerateParameterError(f"row must be 1, 2 or 3, got {row!r}")
    return (c, *_model_point(5, z, c, u0))


def construct_l3(a1, u1, z):
    """(a3, x, y_b): a3 solves A_3 = z^2, and x, y_b come from _point(3, a1, a3, u1)."""
    a1, u1, z = QQ(a1), QQ(u1), QQ(z)
    if u1 == 0:
        raise DegenerateParameterError("u1 must be nonzero")
    a3 = (z * z - (u1 * a1 + 1) ** 2) / (4 * u1 ** 3)
    return (a3, *_model_point(3, z, a1, a3, u1))


def construct_l4(u, v):
    """(c, x, y_b): z = v + 2c has z^2 = A_4, and x, y_b come from _point(4, c, u)."""
    u, v = QQ(u), QQ(v)
    den = 4 * v + 8 * u * u
    if den == 0:
        raise DegenerateParameterError("4v + 8u^2 must be nonzero")
    c = (u * u * (4 * u * u + 1) - v * v) / den
    return (c, *_model_point(4, v + 2 * c, c, u))


def construct_l6(v0, z):
    """(c, x, y_b): x and y_b >= 0 come from _point(6, c, v0) at the root P/den of A_6.

    With den = (z+3+9v0^2)(z-3-9v0^2) and c as below, A_6(c, v0) = (P/den)^2
    identically in v0 and z, where P = 81v0^6 - 18v0^4 z - 27v0^4 + v0^2 z^2
    - 36v0^2 z - 45v0^2 - z^2 - 10z - 9, so no square root is taken.
    """
    v0, z = QQ(v0), QQ(z)
    w = v0 * v0
    den = (z + 3 + 9 * w) * (z - 3 - 9 * w)
    if den == 0:
        raise DegenerateParameterError("(z+3+9v0^2)(z-3-9v0^2) must be nonzero")
    c = 2 * (9 * w * w + 18 * w - w * z + z + 5) / den
    P = 81 * w ** 3 - 18 * w * w * z - 27 * w * w + w * z * z - 36 * w * z - 45 * w - z * z - 10 * z - 9
    x, yb = _model_point(6, P / den, c, v0)
    return c, x, abs(yb)


# ---------------------------------------------------------------------------
# Defining identities, formally


def verify_defining_identity(l: int) -> bool:
    """Exact multivariate check of f_l(x_{c,l}) = A_l G_l^2 at level l.

    _point and quotient_cubic, the very copies that construct_l3..l6 and
    certify evaluate, are taken at MultiPoly generators and compared as
    s^6 f_l(X/s^2) = A G^2; no level retypes its formula here.
    """
    if l not in _POINT_VARIABLES:
        raise ValueError(f"no defining identity for l={l}")
    table, X, s, A, G = _point(l, *MultiPoly.gens(_POINT_VARIABLES[l]))
    return _cubic_at(quotient_cubic(l, *table), X, s * s) == A * G ** 2


# ---------------------------------------------------------------------------
# Certificates


# The free parameters of each construction by (l, row), named as the keywords
# of construct_l3/4/5/6; only l = 5 has rows.
CONSTRUCTION_PARAMETERS = {
    (3, None): ("a1", "u1", "z"),
    (4, None): ("u", "v"),
    (5, 1): ("z",),
    (5, 2): ("z",),
    (5, 3): ("t", "m"),
    (6, None): ("v0", "z"),
}


class ConstructionInput(namedtuple("ConstructionInput", "l row params as_printed")):
    """Free parameters selecting one constructed point.

    They are checked against CONSTRUCTION_PARAMETERS once, here, and kept
    read-only in the table's order; as_printed is valid at (l, row) = (5, 1) only.
    """

    __slots__ = ()

    def __new__(cls, l, row=None, params=None, as_printed=False):
        params = {} if params is None else params
        key = (l, row)
        names = CONSTRUCTION_PARAMETERS.get(key)
        if names is None:
            raise ValueError(f"no (l, row) = {key} in {CONSTRUCTION_PARAMETERS}")
        _check_as_printed(l, row, as_printed)
        check_parameters(f"the (l, row) = {key} construction", names, params)
        params = MappingProxyType({k: QQ(params[k]) for k in names})
        return super().__new__(cls, l, row, params, as_printed)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check the replaced fields here too
        return cls(*iterable)

    def __getnewargs__(self):
        # a mapping proxy does not pickle; unpickling checks the plain dict again
        return (self.l, self.row, dict(self.params), self.as_printed)


class NontrivialPointCertificate(
    namedtuple(
        "NontrivialPointCertificate",
        "l params curve_F point b_point infinite_order nontrivial fiber excluded_reason witness",
        defaults=(None, None, None, False, False, None, None, None),
    )
):
    """Evidence record for one constructed quotient-curve point.

    A certificate that stops early sets only what it established.
    """

    __slots__ = ()

    @property
    def on_curve(self) -> bool:
        return self.point is not None

    @property
    def valid(self) -> bool:
        return self.on_curve and self.infinite_order and self.nontrivial


def _construct(inp: ConstructionInput):
    """Run the row construction; returns (certificate params, model args, x, y_b)."""
    p = inp.params
    if inp.l == 3:
        a3, x, yb = construct_l3(**p)
        return {"a1": p["a1"], "a3": a3, **p}, (p["a1"], a3), x, yb
    if inp.l == 5:
        c, x, yb = construct_l5(inp.row, as_printed=inp.as_printed, **p)
        return {"c": c, "row": Fraction(inp.row), **p}, (c,), x, yb
    c, x, yb = (construct_l4 if inp.l == 4 else construct_l6)(**p)
    return {"c": c, **p}, (c,), x, yb


def certify(inp: ConstructionInput) -> NontrivialPointCertificate:
    """Full evidence for one constructed point.

    Degenerate parameters (singular curve, torsion output, precondition
    failures) produce certificates carrying an excluded_reason instead of
    raising, so parameter sweeps stay total.
    """
    try:
        params, model_args, x, yb = _construct(inp)
    except DegenerateParameterError as exc:
        return NontrivialPointCertificate(inp.l, dict(inp.params), excluded_reason=str(exc))
    try:
        model = quotient_model(inp.l, *model_args)
    except (SingularCurveError, DegenerateParameterError, ZeroDivisionError) as exc:
        return NontrivialPointCertificate(
            inp.l, params, b_point=(x, yb),
            excluded_reason=f"singular or undefined curve: {exc}",
        )
    F = model.curve
    if not model_matches_table(model):
        raise InvariantError(f"model drifted from table: {F.b_form()}")
    try:
        point = F.from_b_point(x, yb)
    except OffCurveError:
        return NontrivialPointCertificate(
            inp.l, params, curve_F=F, b_point=(x, yb),
            excluded_reason=(
                "constructed point is not on the model curve"
                + (" (printed row-1 formula contradicts A_5(c) = z^2)" if inp.as_printed else "")
            ),
        )
    if yb == 0:
        return NontrivialPointCertificate(
            inp.l, params, curve_F=F, point=point, b_point=(x, yb),
            excluded_reason="torsion point (y=0)",
        )
    infinite = F.is_infinite_order(point)
    nontrivial, witness = _no_rational_preimage(model, x, yb)
    fiber = _cyclic_fiber(model, point)
    reason = None
    if not nontrivial:
        reason = "rational preimage exists (trivial point)"
    elif not infinite:
        reason = "torsion point"
    return NontrivialPointCertificate(
        inp.l, params, F, point, (x, yb), infinite, nontrivial, fiber,
        excluded_reason=reason, witness=witness,
    )


def model_matches_table(model: QuotientModel) -> bool:
    """Whether the table cubic f of quotient_cubic at model.parameter is the model's.

    f must be the b-form cubic of model.curve, and the chart x_model = s x + r
    (scale, shift) must carry the Velu codomain's b-form cubic g onto it:
    f(s x + r) = s^3 g(x), i.e. 12r + b2 = s g2, (12r + 2b2) r + 2b4 = s^2 2g4
    and f(r) = s^3 g6.  At l = 4, s^3 = -1/64 is the twist by -1.
    """
    field = model.curve.field
    f = tuple(field(w) for w in quotient_cubic(model.l, *model.parameter))
    b2, b4x2, _ = f
    b, g = model.curve.b_form(), model.isogeny.codomain.b_form()
    s, r = model.scale, model.shift
    return (
        (b.b2, 2 * b.b4, b.b6) == f
        and 12 * r + b2 == s * g.b2
        and (12 * r + 2 * b2) * r + b4x2 == s * s * 2 * g.b4
        and _cubic_at(f, r) == s ** 3 * g.b6
    )


def _no_rational_preimage(model: QuotientModel, x, yb):
    """(nontrivial, witness): exact preimage decision for the model point (x, y_b).

    An untwisted model is an isomorphism of curves that keeps y_b, so the
    point moves to the Velu codomain by its x-coordinate alone.
    """
    x_velu = model.from_model_x(x)
    if model.twisted:
        witness = preimage_x(model.isogeny, x_velu)
        return witness is None, witness
    Q = model.isogeny.codomain.from_b_point(x_velu, yb)
    found, witness = has_rational_preimage(model.isogeny, Q)
    return not found, witness


def _cyclic_fiber(model: QuotientModel, point: CurvePoint) -> FiberPolynomial:
    """The fiber polynomial feeding the cyclic-field application.

    For odd l this is the fiber below the point itself.  For even l the
    published parametrizations force the linear factor of f to be a square,
    which places the point in the image of the degree-2 stage of the isogeny
    and splits its own fiber; the cyclic field is carried by the fiber below
    point + T, where T is the rational 2-torsion point of the model; point + T
    is affine, because certify has already excluded the 2-torsion points
    (y_b = 0).  Both points come from from_b_point, which checks them, so
    their sum takes the unchecked add.
    """
    F = model.curve
    if model.l in (3, 5):
        base = point.x
    else:
        xT = _rational_two_torsion_x(model)
        T = F.from_b_point(xT, F.field.zero)
        base = F._add(point, T).x
    x_velu = model.from_model_x(base)
    # base_point_x is in the model chart for the twisted l = 4, else the Velu one
    return FiberPolynomial(
        poly=model.isogeny.fiber(x_velu),
        base_point_x=base if model.twisted else x_velu,
    )


def _rational_two_torsion_x(model: QuotientModel):
    """x of the rational 2-torsion point on the published even-l model."""
    (c,) = model.parameter
    if model.l == 4:
        # root of the (x + c) factor of (x+c)(4x^2+x+c)
        return -c
    # l = 6: root of the (4x - alpha) factor
    return _l6_factors(c)[0] / 4
