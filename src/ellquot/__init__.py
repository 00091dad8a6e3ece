"""Exact arithmetic for elliptic quotient curves and polynomial families.

Kubert families of elliptic curves with a marked point of order l, their
degree-l quotient isogenies by Velu's formulas, the explicit non-trivial
rational points on the quotient models for l = 3..6, and the cyclic and
dihedral polynomial families these points generate.  All arithmetic is exact;
no floating point appears anywhere.
"""

from .constructions import (
    ConstructionInput,
    NontrivialPointCertificate,
    certify,
    construct_l3,
    construct_l4,
    construct_l5,
    construct_l6,
    quotient_model,
    verify_defining_identity,
)
from .curves import BForm, CurvePoint, INFINITY, WeierstrassCurve, kubert_curve, tate_curve
from .errors import (
    DegenerateParameterError,
    EllquotError,
    InvariantError,
    OffCurveError,
    SingularCurveError,
    TorsionOrderError,
    ZeroPolynomialError,
)
from .factor import FactorList, factor_mod_p, factor_over_Q, rational_roots
from .families import (
    FamilyPolynomial,
    brumer,
    check_brumer_substitution,
    check_darmon_transform,
    check_shanks_reproduction,
    darmon,
    gras_quartic,
    gras_resultant_identity,
    p_ncl5,
    ptilde_cubic,
    ptilde_quartic,
    shanks_cubic,
)
from .fields import QQ, is_square, rational_sqrt
from .funcfield import FunctionField, RatFunc
from .galois import GaloisReport, cyclic_from_fiber, frobenius_patterns, galois_group
from .isogeny import (
    FiberPolynomial,
    IsogenyData,
    fiber_polynomial,
    has_rational_preimage,
    lift_x,
    push_point,
    velu_quotient,
)
from .multipoly import MultiPoly, MultiPolyRing
from .poly import UniPoly, discriminant, prem, resultant
from .verify import draw_input, run_battery

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "rational_sqrt",
    "is_square",
    "FunctionField",
    "RatFunc",
    "MultiPoly",
    "MultiPolyRing",
    "UniPoly",
    "resultant",
    "discriminant",
    "prem",
    "FactorList",
    "factor_mod_p",
    "factor_over_Q",
    "rational_roots",
    "WeierstrassCurve",
    "CurvePoint",
    "BForm",
    "INFINITY",
    "kubert_curve",
    "tate_curve",
    "IsogenyData",
    "FiberPolynomial",
    "velu_quotient",
    "push_point",
    "fiber_polynomial",
    "has_rational_preimage",
    "lift_x",
    "ConstructionInput",
    "NontrivialPointCertificate",
    "certify",
    "construct_l3",
    "construct_l4",
    "construct_l5",
    "construct_l6",
    "quotient_model",
    "verify_defining_identity",
    "FamilyPolynomial",
    "p_ncl5",
    "brumer",
    "darmon",
    "shanks_cubic",
    "ptilde_cubic",
    "ptilde_quartic",
    "gras_quartic",
    "check_brumer_substitution",
    "check_darmon_transform",
    "check_shanks_reproduction",
    "gras_resultant_identity",
    "GaloisReport",
    "galois_group",
    "frobenius_patterns",
    "cyclic_from_fiber",
    "run_battery",
    "draw_input",
    "EllquotError",
    "InvariantError",
    "SingularCurveError",
    "DegenerateParameterError",
    "OffCurveError",
    "TorsionOrderError",
    "ZeroPolynomialError",
]
