"""Exact JSON and ASCII encodings of the values the CLI prints.

Rationals serialize as two decimal integer strings, polynomials as
coefficient lists lowest degree first.  Rationals, polynomials over Q (as
JSON or canonical ASCII), and curves and points over Q have decoders and
round-trip exactly; values over Q(c), isogenies, fibers, certificates,
Galois reports and family members are encoded for output only.  No floating
point appears anywhere.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .curves import INFINITY, CurvePoint, WeierstrassCurve
from .factor import FACTOR_DEGREE_CAP
from .fields import QQ
from .funcfield import RatFunc
from .isogeny import FiberPolynomial, IsogenyData
from .poly import UniPoly


def rational_to_json(q) -> list:
    q = Fraction(q)
    return [str(q.numerator), str(q.denominator)]


def rational_from_json(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def poly_to_json(f: UniPoly) -> dict:
    if f.field != QQ:
        raise ValueError("JSON polynomial encoding covers rational coefficients")
    return {"var": f.var, "coeffs": [rational_to_json(c) for c in f.coeffs]}


def poly_from_json(obj) -> UniPoly:
    return UniPoly(QQ, [rational_from_json(c) for c in obj["coeffs"]], obj["var"])


def poly_to_ascii(f: UniPoly) -> str:
    """Canonical ASCII form: (num/den)*var^k terms, descending degree."""
    if f.is_zero:
        return "(0/1)*%s^0" % f.var
    parts = []
    for k in range(f.degree, -1, -1):
        c = f.coeff(k)
        if c == 0:
            continue
        c = Fraction(c)
        parts.append(f"({c.numerator}/{c.denominator})*{f.var}^{k}")
    return " + ".join(parts)


# an unsigned term: coefficient, variable power, or both (the * optional)
_TERM = re.compile(
    r"(?:(?P<coef>\d+(?:\s*/\s*\d+)?|\(\s*-?\s*\d+(?:\s*/\s*\d+)?\s*\))"
    r"(?:\s*\*?\s*(?=[A-Za-z]))?)?"
    r"(?:(?P<var>[A-Za-z]\w*)(?:\s*\^\s*(?P<pow>\d+))?)?"
)


def _signed_terms(text):
    """Split text at the + and - signs outside parentheses.

    Every piece but the first starts with its sign; the first piece is the
    text before the first sign (blank when the polynomial starts with one).
    """
    pieces, start, depth = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            pieces.append(text[start:i])
            start = i
    pieces.append(text[start:])
    return pieces


def poly_from_ascii(text: str) -> UniPoly:
    """Parse the canonical ASCII polynomial form (and tolerant variants).

    Accepts terms like '(3/2)*x^2', '-x', '5', 'x^3 - 2*x + 1/3'.  The
    variable is the one the text uses (x for a constant).  Every term
    carries at most one sign; an empty text, a dangling sign, a malformed
    term, a numerator or denominator with more digits than the interpreter's
    int-string limit (sys.get_int_max_str_digits()) or an exponent above
    FACTOR_DEGREE_CAP raises ValueError.
    """
    pieces = _signed_terms(text)
    if not pieces[0].strip():
        pieces = pieces[1:]
    if not pieces:
        raise ValueError(f"empty polynomial text {text!r}")
    coeffs: dict[int, Fraction] = {}
    seen_var = None
    for piece in pieces:
        sign = -1 if piece[0] == "-" else 1
        term = piece[1:].strip() if piece[0] in "+-" else piece.strip()
        if not term:
            raise ValueError(f"missing term after {piece.strip()!r} in {text!r}")
        m = _TERM.fullmatch(term)
        if not m:
            raise ValueError(f"cannot parse polynomial term {term!r} in {text!r}")
        coef_text = re.sub(r"[()\s]", "", m["coef"] or "1")
        # the digit counts are checked first: Fraction() refuses strings longer
        # than the interpreter's limit (0: none, as before Python 3.10.7)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        for digits in coef_text.lstrip("-").split("/"):
            if limit and len(digits) > limit:
                raise ValueError(
                    f"coefficient in term {term!r} of {text!r} has more than {limit}"
                    " digits, the interpreter's int-string limit"
                )
        try:
            coef = sign * Fraction(coef_text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {term!r} in {text!r}") from None
        if m["var"] is None:
            k = 0
        else:
            if seen_var is None:
                seen_var = m["var"]
            elif m["var"] != seen_var:
                raise ValueError(f"mixed variables {seen_var!r} and {m['var']!r}")
            digits = (m["pow"] or "1").lstrip("0") or "0"
            # the digit count is checked first: int() refuses very long strings
            if len(digits) > len(str(FACTOR_DEGREE_CAP)) or int(digits) > FACTOR_DEGREE_CAP:
                raise ValueError(
                    f"exponent {digits} in term {term!r} of {text!r} exceeds the degree cap"
                    f" of {FACTOR_DEGREE_CAP}"
                )
            k = int(digits)
        coeffs[k] = coeffs.get(k, Fraction(0)) + coef
    n = max(coeffs)
    return UniPoly(QQ, [coeffs.get(k, Fraction(0)) for k in range(n + 1)], seen_var or "x")


def _field_elem_to_json(value):
    if isinstance(value, Fraction):
        return rational_to_json(value)
    if isinstance(value, RatFunc):
        return {
            "num": poly_to_json(value.num),
            "den": poly_to_json(value.den),
        }
    raise ValueError(f"cannot encode {value!r}")


def curve_to_json(curve: WeierstrassCurve) -> dict:
    a1, a2, a3, a4, a6 = curve.a_invariants()
    return {
        "a1": _field_elem_to_json(a1),
        "a2": _field_elem_to_json(a2),
        "a3": _field_elem_to_json(a3),
        "a4": _field_elem_to_json(a4),
        "a6": _field_elem_to_json(a6),
    }


def curve_from_json(obj) -> WeierstrassCurve:
    vals = [rational_from_json(obj[k]) for k in ("a1", "a2", "a3", "a4", "a6")]
    return WeierstrassCurve(QQ, *vals)


def point_to_json(P: CurvePoint) -> dict:
    if P.inf:
        return {"inf": True}
    return {"inf": False, "x": _field_elem_to_json(P.x), "y": _field_elem_to_json(P.y)}


def point_from_json(obj) -> CurvePoint:
    if obj.get("inf"):
        return INFINITY
    return CurvePoint.affine(rational_from_json(obj["x"]), rational_from_json(obj["y"]))


def _sym_poly_to_json(f: UniPoly):
    """Polynomial over Q or over Q(c); the latter coefficient-wise."""
    if f.field == QQ:
        return poly_to_json(f)
    return {
        "var": f.var,
        "coeffs": [_field_elem_to_json(c) for c in f.coeffs],
    }


def isogeny_to_json(isog: IsogenyData) -> dict:
    return {
        "degree": isog.degree,
        "domain": curve_to_json(isog.domain),
        "codomain": curve_to_json(isog.codomain),
        "kernel_x": [_field_elem_to_json(x) for x in isog.kernel_x],
        "phi_x_num": _sym_poly_to_json(isog.phi_x_num),
        "phi_x_den": _sym_poly_to_json(isog.phi_x_den),
    }


def fiber_to_json(fiber: FiberPolynomial) -> dict:
    return {
        "poly": poly_to_json(fiber.poly),
        "base_point_x": rational_to_json(fiber.base_point_x),
    }


def certificate_to_json(cert) -> dict:
    out = {
        "l": cert.l,
        "params": {k: rational_to_json(v) for k, v in cert.params.items()},
        "on_curve": cert.on_curve,
        "infinite_order": cert.infinite_order,
        "nontrivial": cert.nontrivial,
        "valid": cert.valid,
        "excluded_reason": cert.excluded_reason,
    }
    out["curve_F"] = curve_to_json(cert.curve_F) if cert.curve_F is not None else None
    out["point"] = point_to_json(cert.point) if cert.point is not None else None
    out["b_point"] = (
        [rational_to_json(cert.b_point[0]), rational_to_json(cert.b_point[1])]
        if cert.b_point is not None
        else None
    )
    out["fiber"] = fiber_to_json(cert.fiber) if cert.fiber is not None else None
    out["witness"] = point_to_json(cert.witness) if cert.witness is not None else None
    return out


def galois_report_to_json(report) -> dict:
    return {
        "degree": report.degree,
        "irreducible": report.irreducible,
        "disc": rational_to_json(report.disc),
        "disc_is_square": report.disc_is_square,
        "group_label": report.group_label,
        "certainty": report.certainty,
        "primes_used": report.primes_used,
        "pattern_histogram": {
            ",".join(str(d) for d in pattern): count
            for pattern, count in sorted(report.pattern_histogram.items())
        },
    }


def family_to_json(fam) -> dict:
    return {
        "family": fam.family,
        "parameters": {k: rational_to_json(v) for k, v in fam.parameters.items()},
        "poly": poly_to_json(fam.poly),
        "ascii": poly_to_ascii(fam.poly),
    }
