"""Exact JSON and ASCII encodings of the values the CLI prints, and its readers.

Rationals serialize as two decimal integer strings, polynomials over Q and
over Q(c) (one encoder, poly_to_json) as coefficient lists lowest degree
first, and polynomials over Q also in a canonical ASCII form that
poly_from_ascii reads back.  Nothing reads JSON back.  No floating point
appears anywhere.  rational_from_ascii is the one reader of a rational the
CLI is given, flag or polynomial coefficient.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .curves import CurvePoint, WeierstrassCurve
from .factor import FACTOR_DEGREE_CAP
from .fields import QQ
from .funcfield import RatFunc
from .isogeny import FiberPolynomial, IsogenyData
from .poly import UniPoly

# The largest printed integer has up to 55.3 times the digits of the input
# rationals (quotient --l 12: 2103 digits at 38, 2158 at 39), so at this cap
# every command prints at most 2150 digits
MAX_RATIONAL_DIGITS = 38
# room for one term per degree, each a cap-sized (num/den) with 32 characters
# to spare for its sign, parentheses, spaces, variable and exponent
MAX_POLY_TEXT = (FACTOR_DEGREE_CAP + 1) * (2 * MAX_RATIONAL_DIGITS + 32)

_RATIONAL = re.compile(r"\s*(-?)\s*([0-9]+)\s*(?:/\s*([0-9]+)\s*)?", re.ASCII)


def _excerpt(text: str) -> str:
    """repr of text cut to 24 characters, fewer than an overlong number's digits."""
    return repr(text) if len(text) <= 24 else repr(text[:24]) + "..."


def rational_from_ascii(text: str, what: str) -> Fraction:
    """The rational that text writes as -?[0-9]+(/[0-9]+)?, ASCII digits, spaces allowed.

    Other text, a zero denominator, or more than MAX_RATIONAL_DIGITS digits
    in the numerator or denominator raises ValueError naming `what` (a flag
    or a polynomial term) and quoting no overlong number.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"{what}: {_excerpt(text)} is not a rational -?[0-9]+(/[0-9]+)?")
    sign, num, den = m.groups()
    for part, digits in (("numerator", num), ("denominator", den or "")):
        if len(digits) > MAX_RATIONAL_DIGITS:
            raise ValueError(
                f"{what}: the {part} has more than {MAX_RATIONAL_DIGITS} digits,"
                " the cap on every rational input (jsonio.MAX_RATIONAL_DIGITS)"
            )
    if den and not int(den):
        raise ValueError(f"{what}: zero denominator")
    return Fraction(int(sign + num), int(den or 1))


def rational_to_json(q) -> list:
    q = Fraction(q)
    return [str(q.numerator), str(q.denominator)]


def poly_to_json(f: UniPoly) -> dict:
    """{"var", "coeffs"} for a polynomial over Q or over Q(c).

    A coefficient over Q(c) is encoded as its num/den pair of polynomials
    over Q; other coefficient rings raise ValueError.
    """
    return {"var": f.var, "coeffs": [_field_elem_to_json(c) for c in f.coeffs]}


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


# an unsigned term: coefficient (bare, or in parentheses with its own sign),
# variable power, or both (the * optional)
_TERM = re.compile(
    r"(?:(?P<coef>\([^()]*\)|[^()*A-Za-z]+?)(?:\s*\*?\s*(?=[A-Za-z]))?)?"
    r"(?:(?P<var>[A-Za-z]\w*)(?:\s*\^\s*(?P<pow>\d+))?)?",
    re.ASCII,
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

    A sum of terms, each after a + or - sign (optional on the first): a
    coefficient, a power var^k (var for k = 1), or both, joined by an
    optional *, as in '(3/2)*x^2', '-x', '5', 'x^3 - 2*x + 1/3'.  A
    coefficient is read by rational_from_ascii, bare, or in parentheses with
    its own sign ('-(-3/2)*x' is (3/2)*x).  One variable serves the text (x
    for a constant); terms of one degree add up.  A text over MAX_POLY_TEXT
    characters (checked first), an empty text, a dangling sign, a malformed
    term, an exponent above FACTOR_DEGREE_CAP, or terms of one degree summing
    to a numerator or denominator over MAX_RATIONAL_DIGITS digits raises
    ValueError quoting at most 24 characters of the term and of the text.
    """
    where = _excerpt(text)
    if len(text) > MAX_POLY_TEXT:
        raise ValueError(
            f"polynomial text {where} is longer than {MAX_POLY_TEXT} characters,"
            " the cap (jsonio.MAX_POLY_TEXT)"
        )
    pieces = _signed_terms(text)
    if not pieces[0].strip():
        pieces = pieces[1:]
    if not pieces:
        raise ValueError(f"empty polynomial text {where}")
    coeffs: dict[int, Fraction] = {}
    seen_var = None
    for piece in pieces:
        sign = -1 if piece[0] == "-" else 1
        term = piece[1:].strip() if piece[0] in "+-" else piece.strip()
        if not term:
            raise ValueError(f"missing term after {piece.strip()!r} in {where}")
        m = _TERM.fullmatch(term)
        if not m:
            raise ValueError(f"cannot parse polynomial term {_excerpt(term)} in {where}")
        coef_text = (m["coef"] or "1").strip("()")
        coef = sign * rational_from_ascii(coef_text, f"term {_excerpt(term)} in {where}")
        k = 0
        if m["var"]:
            if seen_var not in (None, m["var"]):
                raise ValueError(f"mixed variables {_excerpt(seen_var)} and {_excerpt(m['var'])}")
            seen_var = m["var"]
            digits = (m["pow"] or "1").lstrip("0") or "0"
            # the digit count is checked first: int() refuses very long strings
            if len(digits) > len(str(FACTOR_DEGREE_CAP)) or int(digits) > FACTOR_DEGREE_CAP:
                raise ValueError(
                    f"exponent in term {_excerpt(term)} of {where} exceeds the degree cap"
                    f" of {FACTOR_DEGREE_CAP}"
                )
            k = int(digits)
        coeffs[k] = coeffs.get(k, Fraction(0)) + coef
    # terms of one degree add up; their sum, too, keeps to the digit cap
    for k, coef in coeffs.items():
        for part, n in (("numerator", coef.numerator), ("denominator", coef.denominator)):
            if abs(n) >= 10 ** MAX_RATIONAL_DIGITS:
                raise ValueError(
                    f"the terms of degree {k} in {where} sum to a {part} of more than"
                    f" {MAX_RATIONAL_DIGITS} digits, the cap on every rational input"
                    " (jsonio.MAX_RATIONAL_DIGITS)"
                )
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


def point_to_json(P: CurvePoint) -> dict:
    if P.inf:
        return {"inf": True}
    return {"inf": False, "x": _field_elem_to_json(P.x), "y": _field_elem_to_json(P.y)}


def isogeny_to_json(isog: IsogenyData) -> dict:
    return {
        "degree": isog.degree,
        "domain": curve_to_json(isog.domain),
        "codomain": curve_to_json(isog.codomain),
        "kernel_x": [_field_elem_to_json(x) for x in isog.kernel_x],
        "phi_x_num": poly_to_json(isog.phi_x_num),
        "phi_x_den": poly_to_json(isog.phi_x_den),
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
    out = report._asdict()
    out["disc"] = rational_to_json(report.disc)
    out["pattern_histogram"] = {
        ",".join(str(d) for d in pattern): count
        for pattern, count in sorted(report.pattern_histogram.items())
    }
    return out


def family_to_json(fam) -> dict:
    return {
        "family": fam.family,
        "parameters": {k: rational_to_json(v) for k, v in fam.parameters.items()},
        "poly": poly_to_json(fam.poly),
        "ascii": poly_to_ascii(fam.poly),
    }
