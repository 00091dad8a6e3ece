"""The explicit polynomial families and their exact inter-transformations.

Closed forms for the generic dihedral quintic family, the Brumer and Darmon
quintics, the simplest cubic and quartic families, and the substitution and
resultant identities connecting them.  All identity checks run formally in
the free parameters (MultiPoly or function-field resultants); rational
arguments give specialized exact checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ
from .funcfield import FunctionField
from .multipoly import MultiPoly, MultiPolyRing
from .poly import UniPoly, resultant


@dataclass
class FamilyPolynomial:
    """A member of a named polynomial family at stored parameter values."""

    family: str
    parameters: dict
    poly: UniPoly


def p_ncl5(n, c) -> FamilyPolynomial:
    """x^5 - nx^4 + (c^3+2nc-c^2-c)x^3 - (c^3+nc^2-3c^2)x^2 + (c^4-3c^3)x + c^4."""
    n = Fraction(n)
    c = Fraction(c)
    x = UniPoly.gen(QQ)
    poly = (
        x ** 5
        - n * x ** 4
        - (-(c ** 3) - 2 * n * c + c * c + c) * x ** 3
        - (c ** 3 + n * c * c - 3 * c * c) * x ** 2
        - (-(c ** 4) + 3 * c ** 3) * x
        + c ** 4
    )
    return FamilyPolynomial("pncl5", {"n": n, "c": c}, poly)


def brumer(s, u) -> FamilyPolynomial:
    """x^5 + (s-3)x^4 + (u-s+3)x^3 + (s^2-s-2u-1)x^2 + ux + s."""
    s = Fraction(s)
    u = Fraction(u)
    x = UniPoly.gen(QQ)
    poly = (
        x ** 5
        + (s - 3) * x ** 4
        + (u - s + 3) * x ** 3
        + (s * s - s - 2 * u - 1) * x ** 2
        + u * x
        + s
    )
    return FamilyPolynomial("brumer", {"s": s, "u": u}, poly)


def darmon(S, T) -> FamilyPolynomial:
    """x^5 - Sx^4 + (T+S+5)x^3 - (S^2+S-2T-5)x^2 + (T+2S+5)x - (S+3)."""
    S = Fraction(S)
    T = Fraction(T)
    x = UniPoly.gen(QQ)
    poly = (
        x ** 5
        - S * x ** 4
        + (T + S + 5) * x ** 3
        - (S * S + S - 2 * T - 5) * x ** 2
        + (T + 2 * S + 5) * x
        - (S + 3)
    )
    return FamilyPolynomial("darmon", {"S": S, "T": T}, poly)


def shanks_cubic(t) -> FamilyPolynomial:
    """X^3 - tX^2 - (t+3)X - 1, the simplest cubic family."""
    t = Fraction(t)
    x = UniPoly.gen(QQ, "X")
    poly = x ** 3 - t * x ** 2 - (t + 3) * x - UniPoly.one(QQ, "X")
    return FamilyPolynomial("shanks", {"t": t}, poly)


def ptilde_cubic(u, v, n) -> FamilyPolynomial:
    """x^3 + ux^2 - nx + v."""
    u, v, n = Fraction(u), Fraction(v), Fraction(n)
    x = UniPoly.gen(QQ)
    return FamilyPolynomial(
        "ptilde3", {"u": u, "v": v, "n": n}, x ** 3 + u * x ** 2 - n * x + v
    )


def ptilde_quartic(n, c) -> FamilyPolynomial:
    """x^4 - 2x^3 + (1-n)x^2 + nx - c."""
    n, c = Fraction(n), Fraction(c)
    x = UniPoly.gen(QQ)
    return FamilyPolynomial(
        "ptilde4", {"n": n, "c": c}, x ** 4 - 2 * x ** 3 + (1 - n) * x * x + n * x - c
    )


def gras_quartic(t) -> FamilyPolynomial:
    """X^4 - tX^3 - 6X^2 + tX + 1, the simplest quartic family."""
    t = Fraction(t)
    x = UniPoly.gen(QQ, "X")
    poly = x ** 4 - t * x ** 3 - 6 * x * x + t * x + UniPoly.one(QQ, "X")
    return FamilyPolynomial("gras", {"t": t}, poly)


# ---------------------------------------------------------------------------
# Exact transformation identities


def _pncl5_terms(n, c):
    """Coefficients [a0..a5] of the quintic family over any commutative ring."""
    one = n * 0 + 1
    return [
        c ** 4,
        -(-(c ** 4) + 3 * c ** 3),
        -(c ** 3 + n * c * c - 3 * c * c),
        -(-(c ** 3) - 2 * n * c + c * c + c),
        -n,
        one,
    ]


def check_brumer_substitution(s=None, u=None) -> bool:
    """(x, n, c) -> (s/x, -u, s) turns the quintic family into Brumer's.

    With both arguments omitted the identity is verified formally in (s, u):
    x^5 * P_{-u,s,5}(s/x) equals s^4 * B_{s,u}(x) as polynomials in (s, u, x).
    With rational s != 0, u the specialized identity is checked exactly.
    """
    if s is None and u is None:
        vars_ = ("s", "u", "x")
        sv, uv, xv = MultiPoly.gens(vars_)
        coeffs = _pncl5_terms(-uv, sv)
        lhs = MultiPoly(vars_)
        # x^5 * P(s/x) = sum a_k s^k x^(5-k)
        for k, a in enumerate(coeffs):
            lhs = lhs + a * sv ** k * xv ** (5 - k)
        bcoeffs = [
            sv * 1,
            uv * 1,
            sv * sv - sv - 2 * uv - 1,
            uv - sv + 3,
            sv - 3,
            MultiPoly.constant(vars_, 1),
        ]
        rhs = MultiPoly(vars_)
        for k, b in enumerate(bcoeffs):
            rhs = rhs + sv ** 4 * b * xv ** k
        return lhs == rhs
    s = Fraction(s)
    u = Fraction(u)
    if s == 0:
        raise ValueError("the substitution needs s != 0")
    P = p_ncl5(-u, s).poly
    # coefficient of x^j in x^5 P(s/x) is a_{5-j} s^{5-j}
    transformed = UniPoly(
        QQ, [a * s ** (5 - j) for j, a in enumerate(reversed(P.coeffs))]
    )
    return transformed.monic() == brumer(s, u).poly


def check_darmon_transform(S=None, T=None) -> bool:
    """(x, s, u) -> (-x, S+3, T+2S+5) carries Brumer's family onto Darmon's.

    Formally in (S, T) when called without arguments, else exactly at the
    given rationals.  The leading coefficient after x -> -x is -1, so the
    comparison negates once.
    """
    if S is None and T is None:
        vars_ = ("S", "T", "x")
        Sv, Tv, xv = MultiPoly.gens(vars_)
        s = Sv + 3
        u = Tv + 2 * Sv + 5
        bcoeffs = [
            s * 1,
            u * 1,
            s * s - s - 2 * u - 1,
            u - s + 3,
            s - 3,
            MultiPoly.constant(vars_, 1),
        ]
        lhs = MultiPoly(vars_)
        for k, b in enumerate(bcoeffs):
            sign = -1 if (k % 2 == 0) else 1  # -B(-x): (-1)^(k+1)
            lhs = lhs + sign * b * xv ** k
        dcoeffs = [
            -(Sv + 3),
            Tv + 2 * Sv + 5,
            -(Sv * Sv + Sv - 2 * Tv - 5),
            Tv + Sv + 5,
            -Sv,
            MultiPoly.constant(vars_, 1),
        ]
        rhs = MultiPoly(vars_)
        for k, d in enumerate(dcoeffs):
            rhs = rhs + d * xv ** k
        return lhs == rhs
    S = Fraction(S)
    T = Fraction(T)
    B = brumer(S + 3, T + 2 * S + 5).poly
    flipped = UniPoly(QQ, [(-1) ** (k + 1) * a for k, a in enumerate(B.coeffs)])
    return flipped == darmon(S, T).poly


def check_shanks_reproduction(t=None) -> bool:
    """ptilde_cubic(-t, -1, t+3) equals the simplest cubic family."""
    if t is None:
        vars_ = ("t", "x")
        tv, xv = MultiPoly.gens(vars_)
        lhs = xv ** 3 + (-tv) * xv * xv - (tv + 3) * xv + MultiPoly.constant(vars_, -1)
        rhs = xv ** 3 - tv * xv * xv - (tv + 3) * xv + MultiPoly.constant(vars_, -1)
        return lhs == rhs
    t = Fraction(t)
    return ptilde_cubic(-t, -1, t + 3).poly.coeffs == shanks_cubic(t).poly.coeffs


def gras_resultant_identity(t=None) -> bool:
    """Resultant(ptilde4(x), X - (t/2 x^2 - (t^2+32)/(8t)), x) is the Gras quartic.

    Verified at (n, c) = ((t^2+32)/(2t^2), (3t^4-1024)/(16t^4)); the formal
    check clears the parameter denominators and runs the subresultant
    algorithm over Q[t, X], normalizing by the leading unit at the end.
    """
    if t is None:
        return _gras_identity_formal()
    t = Fraction(t)
    if t == 0:
        raise ValueError("the Gras specialization needs t != 0")
    FX = FunctionField("X")
    X = FX.gen
    n = (t * t + 32) / (2 * t * t)
    c = (3 * t ** 4 - 1024) / (16 * t ** 4)
    x = UniPoly.gen(FX)
    ptilde = x ** 4 - 2 * x ** 3 + FX(1 - n) * x * x + FX(n) * x - FX(c)
    second = UniPoly(FX, [X + FX((t * t + 32) / (8 * t)), FX.zero, FX(-t / 2)])
    # resultant in x lives in Q(X); compare against the Gras quartic monically
    res = resultant(ptilde, second)
    num = res.num
    lead = num.lc
    normalized = num * (QQ.one / lead)
    target = gras_quartic(t).poly
    return res.is_polynomial and normalized.coeffs == target.coeffs


def _gras_identity_formal() -> bool:
    vars_ = ("t", "X")
    ring = MultiPolyRing(vars_)
    tv, Xv = MultiPoly.gens(vars_)
    # clear denominators: 16 t^4 * ptilde and 8t * (X - t/2 x^2 + (t^2+32)/(8t))
    c16 = lambda q: MultiPoly.constant(vars_, q)
    f1 = UniPoly(
        ring,
        [
            -(3 * tv ** 4 - c16(1024)),                      # -16t^4 c
            8 * tv * tv * (tv * tv + 32),                   # 16t^4 n
            16 * tv ** 4 - 8 * tv * tv * (tv * tv + 32),    # 16t^4 (1-n)
            -32 * tv ** 4,
            16 * tv ** 4,
        ],
    )
    f2 = UniPoly(ring, [8 * tv * Xv + tv * tv + c16(32), ring.zero, -4 * tv * tv])
    res = resultant(f1, f2)
    # res = (16t^4)^2 (8t)^4 * Res(ptilde, X - h); strip the unit and compare
    target = (
        Xv ** 4 - tv * Xv ** 3 - 6 * Xv * Xv + tv * Xv + c16(1)
    )
    scale = res.divexact(target) if _divides(res, target) else None
    if scale is None:
        return False
    # the quotient must be the constant 2^20 t^12 (no X dependence)
    return all(e[1] == 0 for e in scale.terms)


def _divides(a: MultiPoly, b: MultiPoly) -> bool:
    try:
        b.divexact(b)
        a.divexact(b)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def shanks_disc_identity() -> bool:
    """disc(X^3 - tX^2 - (t+3)X - 1) = (t^2 + 3t + 9)^2 formally over Q(t)."""
    from .poly import discriminant

    Ft = FunctionField("t")
    t = Ft.gen
    x = UniPoly.gen(Ft, "X")
    poly = x ** 3 - t * x * x - (t + 3) * x - Ft(1)
    return discriminant(poly) == (t * t + 3 * t + 9) ** 2
