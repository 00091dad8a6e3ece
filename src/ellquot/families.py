"""The explicit polynomial families and their exact inter-transformations.

Closed forms for the generic dihedral quintic family, the Brumer and Darmon
quintics, the simplest cubic and quartic families, and the substitution and
resultant identities connecting them.  Each family's coefficients are written
once, in a function that works over any commutative ring: the public
constructors evaluate it at rationals through the FAMILIES table, and the
identity checks evaluate the same function at MultiPoly generators, so each
identity is verified formally in the free parameters.  The substitution
checks compare coefficient by coefficient; the Gras check multiplies out
the resultant as a product over the roots of ptilde4.  Every identity is
an equality of MultiPoly sums and products; none divides.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantError, check_parameters
from .fields import QQ
from .funcfield import FunctionField
from .multipoly import MultiPoly
from .poly import UniPoly, discriminant


FamilyPolynomial = namedtuple("FamilyPolynomial", "family parameters poly")
FamilyPolynomial.__doc__ = "A member of a named polynomial family at stored parameter values."


# Coefficients [a0, a1, ...] (lowest degree first) of each family, over any
# commutative ring containing the parameters.


def _pncl5_coeffs(n, c):
    return [
        c ** 4,
        c ** 4 - 3 * c ** 3,
        -(c ** 3 + n * c * c - 3 * c * c),
        c ** 3 + 2 * n * c - c * c - c,
        -n,
        1,
    ]


def _brumer_coeffs(s, u):
    return [s, u, s * s - s - 2 * u - 1, u - s + 3, s - 3, 1]


def _darmon_coeffs(S, T):
    return [-(S + 3), T + 2 * S + 5, -(S * S + S - 2 * T - 5), T + S + 5, -S, 1]


def _shanks_coeffs(t):
    return [-1, -(t + 3), -t, 1]


def _ptilde3_coeffs(u, v, n):
    return [v, -n, u, 1]


def _ptilde4_coeffs(n, c):
    return [-c, n, 1 - n, -2, 1]


def _gras_coeffs(t):
    return [1, t, -6, -t, 1]


# Each family by name: its coefficient function, the parameter names in the
# order that function takes them, and the polynomial's variable.
FAMILIES = {
    "pncl5": (_pncl5_coeffs, ("n", "c"), "x"),
    "brumer": (_brumer_coeffs, ("s", "u"), "x"),
    "darmon": (_darmon_coeffs, ("S", "T"), "x"),
    "shanks": (_shanks_coeffs, ("t",), "X"),
    "ptilde3": (_ptilde3_coeffs, ("u", "v", "n"), "x"),
    "ptilde4": (_ptilde4_coeffs, ("n", "c"), "x"),
    "gras": (_gras_coeffs, ("t",), "X"),
}


def family_polynomial(name, params: dict) -> FamilyPolynomial:
    """The member of family `name` at `params`, checked against FAMILIES once.

    The parameters must be exactly the family's; they are kept as rationals
    in the table's order.
    """
    if name not in FAMILIES:
        raise ValueError(f"no family {name!r} in {sorted(FAMILIES)}")
    coeffs, names, var = FAMILIES[name]
    check_parameters(f"family {name}", names, params)
    values = {k: QQ(params[k]) for k in names}
    return FamilyPolynomial(name, values, UniPoly(QQ, coeffs(*values.values()), var))


def p_ncl5(n, c) -> FamilyPolynomial:
    """x^5 - nx^4 + (c^3+2nc-c^2-c)x^3 - (c^3+nc^2-3c^2)x^2 + (c^4-3c^3)x + c^4."""
    return family_polynomial("pncl5", {"n": n, "c": c})


def brumer(s, u) -> FamilyPolynomial:
    """x^5 + (s-3)x^4 + (u-s+3)x^3 + (s^2-s-2u-1)x^2 + ux + s."""
    return family_polynomial("brumer", {"s": s, "u": u})


def darmon(S, T) -> FamilyPolynomial:
    """x^5 - Sx^4 + (T+S+5)x^3 - (S^2+S-2T-5)x^2 + (T+2S+5)x - (S+3)."""
    return family_polynomial("darmon", {"S": S, "T": T})


def shanks_cubic(t) -> FamilyPolynomial:
    """X^3 - tX^2 - (t+3)X - 1, the simplest cubic family."""
    return family_polynomial("shanks", {"t": t})


def ptilde_cubic(u, v, n) -> FamilyPolynomial:
    """x^3 + ux^2 - nx + v."""
    return family_polynomial("ptilde3", {"u": u, "v": v, "n": n})


def ptilde_quartic(n, c) -> FamilyPolynomial:
    """x^4 - 2x^3 + (1-n)x^2 + nx - c."""
    return family_polynomial("ptilde4", {"n": n, "c": c})


def gras_quartic(t) -> FamilyPolynomial:
    """X^4 - tX^3 - 6X^2 + tX + 1, the simplest quartic family."""
    return family_polynomial("gras", {"t": t})


# ---------------------------------------------------------------------------
# Exact transformation identities


def check_brumer_substitution() -> bool:
    """(x, n, c) -> (s/x, -u, s) turns the quintic family into Brumer's.

    x^5 * P_{-u,s}(s/x) must equal s^4 * B_{s,u}(x): the coefficient of x^j
    on the left is a_{5-j} s^{5-j}.  Verified formally in (s, u).
    """
    s, u = MultiPoly.gens(("s", "u"))
    a = _pncl5_coeffs(-u, s)
    b = _brumer_coeffs(s, u)
    return all(a[5 - j] * s ** (5 - j) == s ** 4 * b[j] for j in range(6))


def check_darmon_transform() -> bool:
    """(x, s, u) -> (-x, S+3, T+2S+5) carries Brumer's family onto Darmon's.

    Verified formally in (S, T).  The leading coefficient after x -> -x is
    -1, so the comparison negates once: D_j = (-1)^(j+1) B_j.
    """
    S, T = MultiPoly.gens(("S", "T"))
    b = _brumer_coeffs(S + 3, T + 2 * S + 5)
    d = _darmon_coeffs(S, T)
    return all((-1) ** (j + 1) * bj == dj for j, (bj, dj) in enumerate(zip(b, d)))


def check_shanks_reproduction() -> bool:
    """ptilde_cubic(-t, -1, t+3) equals the simplest cubic family, formally in t."""
    t = MultiPoly.variable("t", ("t",))
    return _ptilde3_coeffs(-t, -1, t + 3) == _shanks_coeffs(t)


def gras_resultant_identity() -> bool:
    """Res_x(ptilde4(x), X - h(x)) is the Gras quartic G(X), formally in t.

    Here h = h2 x^2 + h0 with h2 = t/2, h0 = -(t^2+32)/(8t), and (n, c) =
    ((t^2+32)/(2t^2), (3t^4-1024)/(16t^4)).  ptilde4 is monic, so the
    resultant is the product of X - h(theta) over its roots.  Write
    ptilde4(x) = e(x^2) + x o(x^2); the squares theta^2 are the roots of
    r(y) = e(y)^2 - y o(y)^2 = ptilde4(x) ptilde4(-x), so the product is
    sum_k r_k (X - h0)^k h2^(4-k).  Clear denominators with D = 16t^4 and
    E = 8t: for S = E(X - h0) = 8tX + t^2 + 32 and T = E h2 = 4t^2, D^2 E^4
    times that sum is (D T^2 e(S/T))^2 - S T (D T o(S/T))^2, each bracket by
    Horner in S, and it must equal D^2 E^4 G(X) = 2^20 t^12 G(X) in Q[t, X].
    """
    t = FunctionField("t").gen
    tt, X = MultiPoly.gens(("t", "X"))

    def lift(q):
        """q, a polynomial in t, as an element of Q[t, X]."""
        if not q.is_polynomial:
            raise InvariantError(f"{q} is not a polynomial in t")
        return MultiPoly(tt.vars, {(i, 0): a for i, a in enumerate(q.num.coeffs)})

    D = 16 * t ** 4
    n = (t * t + 32) / (2 * t * t)
    c = (3 * t ** 4 - 1024) / D
    p = [lift(D * a) for a in _ptilde4_coeffs(n, c)]
    S, T = 8 * tt * X + tt * tt + 32, 4 * tt * tt
    even = (p[4] * S + p[2] * T) * S + p[0] * T * T
    odd = p[3] * S + p[1] * T
    gras = sum(g * X ** k for k, g in enumerate(_gras_coeffs(tt)))
    return even * even - S * T * odd * odd == 2 ** 20 * tt ** 12 * gras


def shanks_disc_identity() -> bool:
    """disc(X^3 - tX^2 - (t+3)X - 1) = (t^2 + 3t + 9)^2 formally over Q(t)."""
    Ft = FunctionField("t")
    t = Ft.gen
    return discriminant(UniPoly(Ft, _shanks_coeffs(t), "X")) == (t * t + 3 * t + 9) ** 2
