"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's own algorithms: the resultant oracle
builds the Sylvester matrix and expands its determinant by cofactors, the
naive root search scans divisor candidates directly, a factorization is
multiplied back out factor by factor, and the JSON decoders read back what
jsonio's encoders write (the library itself reads no JSON).
"""

import math
from fractions import Fraction

from ellquot import INFINITY, QQ, CurvePoint, UniPoly, WeierstrassCurve


def sylvester_resultant(f, g):
    """det of the Sylvester matrix with g's coefficient rows first.

    Matches the library convention resultant(f, x - c) = f(c).  Entries may
    be Fractions or MultiPoly values; only ring operations are used.
    """
    m, n = f.degree, g.degree
    size = m + n
    if size == 0:
        return f.field.one
    rows = []
    gc = list(reversed(g.coeffs))
    fc = list(reversed(f.coeffs))
    zero = f.field.zero
    for i in range(m):
        rows.append([zero] * i + gc + [zero] * (size - n - 1 - i))
    for i in range(n):
        rows.append([zero] * i + fc + [zero] * (size - m - 1 - i))
    return _det_cofactor(rows, f.field)


def _det_cofactor(rows, field):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = field.zero
    sign = 1
    for j in range(n):
        entry = rows[0][j]
        if entry == field.zero:
            sign = -sign
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = entry * _det_cofactor(minor, field)
        total = total + term if sign > 0 else total - term
        sign = -sign
    return total


def naive_rational_roots(f):
    """Rational roots by direct divisor enumeration (small inputs only)."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in f.coeffs]
    while ints and ints[0] == 0:
        ints.pop(0)
    roots = []
    if len(f.coeffs) != len(ints):
        roots.append(Fraction(0))
    if len(ints) <= 1:
        return sorted(roots)
    a0, an = abs(ints[0]), abs(ints[-1])
    divs0 = [d for d in range(1, a0 + 1) if a0 % d == 0]
    divsn = [d for d in range(1, an + 1) if an % d == 0]
    seen = set()
    for p in divs0:
        for q in divsn:
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                seen.add(cand)
                if f(cand) == 0:
                    roots.append(cand)
    out = []
    for r in set(roots):
        val = f
        while True:
            q, rem = val.divmod(UniPoly(QQ, [-r, Fraction(1)]))
            if not rem.is_zero:
                break
            out.append(r)
            val = q
    return sorted(out)


def expand_factors(fl) -> UniPoly:
    """unit * prod(f^m) of a FactorList, the polynomial it factors."""
    var = fl.factors[0][0].var if fl.factors else "x"
    out = UniPoly.constant(QQ, fl.unit, var)
    for f, m in fl.factors:
        out = out * f ** m
    return out


def rational_from_json(pair) -> Fraction:
    """The rational of a [numerator, denominator] pair of decimal strings.

    ValueError unless the pair is the canonical one rational_to_json writes
    (strings, lowest terms, positive denominator), so a round trip checks the
    encoding as well as the value.
    """
    q = Fraction(int(pair[0]), int(pair[1]))
    if list(pair) != [str(q.numerator), str(q.denominator)]:
        raise ValueError(f"not a canonical rational pair: {pair!r}")
    return q


def poly_from_json(obj) -> UniPoly:
    return UniPoly(QQ, [rational_from_json(c) for c in obj["coeffs"]], obj["var"])


def curve_from_json(obj) -> WeierstrassCurve:
    keys = ("a1", "a2", "a3", "a4", "a6")
    return WeierstrassCurve(QQ, *(rational_from_json(obj[k]) for k in keys))


def point_from_json(obj) -> CurvePoint:
    if obj["inf"]:
        return INFINITY
    return CurvePoint.affine(rational_from_json(obj["x"]), rational_from_json(obj["y"]))
