"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's own algorithms: the resultant oracle
builds the Sylvester matrix and expands its determinant by cofactors, and the
naive root search scans divisor candidates directly.
"""

from fractions import Fraction


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
    import math

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
            from ellquot import QQ, UniPoly

            q, rem = val.divmod(UniPoly(QQ, [-r, Fraction(1)]))
            if not rem.is_zero:
                break
            out.append(r)
            val = q
    return sorted(out)
