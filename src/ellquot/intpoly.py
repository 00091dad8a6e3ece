"""Arithmetic on polynomials stored as ascending lists of Python ints.

This is the package's one integer-polynomial kernel: GF(p), Z/p^k and Z[x]
all use it.  A polynomial is a list of ints, lowest degree first.  Routines
that take a modulus ``m`` return coefficients reduced into [0, m) with no
trailing zeros; the others work over Z.  Division and inverses mod m need an
invertible leading coefficient, which holds for every prime p not dividing
it and for every power of such a p.  This module imports nothing from the
package, so the polynomial, factoring and Galois layers can all use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce


def trim(f, m=None):
    """f without trailing zeros, reduced mod m first when m is given."""
    f = [c % m for c in f] if m else list(f)
    while f and not f[-1]:
        f.pop()
    return f


def add(f, g, m=None):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)], m)


def sub(f, g, m=None):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)], m)


def mul(f, g, m=None):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out, m)


def divmod_mod(f, g, m):
    """(quotient, remainder) of f by g mod m; g trimmed mod m."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero mod m")
    dg = len(g) - 1
    if len(f) <= dg:
        return [], trim(f, m)
    f = list(f)
    inv = pow(g[-1], -1, m)
    quo = [0] * (len(f) - dg)
    for k in range(len(f) - dg - 1, -1, -1):
        c = f[k + dg] % m * inv % m
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                f[k + j] -= c * b
    return trim(quo, m), trim(f[:dg], m)


def rem(f, g, m):
    """Remainder of f by g mod m, reduced top-down; the quotient is never built.

    g is trimmed mod m.  A monic g needs no inverse.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero mod m")
    dg = len(g) - 1
    if len(f) <= dg:
        return trim(f, m)
    f = list(f)
    inv = 1 if g[-1] == 1 else pow(g[-1], -1, m)
    low = g[:-1]
    for k in range(len(f) - 1, dg - 1, -1):
        c = f[k] * inv % m
        if c:
            s = k - dg
            for j, b in enumerate(low):
                f[s + j] -= c * b
    return trim(f[:dg], m)


def monic(f, m):
    if not f:
        return []
    inv = pow(f[-1], -1, m)
    return [c * inv % m for c in f]


def gcd_mod(f, g, p):
    """Monic gcd over GF(p)."""
    while g:
        f, g = g, rem(f, g, p)
    return monic(f, p)


def bezout_mod(g, h, p):
    """s, t with s*g + t*h = 1 mod p for coprime g, h."""
    r0, r1 = trim(g, p), trim(h, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1), p)
        t0, t1 = t1, sub(t0, mul(q, t1), p)
    inv = pow(r0[0], -1, p)
    return mul(s0, [inv], p), mul(t0, [inv], p)


def powmod(f, e, mod, p):
    """f^e modulo the polynomial mod, over GF(p)."""
    out = [1]
    f = rem(f, mod, p)
    while e:
        if e & 1:
            out = rem(mul(out, f), mod, p)
        e >>= 1
        if e:
            f = rem(mul(f, f), mod, p)
    return out


def frobenius_rows(f, p):
    """rows[i] = x^(i*p) mod f over GF(p) for i < deg f, from one powmod.

    The rows are the matrix of the GF(p)-linear map h -> h^p on GF(p)[x]/(f):
    h^p = sum h_i x^(i*p), because the p-th power is additive and fixes GF(p).
    """
    xp = powmod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(rem(mul(rows[-1], xp), f, p))
    return rows


def frobenius(h, rows, p):
    """h^p mod f over GF(p) for h reduced mod f, rows = frobenius_rows(f, p)."""
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return trim(out, p)


def deriv(f, m=None):
    return trim([i * c for i, c in enumerate(f)][1:], m)


def evaluate(f, x):
    """f(x) by Horner; x may be an int or a Fraction."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def symmetric(f, m):
    """f with coefficients lifted to (-m/2, m/2], trimmed."""
    out = []
    for c in f:
        c %= m
        out.append(c - m if 2 * c > m else c)
    return trim(out)


def primitive(f):
    """(c, g) with f = c*g, g primitive with a positive leading coefficient."""
    c = reduce(math.gcd, f, 0)
    if c == 0:
        return 0, []
    if f[-1] < 0:
        c = -c
    return c, f if c == 1 else [a // c for a in f]


def integer_model(coeffs):
    """(unit, g) with coeffs = unit*g for rational coeffs, g as in primitive()."""
    den = reduce(math.lcm, (q.denominator for q in coeffs), 1)
    c, g = primitive([q.numerator * (den // q.denominator) for q in coeffs])
    return Fraction(c, den), g


def gcd_zz(f, g):
    """Primitive gcd in Z[x] by the primitive remainder sequence; lc > 0."""
    a, b = primitive(f)[1], primitive(g)[1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_prem(a, b)
    return a


def _primitive_prem(a, b):
    """Primitive part of the pseudo-remainder of a by b."""
    d = b[-1]
    r = list(a)
    while len(r) >= len(b):
        lead = r[-1]
        shift = len(r) - len(b)
        r = [c * d for c in r]
        for j, bc in enumerate(b):
            r[shift + j] -= lead * bc
        r = primitive(trim(r))[1]
    return r


def divexact_zz(f, g):
    """Exact quotient f/g in Z[x], or None when g does not divide f."""
    if not g:
        return None
    dg = len(g) - 1
    if len(f) <= dg:
        return None if trim(f) else []
    f = list(f)
    quo = [0] * (len(f) - dg)
    for k in range(len(f) - dg - 1, -1, -1):
        if f[k + dg] % g[-1]:
            return None
        c = f[k + dg] // g[-1]
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                f[k + j] -= c * b
    if trim(f[:dg]):
        return None
    return quo
