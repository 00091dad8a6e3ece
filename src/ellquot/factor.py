"""Polynomial factorization modulo a prime p and over Q, plus rational roots.

This module holds the algorithms only; all coefficient arithmetic runs on the
integer-list kernel in ``intpoly``.  Modulo p: distinct-degree and
equal-degree (Rabin 1980, "Probabilistic algorithms in finite fields";
Cantor-Zassenhaus) splitting, with factors returned as tuples of ints.  There
is no squarefree stage: x^(p^d) - x is squarefree, so distinct-degree
splitting strips repeated factors itself and counts their multiplicities
(von zur Gathen & Gerhard, "Modern Computer Algebra", 14.2).  Each polynomial
f takes one modular power, the Euler power s = x^(p//2) mod f, and uses it
twice:

- x^p = s^2 * x^(p mod 2) gives the Frobenius matrix, the rows x^(i*p) mod f
  (von zur Gathen & Shoup 1992, "Computing Frobenius maps and factoring
  polynomials"), so that h^p mod f is one matrix-vector product instead of a
  modular exponentiation.  The distinct-degree step takes x^(p^d) from it.
- For odd p, s * s^p * ... * s^(p^(d-1)) = x^((p^d-1)/2) mod a block of
  degree-d irreducibles is Rabin's quadratic-character split of that block
  with h = x, so every block's first split needs no further power.

A block that this first split leaves whole, and every piece it makes, is
split at random: for odd p through
h^((p^d-1)/2) = (h * h^p * ... * h^(p^(d-1)))^((p-1)/2), for p = 2 by the
trace map.  The factorization mod p is unique and returned sorted, so the
random choices never show in the output.

Over Q: Yun's squarefree decomposition of the primitive integer model,
factorization modulo a good prime, Hensel lifting past the coefficient bound,
and subset recombination.
Rational roots come from the same Yun decomposition: each squarefree part's
roots, found by p-adic lifting and rational reconstruction, carry the part's
multiplicity.  Degrees up to 16 are supported, which covers everything this
package produces.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

from . import intpoly as ip
from .errors import ZeroPolynomialError
from .fields import QQ
from .poly import UniPoly

FACTOR_DEGREE_CAP = 16
# Miller-Rabin with the first 13 prime bases proves primality below psi_13
# (Sorenson & Webster 2017, "Strong pseudoprimes to twelve prime bases")
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def primes():
    """The primes in increasing order: the integers is_probable_prime accepts."""
    return filter(is_probable_prime, itertools.count(2))


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, a proof for every n < PRIMALITY_BOUND.

    Below 43^2 trial division by the bases alone decides, with no power taken.

    Raises ValueError for n >= PRIMALITY_BOUND, where the bases prove nothing.
    """
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"{n} is not below the primality bound {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        # a composite has a prime factor at most its square root, so one
        # below 43^2 has a factor among the bases, which trial division found
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _squarefree_primes(f, candidates):
    """(p, f mod p) for each p in candidates keeping deg f and f squarefree mod p."""
    for p in candidates:
        fp = ip.trim(f, p)
        if len(fp) == len(f) and len(ip.gcd_mod(fp, ip.deriv(fp, p), p)) == 1:
            yield p, fp


# ---------------------------------------------------------------------------
# Factorization modulo p


def _distinct_degree(f, p, rows):
    """[(block, d, k)] for monic f: block is the product of the degree-d
    irreducibles of multiplicity exactly k in f.

    rows = frobenius_rows(f, p).  h = x^(p^d) mod f takes one Frobenius step
    per degree; it stays reduced mod f, which every remaining cofactor divides.
    x^(p^d) - x is squarefree, so g = gcd(h - x, rest) holds each degree-d
    irreducible of rest once, whatever its multiplicity; dividing g out of
    rest layer by layer leaves in gcd(g, rest) those of higher multiplicity.
    A rest with no factor of degree <= d and of degree below 2(d + 1) is one
    irreducible of multiplicity 1.
    """
    out = []
    x = [0, 1]
    h = ip.rem(x, f, p)
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = ip.frobenius(h, rows, p)
        g = ip.gcd_mod(ip.sub(h, x, p), rest, p)
        k = 0
        while len(g) > 1:
            k += 1
            rest = ip.divmod_mod(rest, g, p)[0]
            again = ip.gcd_mod(g, rest, p)
            if len(again) < len(g):
                out.append((ip.divmod_mod(g, again, p)[0], d, k))
            g = again
    if len(rest) > 1:
        out.append((rest, len(rest) - 1, 1))
    return out


def _norm(h, d, block, p, rows):
    """h * h^p * ... * h^(p^(d-1)) mod block over GF(p), for h reduced mod f.

    rows = frobenius_rows(..., f, p) for the polynomial f being factored,
    which block divides; the conjugates h^(p^i) stay reduced mod f for the
    Frobenius step, their running product is reduced mod block.  At d = 1
    that is h itself.
    """
    t = conj = h
    for _ in range(d - 1):
        conj = ip.frobenius(conj, rows, p)
        t = ip.mulmod(t, conj, block, p)
    return t


def _equal_degree(f, d, p, rows):
    """Split a monic squarefree product f of degree-d irreducibles at random.

    A block that needs a random split seeds its own random.Random from
    (p, f), so an irreducible block builds none.  For odd p,
    h^((p^d - 1)/2) mod f is the ((p - 1)/2)-th power of
    _norm(h, d, f, p, rows).  A root at which h vanishes lands with the
    non-squares, so no separate gcd(h, f) is taken.  For p = 2 the trace
    h + h^2 + ... + h^(2^(d-1)) takes its squarings from rows, with no power.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    rng = random.Random(hash((p, tuple(f))))
    while True:
        h = ip.trim([rng.randrange(p) for _ in range(n)], p)
        if len(h) < 2:
            continue
        if p == 2:
            # trace map over GF(2^d), its conjugates kept reduced as in _norm
            t = conj = h
            for _ in range(d - 1):
                conj = ip.frobenius(conj, rows, p)
                t = ip.add(t, conj, p)
            g = ip.gcd_mod(t, f, p)
        else:
            t = ip.powmod(_norm(h, d, f, p, rows), (p - 1) // 2, f, p)
            g = ip.gcd_mod(ip.sub(t, [1], p), f, p)
        if 1 < len(g) < len(f):
            rest = ip.divmod_mod(f, g, p)[0]
            return _equal_degree(g, d, p, rows) + _equal_degree(rest, d, p, rows)


def _euler_split(block, d, s, p, rows):
    """[block] or a proper split [g, rest] of a block of degree-d irreducibles.

    For odd p and s = x^((p-1)/2) mod f, _norm(s, ...) is
    x^((p^d - 1)/2) mod block: on each root a of the block it reads the
    quadratic character of a in GF(p^d), so g = gcd(it - 1, block) collects
    the factors whose roots are squares.  No power is taken; the split fails
    when every root has the same character (or all but a root 0 do).
    """
    g = ip.gcd_mod(ip.sub(_norm(s, d, block, p, rows), [1], p), block, p)
    if 1 < len(g) < len(block):
        return [g, ip.divmod_mod(block, g, p)[0]]
    return [block]


def _factor_mod(f, p):
    """Complete factorization of monic f mod p: [(factor, multiplicity)], sorted.

    One power, s = x^(p//2) mod f, gives both x^p = s^2 * x^(p mod 2) for the
    Frobenius matrix and, for odd p, the first split of every block; the
    random split handles what is left.
    """
    s = ip.powmod([0, 1], p // 2, f, p)
    xp = ip.mulmod(s, s, f, p)
    if p % 2:
        xp = ip.mulmod(xp, [0, 1], f, p)
    rows = ip.frobenius_rows(xp, f, p)
    out = []
    for block, d, k in _distinct_degree(f, p, rows):
        pieces = _euler_split(block, d, s, p, rows) if p > 2 and len(block) - 1 > d else [block]
        for piece in pieces:
            out.extend((irr, k) for irr in _equal_degree(piece, d, p, rows))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


# ---------------------------------------------------------------------------
# Public factorization API


class FactorList(namedtuple("FactorList", "unit factors")):
    """A factorization over Q: unit * prod(factor^multiplicity) is the input."""

    __slots__ = ()

    def degrees(self):
        """Multiset of factor degrees, counting multiplicity."""
        out = []
        for f, m in self.factors:
            out.extend([f.degree] * m)
        return tuple(sorted(out))

    @property
    def is_irreducible(self):
        return len(self.factors) == 1 and self.factors[0][1] == 1


def factor_mod_p(f: UniPoly, p: int) -> list:
    """Factor f over Q modulo the prime p < PRIMALITY_BOUND.

    Returns the sorted list [(g, multiplicity)] whose product is f mod p up to
    its leading coefficient.  Each g is a monic irreducible factor mod p, a
    tuple of ints in [0, p) with the constant term first; a nonzero constant
    has no factors.  p must not divide the leading coefficient of f, nor the
    denominator of any coefficient (ZeroDivisionError).
    """
    if f.field != QQ:
        raise ValueError("factor_mod_p needs rational coefficients")
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    ints = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise ZeroDivisionError(f"denominator divisible by {p}")
        ints.append(c.numerator * pow(c.denominator, -1, p) % p)
    if ints[-1] == 0:
        raise ValueError(f"{p} divides the leading coefficient")
    if len(ints) == 1:
        return []
    return [(tuple(g), m) for g, m in _factor_mod(ip.monic(ints, p), p)]


# ---------------------------------------------------------------------------
# Factorization over Q


def _mignotte_bound(f):
    """Knuth-Cohen flavored bound on coefficients of factors of f."""
    n = len(f) - 1
    norm = math.isqrt(sum(c * c for c in f)) + 1
    return (math.comb(n, n // 2) * norm * abs(f[-1])) * 2 + max(abs(c) for c in f)


def _yun(f):
    """Yun decomposition of a primitive f: [(primitive squarefree g, mult)]."""
    out = []
    df = ip.deriv(f)
    g = ip.gcd_zz(f, df)
    if len(g) == 1:
        return [(f, 1)]
    w = ip.divexact_zz(f, g)
    y = ip.divexact_zz(df, g)
    i = 1
    while True:
        z = ip.sub(y, ip.deriv(w))
        if not z:
            if len(w) > 1:
                out.append((ip.primitive(w)[1], i))
            break
        h = ip.gcd_zz(w, z)
        if len(h) > 1:
            out.append((h, i))
        w = ip.divexact_zz(w, h)
        y = ip.divexact_zz(z, h)
        i += 1
    return out


def _hensel_step(m, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) to modulus m^2.

    Requires lc(h) = 1 and lc(f) invertible mod m; returns (G, H, S, T) with
    the same relations mod m^2 (von zur Gathen & Gerhard, Algorithm 15.10).
    """
    M = m * m
    e = ip.sub(f, ip.mul(g, h), M)
    q, r = ip.divmod_mod(ip.mul(s, e), h, M)
    G = ip.add(g, ip.add(ip.mul(t, e), ip.mul(q, g)), M)
    H = ip.add(h, r, M)
    b = ip.sub(ip.add(ip.mul(s, G), ip.mul(t, H)), [1], M)
    c, d = ip.divmod_mod(ip.mul(s, b), H, M)
    S = ip.sub(s, d, M)
    T = ip.sub(t, ip.add(ip.mul(t, b), ip.mul(c, G)), M)
    return G, H, S, T


def _hensel_lift(p, f, mod_factors, level):
    """Lift the monic factors of f mod p to monic factors mod p^(2^level)."""
    target = p ** (2 ** level)
    if len(mod_factors) == 1:
        return [ip.monic(ip.trim(f, target), target)]
    k = len(mod_factors) // 2
    left, right = mod_factors[:k], mod_factors[k:]
    g = [f[-1] % p]
    for fac in left:
        g = ip.mul(g, fac, p)
    h = [1]
    for fac in right:
        h = ip.mul(h, fac, p)
    s, t = ip.bezout_mod(g, h, p)
    m = p
    for _ in range(level):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, left, level) + _hensel_lift(p, h, right, level)


def _zassenhaus(f):
    """Factor a primitive squarefree f in Z[x] with positive lc."""
    if len(f) == 2:
        return [f]
    bound = _mignotte_bound(f)
    # pick a prime keeping f squarefree mod p, preferring few modular factors;
    # a squarefree f has finitely many bad primes, so the search ends
    candidates = []
    for p, fp in _squarefree_primes(f, primes()):
        facs = [g for g, _ in _factor_mod(ip.monic(fp, p), p)]
        candidates.append((len(facs), p, facs))
        if len(candidates) == 5 or len(facs) <= 2:
            break
    _, p, mod_factors = min(candidates, key=lambda c: c[0])
    if len(mod_factors) == 1:
        return [f]
    level = 0
    while p ** (2 ** level) <= 2 * bound:
        level += 1
    big = p ** (2 ** level)
    lifted = _hensel_lift(p, f, mod_factors, level)

    # subset recombination by trial division, in symmetric representatives
    result = []
    current = f
    indices = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(indices):
        for subset in itertools.combinations(indices, size):
            g = [current[-1]]
            for i in subset:
                g = ip.mul(g, lifted[i], big)
            g = ip.primitive(ip.symmetric(g, big))[1]
            if not g:
                continue
            q = ip.divexact_zz(current, g)
            if q is not None:
                result.append(g)
                current = ip.primitive(q)[1]
                indices = [i for i in indices if i not in subset]
                break
        else:
            size += 1
    if len(current) > 1:
        result.append(current)
    return result


def _strip_x(ints):
    """(k, g) with ints = x^k * g and g(0) != 0."""
    k = 0
    while ints[k] == 0:
        k += 1
    return k, ints[k:]


def factor_over_Q(f: UniPoly) -> FactorList:
    """Complete factorization over Q into monic irreducibles.

    unit * prod(factor^mult) == f exactly.  Degree is capped at 16, enough
    for every polynomial this package produces.
    """
    if f.field != QQ:
        raise ValueError("factor_over_Q needs rational coefficients")
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if f.degree > FACTOR_DEGREE_CAP:
        raise ValueError(f"degree {f.degree} exceeds the cap of {FACTOR_DEGREE_CAP}")
    if f.degree == 0:
        return FactorList(unit=f.coeffs[0], factors=[])

    unit, ints = ip.integer_model(f.coeffs)
    k0, prim = _strip_x(ints)
    factors = []
    if k0:
        factors.append((UniPoly.gen(QQ, f.var), k0))
    if len(prim) > 1:
        for part, mult in _yun(prim):
            for irr in _zassenhaus(part):
                mono = UniPoly(QQ, irr, f.var)
                unit *= mono.lc ** mult
                factors.append((mono.monic(), mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return FactorList(unit=unit, factors=factors)


# ---------------------------------------------------------------------------
# Rational roots via p-adic lifting and rational reconstruction


def rational_roots(f: UniPoly) -> list:
    """All rational roots of f with multiplicity, sorted.

    The primitive integer model is split by Yun's decomposition into
    squarefree parts g, and each root of g has g's multiplicity.  A rational
    root u/v in lowest terms of g has u | g(0) and v | lc(g), which bounds its
    height; roots are found by lifting the simple roots of g mod p to a
    modulus beyond twice that bound and applying rational reconstruction,
    then verified exactly.
    """
    if f.field != QQ:
        raise ValueError("rational_roots needs rational coefficients")
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has every rational root")
    if f.degree == 0:
        return []

    k0, prim = _strip_x(ip.integer_model(f.coeffs)[1])
    roots = [Fraction(0)] * k0
    if len(prim) > 1:
        for g, mult in _yun(prim):
            bound_num = abs(g[0])
            bound_den = abs(g[-1])
            target = 2 * bound_num * bound_den + 1
            for r in _lift_rational_roots(g, target, bound_num, bound_den):
                roots.extend([r] * mult)
    return sorted(roots)


def _lift_rational_roots(g, target, bound_num, bound_den):
    """Candidate rational roots of squarefree primitive g, verified exactly.

    g mod p is squarefree (_squarefree_primes), so every root r of g mod p is
    simple and g'(r) is a unit mod p.  Newton's step keeps r fixed mod p, so
    g'(r) stays a unit modulo every power of p and its inverse exists.
    """
    p = next(_squarefree_primes(g, primes()))[0]
    mod_roots = [r for r in range(p) if ip.evaluate(g, r) % p == 0]
    out = []
    dg = ip.deriv(g)
    for r in mod_roots:
        m = p
        while m < target:
            m = m * m
            r = (r - ip.evaluate(g, r) * pow(ip.evaluate(dg, r), -1, m)) % m
        cand = _rational_reconstruct(r, m, bound_num, bound_den)
        if cand is not None and ip.evaluate(g, cand) == 0:
            out.append(cand)
    return sorted(set(out))


def _rational_reconstruct(r, m, bound_num, bound_den):
    """u/v with u = r*v mod m, |u| <= bound_num, 0 < v <= bound_den."""
    v0, v1 = 0, 1
    r0, r1 = m, r % m
    while r1 > bound_num:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        v0, v1 = v1, v0 - q * v1
    if r1 == 0:
        return None
    u, v = r1, v1
    if v < 0:
        u, v = -u, -v
    if v == 0 or v > bound_den or math.gcd(u, v) != 1:
        return None
    return Fraction(u, v)
