"""Galois group determination for degrees 3 to 6 with honest certainty labels.

A reducible input is labelled "other" by factor_over_Q, and degree 3 and 4
verdicts are exact (discriminant, resolvent cubic and the quadratic
splitting criteria); none of these samples a prime.  Only an irreducible
quintic or sextic is labelled from Frobenius pattern sampling: the smallest
group consistent with the samples, reported as sampled evidence.
cyclic_from_fiber alone reports C5 and C6 as exact, because the polynomial
is then the fiber below a certified non-trivial quotient-curve point.

Both samplers take the same good primes, in increasing order, from
_good_primes.  frobenius_patterns reads each pattern from
factor.degree_pattern, distinct-degree splitting alone: at a good prime f is
squarefree mod p, so the degrees of the blocks give the pattern and no block
need be split.  galois_group still calls the complete factor_mod_p per
sampled prime, which bench/test_bench.py pins (ROADMAP item 1); the two
give the same histogram.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple

from .factor import (
    FACTOR_DEGREE_CAP,
    degree_pattern,
    factor_mod_p,
    factor_over_Q,
    primes,
    rational_roots,
)
from .families import FamilyPolynomial
from .fields import QQ, is_square
from .intpoly import integer_model
from .poly import UniPoly, discriminant

MIN_PRIME_BUDGET = 20
DEFAULT_PRIME_BUDGET = 60
MAX_PRIME_BUDGET = 1000

CYCLIC_PATTERNS = {
    3: {(1, 1, 1), (3,)},
    4: {(1, 1, 1, 1), (2, 2), (4,)},
    5: {(1, 1, 1, 1, 1), (5,)},
    6: {(1, 1, 1, 1, 1, 1), (2, 2, 2), (3, 3), (6,)},
}


class GaloisReport(namedtuple("GaloisReport", "degree irreducible disc disc_is_square group_label"
                              " certainty primes_used pattern_histogram")):
    """The group label of a polynomial, its certainty and the sampling behind it.

    primes_used is the number of good primes sampled and pattern_histogram
    counts their factor-degree patterns.  Only a sampled label (an
    irreducible quintic or sextic) rests on them; an exact verdict samples
    nothing and reports 0 and {}.  Every field is required.
    """

    __slots__ = ()


def check_prime_budget(prime_budget, minimum=1):
    """Reject a prime budget outside [minimum, MAX_PRIME_BUDGET] with ValueError."""
    if prime_budget < minimum:
        raise ValueError(f"prime budget {prime_budget} is below the minimum of {minimum}")
    if prime_budget > MAX_PRIME_BUDGET:
        raise ValueError(
            f"prime budget {prime_budget} exceeds the cap of {MAX_PRIME_BUDGET}"
        )


def _squarefree_model(f: UniPoly):
    """(unit, f_Z, disc f_Z, bad) for f = unit * f_Z, f_Z primitive in Z[x].

    f_Z is the list of its integer coefficients, lowest degree first.  The
    discriminant of the integer model is computed once: it decides
    squarefreeness (disc f_Z != 0), gives disc f = unit^(2n-2) * disc f_Z,
    and with the leading coefficient names the bad primes, the prime
    factors of bad = lc(f_Z) * |disc f_Z|, that the sampling skips.
    """
    if f.field != QQ:
        raise ValueError("Galois sampling needs rational coefficients")
    unit, ints = integer_model(f.coeffs)
    d = discriminant(UniPoly(QQ, ints, f.var))
    if d == 0:
        raise ValueError("polynomial must be squarefree")
    return unit, ints, d, ints[-1] * abs(d.numerator)


def _good_primes(bad, prime_budget):
    """The first prime_budget primes that do not divide bad, both samplers' primes."""
    return itertools.islice((p for p in primes() if bad % p), prime_budget)


def frobenius_patterns(f: UniPoly, prime_budget: int = DEFAULT_PRIME_BUDGET):
    """Histogram of factor-degree multisets of f mod p over good primes.

    Uses the first prime_budget primes dividing neither the leading
    coefficient nor the discriminant of the primitive integer model;
    prime_budget must lie between 1 and MAX_PRIME_BUDGET, and the degree of f
    between 2 and FACTOR_DEGREE_CAP.  At a good prime f is squarefree mod p,
    so distinct-degree splitting alone gives the pattern (degree_pattern).
    """
    check_prime_budget(prime_budget)
    if not 2 <= f.degree <= FACTOR_DEGREE_CAP:
        raise ValueError(f"degree must be 2..{FACTOR_DEGREE_CAP}, got {f.degree}")
    _, ints, _, bad = _squarefree_model(f)
    return dict(Counter(degree_pattern(ints, p) for p in _good_primes(bad, prime_budget)))


def galois_group(f: UniPoly, prime_budget: int = DEFAULT_PRIME_BUDGET) -> GaloisReport:
    """Galois group of a squarefree polynomial of degree 3..6 over Q.

    prime_budget must lie between MIN_PRIME_BUDGET and MAX_PRIME_BUDGET; it
    is spent only on an irreducible quintic or sextic, whose label rests on
    the samples.
    """
    check_prime_budget(prime_budget, MIN_PRIME_BUDGET)
    n = f.degree
    if not 3 <= n <= 6:
        raise ValueError(f"degree must be 3..6, got {n}")
    unit, ints, disc_z, bad = _squarefree_model(f)
    disc = unit ** (2 * n - 2) * disc_z
    irreducible = factor_over_Q(f).is_irreducible
    square = is_square(disc)
    histogram = {}

    if not irreducible:
        label, certainty = "other", "exact"
    elif n == 3:
        label, certainty = ("C3" if square else "S3"), "exact"
    elif n == 4:
        label, certainty = _quartic_group(f.monic(), disc, square), "exact"
    else:
        # one complete factor_mod_p per sampled prime, which
        # bench/test_bench.py pins until ROADMAP item 1 re-pins it
        fz = UniPoly(QQ, ints, f.var)
        histogram = dict(Counter(
            tuple(sorted(len(g) - 1 for g, m in factor_mod_p(fz, p) for _ in range(m)))
            for p in _good_primes(bad, prime_budget)
        ))
        label, certainty = _quintic_group(histogram, square) if n == 5 else _sextic_group(histogram)
    return GaloisReport(
        degree=n,
        irreducible=irreducible,
        disc=disc,
        disc_is_square=square,
        group_label=label,
        certainty=certainty,
        primes_used=sum(histogram.values()),
        pattern_histogram=histogram,
    )


def _quartic_group(f: UniPoly, disc, square: bool) -> str:
    """Resolvent-cubic classification of an irreducible monic quartic."""
    b, c, d, e = f.coeff(3), f.coeff(2), f.coeff(1), f.coeff(0)
    x = UniPoly.gen(QQ)
    resolvent = (
        x ** 3 - c * x ** 2 + (b * d - 4 * e) * x - (b * b * e - 4 * c * e + d * d)
    )
    roots = sorted(set(rational_roots(resolvent)))
    if square:
        return "V4" if roots else "A4"
    if not roots:
        return "S4"
    # one rational resolvent root: C4 iff both auxiliary quadratics split
    # over Q(sqrt(disc)) (their discriminants are squares up to a disc factor)
    y0 = roots[0]

    def splits(q):
        return q == 0 or is_square(q) or is_square(q * disc)

    if splits(y0 * y0 - 4 * e) and splits(b * b - 4 * (c - y0)):
        return "C4"
    return "D4"


def _quintic_group(histogram, square: bool):
    """Transitive subgroup of S5 consistent with the sampled patterns."""
    seen = set(histogram)
    cyclic = CYCLIC_PATTERNS[5]
    if square:
        if seen <= cyclic:
            return "C5", "sampled"
        if any(3 in pat for pat in seen):
            return "A5", "sampled"
        return "D5", "sampled"
    # a lone transposition or any 3-cycle type rules out F20; together with a
    # nonsquare discriminant (which rules out A5) that leaves S5
    if any(pat in {(1, 1, 1, 2), (2, 3), (1, 1, 3)} for pat in seen):
        return "S5", "sampled"
    return "F20", "sampled"


def _sextic_group(histogram):
    seen = set(histogram)
    cyclic = CYCLIC_PATTERNS[6]
    if seen <= cyclic and (6,) in seen:
        return "C6", "sampled"
    return "other", "sampled"


def cyclic_from_fiber(cert):
    """(FamilyPolynomial, GaloisReport) for the fiber below a certified point.

    `cert` comes from `certify` and must be valid.  For l = 3, 5, 6 the
    fiber is then an irreducible degree-l polynomial whose Galois group is
    cyclic of order l, the construction itself serving as the exactness
    source for l = 5, 6; those reports sample DEFAULT_PRIME_BUDGET primes,
    and the l = 3 cubic none.  The published l = 4 model is a quadratic
    twist of the quotient and its fibers split; the report then states the
    splitting instead and samples nothing (the cyclic quartics of this
    circle of ideas are the Gras resultant family).
    """
    if not cert.valid:
        raise ValueError(
            f"certificate is not valid ({cert.excluded_reason or 'checks failed'})"
        )
    fiber = cert.fiber.poly
    report = galois_group(fiber)
    if report.group_label in ("C5", "C6"):
        # the valid certificate proves the cyclic group the samples suggest
        report = report._replace(certainty="exact")
    fam = FamilyPolynomial(
        family="fiber",
        parameters=dict(cert.params),
        poly=fiber,
    )
    return fam, report
