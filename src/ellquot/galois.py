"""Galois group determination for degrees 3 to 6 with honest certainty labels.

Degree 3 and 4 verdicts are exact (discriminant, resolvent cubic and the
quadratic splitting criteria).  Degree 5 and 6 labels come from Frobenius
pattern sampling: the smallest group consistent with the samples, reported
as sampled evidence.  cyclic_from_fiber alone reports C5 and C6 as exact,
because the polynomial is then the fiber below a certified non-trivial
quotient-curve point.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction

from .factor import factor_mod_p, factor_over_Q, primes, rational_roots
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


@dataclass
class GaloisReport:
    degree: int
    irreducible: bool
    disc: Fraction
    disc_is_square: bool
    group_label: str
    certainty: str
    primes_used: int
    pattern_histogram: dict = dataclass_field(default_factory=dict)


def check_prime_budget(prime_budget, minimum=1):
    """Reject a prime budget outside [minimum, MAX_PRIME_BUDGET] with ValueError."""
    if prime_budget < minimum:
        raise ValueError(f"prime budget {prime_budget} is below the minimum of {minimum}")
    if prime_budget > MAX_PRIME_BUDGET:
        raise ValueError(
            f"prime budget {prime_budget} exceeds the cap of {MAX_PRIME_BUDGET}"
        )


def _sample(f: UniPoly, prime_budget):
    """(unit, disc f_Z, histogram) for f = unit * f_Z, f_Z primitive in Z[x].

    The discriminant of the integer model is computed once: it decides
    squarefreeness (disc f_Z != 0), gives disc f = unit^(2n-2) * disc f_Z,
    and names the bad primes skipped by the sampling.
    """
    if f.field != QQ:
        raise ValueError("Galois sampling needs rational coefficients")
    unit, ints = integer_model(f.coeffs)
    fz = UniPoly(QQ, ints, f.var)
    d = discriminant(fz)
    if d == 0:
        raise ValueError("polynomial must be squarefree")
    bad = ints[-1] * abs(d.numerator)
    histogram = {}
    used = 0
    for p in primes():
        if used >= prime_budget:
            break
        if bad % p == 0:
            continue
        pattern = tuple(sorted(len(g) - 1 for g, m in factor_mod_p(fz, p) for _ in range(m)))
        histogram[pattern] = histogram.get(pattern, 0) + 1
        used += 1
    return unit, d, histogram


def frobenius_patterns(f: UniPoly, prime_budget: int = DEFAULT_PRIME_BUDGET):
    """Histogram of factor-degree multisets of f mod p over good primes.

    Uses the first prime_budget primes dividing neither the leading
    coefficient nor the discriminant of the primitive integer model;
    prime_budget must lie between 1 and MAX_PRIME_BUDGET.
    """
    check_prime_budget(prime_budget)
    return _sample(f, prime_budget)[2]


def galois_group(f: UniPoly, prime_budget: int = DEFAULT_PRIME_BUDGET) -> GaloisReport:
    """Galois group of a squarefree polynomial of degree 3..6 over Q.

    prime_budget must lie between MIN_PRIME_BUDGET and MAX_PRIME_BUDGET.
    """
    check_prime_budget(prime_budget, MIN_PRIME_BUDGET)
    n = f.degree
    if not 3 <= n <= 6:
        raise ValueError(f"degree must be 3..6, got {n}")
    unit, disc_z, histogram = _sample(f, prime_budget)
    disc = unit ** (2 * n - 2) * disc_z
    irreducible = factor_over_Q(f).is_irreducible
    square = is_square(disc)

    if not irreducible:
        label, certainty = "other", "exact"
    elif n == 3:
        label, certainty = ("C3" if square else "S3"), "exact"
    elif n == 4:
        label, certainty = _quartic_group(f.monic(), disc, square), "exact"
    elif n == 5:
        label, certainty = _quintic_group(histogram, square)
    else:
        label, certainty = _sextic_group(histogram)
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

    `cert` comes from `certify` and must be valid; the report samples
    DEFAULT_PRIME_BUDGET primes.  For l = 3, 5, 6 the fiber is then an
    irreducible degree-l polynomial whose Galois group is cyclic of order l,
    the construction itself serving as the exactness source for l = 5, 6.
    The published l = 4 model is a quadratic twist of the quotient and its
    fibers split; the report then states the splitting instead (the cyclic
    quartics of this circle of ideas are the Gras resultant family).
    """
    if not cert.valid:
        raise ValueError(
            f"certificate is not valid ({cert.excluded_reason or 'checks failed'})"
        )
    fiber = cert.fiber.poly
    report = galois_group(fiber)
    if report.group_label in ("C5", "C6"):
        # the valid certificate proves the cyclic group the samples suggest
        report = replace(report, certainty="exact")
    fam = FamilyPolynomial(
        family="fiber",
        parameters=dict(cert.params),
        poly=fiber,
    )
    return fam, report
