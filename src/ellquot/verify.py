"""The one-shot verification battery behind `ellquot verify-paper`.

Each criterion function returns (passed, detail); run_battery executes all of
them, timing the whole run.  Criteria are implemented exactly as stated; two
of them (AC-5 for l=3 and AC-6 for l=4) fail against the published tables for
documented mathematical reasons, and their detail strings carry the analysis
instead of weakening the checks.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .constructions import (
    CONSTRUCTION_PARAMETERS,
    ConstructionInput,
    certify,
    construct_l3,
    construct_l4,
    construct_l5,
    construct_l6,
    model_matches_table,
    quotient_model,
    verify_defining_identity,
)
from .factor import factor_over_Q
from .families import (
    check_brumer_substitution,
    check_darmon_transform,
    check_shanks_reproduction,
    gras_resultant_identity,
    p_ncl5,
    shanks_cubic,
    shanks_disc_identity,
)
from .fields import is_square
from .funcfield import FunctionField
from .galois import CYCLIC_PATTERNS, DEFAULT_PRIME_BUDGET, check_prime_budget
from .galois import frobenius_patterns, galois_group
from .poly import discriminant


def _rnd(rng, lo=-9, hi=9, dmax=9, exclude=()):
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, dmax))
        if q not in exclude:
            return q


def _quotient_matches_table(l):
    """The degree-l quotient model over Q(c) against the published table."""
    return model_matches_table(quotient_model(l, FunctionField("c").gen))


def ac1():
    return (
        _quotient_matches_table(5),
        "quotient of E(c,c) has b-form (c^2-30c+1, -2c(3c+1)(4c-7), -c(4c^4-4c^3-40c^2+91c-4))",
    )


def ac2():
    return (
        _quotient_matches_table(6),
        "quotient of E(c+c^2,c) matches (4x-(19c^2+14c-1))(x^2+2c(2c+1)x+c(4c^3+4c^2+c+4))",
    )


def ac3():
    return (
        _quotient_matches_table(4),
        "quotient of E(c-1/16,0) goes onto (x+c)(4x^2+x+c) by x_model = -(x+c+7/16)/4,"
        " the twist by -1",
    )


def ac4():
    results = {l: verify_defining_identity(l) for l in (3, 4, 5, 6)}
    return all(results.values()), f"exact multivariate identities f = A*G^2: {results}"


def draw_input(l, rng):
    """One admissible ConstructionInput for level l, drawn from the seeded rng.

    Draws that violate an exact precondition are resampled.  AC-5 and
    `ellquot sweep` both draw through this function.  A level outside
    CONSTRUCTION_PARAMETERS raises ValueError before any draw.
    """
    levels = sorted({level for level, _ in CONSTRUCTION_PARAMETERS})
    if l not in levels:
        raise ValueError(f"no construction at level l = {l}; the levels are {levels}")
    while True:
        if l == 3:
            p = {
                "a1": _rnd(rng),
                "u1": _rnd(rng, exclude=(0,)),
                "z": _rnd(rng, lo=-29, hi=29),
            }
            return ConstructionInput(3, params=p)
        if l == 4:
            u = _rnd(rng, exclude=(0,))
            v = _rnd(rng)
            if 4 * v + 8 * u * u == 0:
                continue
            return ConstructionInput(4, params={"u": u, "v": v})
        if l == 5:
            row = rng.choice([1, 2, 3])
            if row in (1, 2):
                return ConstructionInput(
                    5, row=row, params={"z": _rnd(rng, lo=-29, hi=29, exclude=(0,))}
                )
            return ConstructionInput(5, row=3, params={"t": _rnd(rng), "m": _rnd(rng)})
        if l == 6:
            v0 = _rnd(rng, exclude=(0,))
            z = _rnd(rng, lo=-29, hi=29)
            if (z + 3 + 9 * v0 * v0) * (z - 3 - 9 * v0 * v0) == 0:
                continue
            return ConstructionInput(6, params={"v0": v0, "z": z})


def _check_fixtures():
    """The four concrete fixtures, by direct substitution."""
    checks = []
    c, x, yb = construct_l5(1, z=1)
    checks.append(("l5-row1-z1", (c, x, yb) == (-1, 2, 11)))
    checks.append(("l5-f(2)=121", 4 * 8 + 32 * 4 + 44 * 2 - 127 == yb * yb))
    a3, x3, yb3 = construct_l3(0, 1, 5)
    checks.append(("l3-(0,1,5)", (a3, x3, yb3) == (6, 7, 20)))
    checks.append(("l3-f(7)=400", 4 * 343 - 972 == yb3 * yb3))
    c4, x4, yb4 = construct_l4(1, 1)
    checks.append(
        ("l4-(1,1)", (c4, x4, yb4) == (Fraction(1, 3), Fraction(2, 3), Fraction(5, 3)))
    )
    checks.append(("l4-f(2/3)=25/9", (x4 + c4) * (4 * x4 * x4 + x4 + c4) == yb4 ** 2))
    c6, x6, yb6 = construct_l6(1, 16)
    checks.append(
        (
            "l6-(1,16)",
            (c6, x6, yb6)
            == (Fraction(4, 7), Fraction(624, 49), Fraction(29584, 343)),
        )
    )
    return checks


def ac5(seed, certificates_out):
    """50 seeded draws per l must certify valid, bar <10% documented degeneracies.

    The valid certificates are appended to certificates_out[l] for AC-6.

    The l=3 parametrization published in the source tables only ever produces
    points in the image of the 3-isogeny (a rational preimage always exists,
    e.g. the fixture point (7,20) is the image of (3,-9)), so this criterion
    fails for l=3; the failure is reported, not masked.
    """
    fixture_checks = _check_fixtures()
    fixtures_ok = all(ok for _, ok in fixture_checks)
    per_l = {}
    all_pass = fixtures_ok
    for l in (3, 4, 5, 6):
        rng = random.Random(f"{seed}-ac5-{l}")
        valid = 0
        degenerate = []
        invalid_unexplained = 0
        for _ in range(50):
            inp = draw_input(l, rng)
            cert = certify(inp)
            if cert.valid:
                certificates_out.setdefault(l, []).append(cert)
                valid += 1
            elif cert.excluded_reason:
                degenerate.append((dict(inp.params), cert.excluded_reason))
            else:
                invalid_unexplained += 1
        rate = len(degenerate) / 50
        # torsion, singular and thin-locus trivial draws all count against the
        # same documented-degeneracy budget; each carries its explanation (and
        # for trivial ones, the witness preimage) in the certificate
        ok = invalid_unexplained == 0 and rate < 0.10 and valid + len(degenerate) == 50
        trivial = [d for d in degenerate if "trivial" in d[1]]
        per_l[l] = {
            "valid": valid,
            "degenerate": len(degenerate),
            "trivial": len(trivial),
            "pass": ok,
            "examples": degenerate[:3],
        }
        all_pass = all_pass and ok
    detail = f"fixtures: {fixture_checks}; draws: {per_l}"
    if not per_l[3]["pass"]:
        detail += (
            " | l=3 analysis: every point of the published l=3 parametrization has a"
            " rational preimage (the fixture (7,20) is phi((3,-9))), so no draw is"
            " non-trivial; criterion unattainable as stated."
        )
    return all_pass, detail


def _screen(f, square_discriminant, prime_budget):
    """(None, the Frobenius histogram) for f irreducible over Q, with a square
    discriminant when square_discriminant is set; else (the failed check, None)."""
    fl = factor_over_Q(f)
    if not fl.is_irreducible:
        return f"splits {fl.degrees()}", None
    if square_discriminant and not is_square(discriminant(f)):
        return "discriminant not square", None
    return None, frobenius_patterns(f, prime_budget)


def ac6(certificates, prime_budget=DEFAULT_PRIME_BUDGET):
    """Fiber irreducibility and cyclic Frobenius patterns per valid certificate.

    For l=4 the published quotient model is a quadratic twist of the true
    quotient and the parametrized points satisfy the 2-descent condition, so
    every quartic fiber splits; the criterion is reported failed for l=4 with
    that analysis (the cyclic quartics of the source are the Gras resultant
    family, criterion 9/10).
    """
    per_l = {}
    overall = True
    for l in (3, 4, 5, 6):
        certs = certificates.get(l, [])
        if not certs:
            per_l[l] = {"checked": 0, "pass": None, "note": "no valid certificates"}
            if l in (4, 5, 6):
                overall = False
            continue
        failures = []
        long_cycle_missing = 0
        for cert in certs:
            why, hist = _screen(cert.fiber.poly, l % 2 == 1, prime_budget)
            if why:
                failures.append((str(cert.params), f"fiber {why}"))
                continue
            if not set(hist) <= CYCLIC_PATTERNS[l]:
                failures.append((str(cert.params), f"non-cyclic pattern {set(hist) - CYCLIC_PATTERNS[l]}"))
                continue
            if l >= 4 and (l,) not in hist:
                long_cycle_missing += 1
        ok = not failures and long_cycle_missing == 0
        per_l[l] = {
            "checked": len(certs),
            "pass": ok,
            "failures": failures[:3],
            "long_cycle_missing": long_cycle_missing,
        }
        overall = overall and ok
    detail = f"per-l: {per_l}"
    if per_l.get(4, {}).get("pass") is False:
        detail += (
            " | l=4 analysis: the published model is the (-1)-twist of the Velu"
            " quotient and x_{c,4}=u^2-c satisfies the 2-descent condition, so the"
            " quartic fibers always factor (2,2); no cyclic quartic arises here"
            " (the Gras resultant family covers it, see criteria 9 and 10)."
        )
    if per_l.get(3, {}).get("pass") is None:
        detail += " | l=3: vacuous, no valid certificates exist (see criterion 5)."
    return overall, detail


def ac7():
    """The l=5, z=1 fiber quintic equals p_ncl5(n, -1) with n from its x^4 term."""
    cert = certify(ConstructionInput(5, row=1, params={"z": 1}))
    fiber = cert.fiber.poly
    n = -fiber.coeff(4)
    target = p_ncl5(n, Fraction(-1)).poly
    ok = fiber == target
    return ok, f"fiber = {fiber!r}, n = {n}, equality exact: {ok}"


def ac8():
    b = check_brumer_substitution()
    d = check_darmon_transform()
    return b and d, f"Brumer substitution formal: {b}; Darmon transform formal: {d}"


def ac9():
    ok = gras_resultant_identity()
    return ok, f"Gras resultant identity formal in t, as a product over the roots: {ok}"


def ac10():
    rep_ok = check_shanks_reproduction()
    disc_ok = shanks_disc_identity()
    labels = {}
    for t in (1, 2, 3):
        rep = galois_group(shanks_cubic(t).poly)
        labels[t] = (rep.group_label, rep.certainty)
    groups_ok = all(v == ("C3", "exact") for v in labels.values())
    return (
        rep_ok and disc_ok and groups_ok,
        f"ptilde(-t,-1,t+3) == Shanks: {rep_ok}; disc == (t^2+3t+9)^2: {disc_ok}; groups: {labels}",
    )


def ac11(seed, prime_budget=DEFAULT_PRIME_BUDGET):
    """20 seeded (n, c): irreducible, square disc, a (1,2,2) pattern sampled.

    n enters the quintic family linearly, so every rational x0 carves out a
    reducible line in the (n, c) plane; parameters are drawn with enough
    height that these thin loci stay rare, as the criterion presumes.
    """
    rng = random.Random(f"{seed}-ac11")
    exceptions = []
    for _ in range(20):
        n = _rnd(rng, lo=-99, hi=99, dmax=9)
        c = _rnd(rng, lo=-99, hi=99, dmax=9, exclude=(0,))
        why, hist = _screen(p_ncl5(n, c).poly, True, prime_budget)
        if why:
            exceptions.append((str(n), str(c), why))
            continue
        if (1, 2, 2) not in hist:
            exceptions.append((str(n), str(c), f"no (1,2,2) pattern in {prime_budget} primes"))
    ok = len(exceptions) <= 2
    return ok, f"{20 - len(exceptions)}/20 dihedral-consistent; exceptions: {exceptions}"


def run_battery(seed=0, prime_budget=DEFAULT_PRIME_BUDGET):
    """Check prime_budget, run AC-1..AC-12 and return the summary (keys in the README)."""
    check_prime_budget(prime_budget)
    start = time.perf_counter()
    criteria = []
    certificates = {}
    steps = [
        ("AC-1", ac1),
        ("AC-2", ac2),
        ("AC-3", ac3),
        ("AC-4", ac4),
        ("AC-5", lambda: ac5(seed, certificates)),
        ("AC-6", lambda: ac6(certificates, prime_budget)),
        ("AC-7", ac7),
        ("AC-8", ac8),
        ("AC-9", ac9),
        ("AC-10", ac10),
        ("AC-11", lambda: ac11(seed, prime_budget)),
    ]
    for name, fn in steps:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, never a silent skip
            passed, detail = False, f"exception: {type(exc).__name__}: {exc}"
        criteria.append({"name": name, "passed": passed, "detail": detail})
    elapsed = time.perf_counter() - start
    criteria.append(
        {
            "name": "AC-12",
            "passed": elapsed < 600.0,
            "detail": f"battery completed in {elapsed:.1f}s (< 600s)",
        }
    )
    summary = {
        "seed": seed,
        "prime_budget": prime_budget,
        "elapsed_seconds": round(elapsed, 2),
        "criteria": criteria,
        "passed": sum(1 for r in criteria if r["passed"]),
        "failed": sum(1 for r in criteria if not r["passed"]),
        "expected_failures": {
            "AC-5": "l=3 clause: the published l=3 parametrization only yields trivial points",
            "AC-6": "l=4 clause: the published l=4 model is a quadratic twist; quartic fibers split",
        },
    }
    return summary
