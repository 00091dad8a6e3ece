import random
from fractions import Fraction

import pytest

from ellquot import (
    ConstructionInput,
    QQ,
    UniPoly,
    certify,
    cyclic_from_fiber,
    frobenius_patterns,
    galois_group,
    p_ncl5,
    shanks_cubic,
)
from ellquot.factor import factor_over_Q
from ellquot.fields import is_square
from ellquot.galois import MAX_PRIME_BUDGET, MIN_PRIME_BUDGET
from ellquot.poly import discriminant

x = UniPoly.gen(QQ)


def test_cubic_groups():
    rep = galois_group(shanks_cubic(2).poly)
    assert (rep.group_label, rep.certainty) == ("C3", "exact")
    assert rep.disc == 361 and rep.disc_is_square

    rep = galois_group(x ** 3 - 2)
    assert (rep.group_label, rep.certainty) == ("S3", "exact")
    assert rep.disc == -108


def test_quartic_groups():
    assert galois_group(x ** 4 + x ** 3 + x ** 2 + x + 1).group_label == "C4"
    assert galois_group(x ** 4 - 2).group_label == "D4"
    assert galois_group(x ** 4 + 1).group_label == "V4"
    assert galois_group(x ** 4 + 8 * x + 12).group_label == "A4"
    assert galois_group(x ** 4 + x + 1).group_label == "S4"
    assert galois_group(x ** 4 - 4 * x ** 2 + 2).group_label == "C4"


def test_quintic_dihedral_example():
    rep = galois_group(p_ncl5(1, 2).poly)
    assert rep.irreducible and rep.disc_is_square
    assert rep.group_label == "D5"
    assert rep.certainty == "sampled"
    assert (1, 2, 2) in rep.pattern_histogram


def test_quintic_s5_example():
    rep = galois_group(x ** 5 - x - 1)
    assert rep.group_label == "S5"
    assert any(2 in pat and 3 in pat for pat in rep.pattern_histogram)


def test_quintic_f20_and_a5():
    rep = galois_group(x ** 5 - 2)
    assert rep.group_label == "F20" and not rep.disc_is_square
    assert (1, 4) in rep.pattern_histogram
    rep = galois_group(x ** 5 + 20 * x + 16)
    assert rep.group_label == "A5" and rep.disc_is_square


def test_reducible_input_reports_other():
    rep = galois_group((x ** 2 + 1) * (x + 3))
    assert not rep.irreducible
    assert rep.group_label == "other"


def test_non_squarefree_rejected():
    with pytest.raises(ValueError):
        galois_group((x + 1) ** 2 * (x + 2))


def test_degree_range_enforced():
    with pytest.raises(ValueError):
        galois_group(x ** 2 + 1)
    with pytest.raises(ValueError):
        galois_group(x ** 7 - 2)


def test_prime_budget_minimum():
    # a budget below the minimum is rejected, never silently raised to it
    for budget in (5, 0, -5):
        with pytest.raises(ValueError, match=f"below the minimum of {MIN_PRIME_BUDGET}"):
            galois_group(shanks_cubic(1).poly, prime_budget=budget)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="below the minimum of 1"):
            frobenius_patterns(x ** 2 + 1, budget)
    assert galois_group(shanks_cubic(1).poly, MIN_PRIME_BUDGET).primes_used == MIN_PRIME_BUDGET


def test_prime_budget_above_the_cap_is_rejected():
    # the bound is checked before any prime is sampled
    with pytest.raises(ValueError, match="exceeds the cap"):
        galois_group(shanks_cubic(1).poly, prime_budget=MAX_PRIME_BUDGET + 1)
    with pytest.raises(ValueError, match="exceeds the cap"):
        frobenius_patterns(x ** 2 + 1, MAX_PRIME_BUDGET + 1)


def test_frobenius_patterns_x2_plus_1():
    # good primes for x^2+1 are all odd primes: 3, 5, 7, 11 with budget 4
    hist = frobenius_patterns(x ** 2 + 1, 4)
    assert hist == {(2,): 3, (1, 1): 1}  # split only at 5 among {3,5,7,11}


def test_translation_invariance():
    rng = random.Random(55)
    for f in (shanks_cubic(2).poly, x ** 4 - 2, p_ncl5(1, 2).poly):
        base = galois_group(f).group_label
        for _ in range(7):
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            shifted = f(UniPoly(QQ, [q, Fraction(1)], f.var))
            assert galois_group(shifted).group_label == base


def test_cyclic_from_fiber_l5():
    fam, rep = cyclic_from_fiber(certify(ConstructionInput(5, row=1, params={"z": 2})))
    assert rep.group_label == "C5"
    assert rep.certainty == "exact"
    assert rep.irreducible and rep.disc_is_square
    assert set(rep.pattern_histogram) <= {(1, 1, 1, 1, 1), (5,)}
    assert fam.family == "fiber" and fam.poly.degree == 5


def test_cyclic_from_fiber_l6():
    fam, rep = cyclic_from_fiber(certify(ConstructionInput(6, params={"v0": 1, "z": 16})))
    assert rep.group_label == "C6"
    assert rep.certainty == "exact"
    assert (6,) in rep.pattern_histogram


def test_cyclic_from_fiber_l4_reports_split():
    # the published l=4 model is a twist; its fibers split and no cyclic
    # quartic arises (see the Gras family for the genuine C4 route)
    fam, rep = cyclic_from_fiber(certify(ConstructionInput(4, params={"u": 1, "v": 1})))
    assert not rep.irreducible
    assert rep.group_label == "other"


def test_cyclic_from_fiber_rejects_invalid_certificates():
    with pytest.raises(ValueError):
        cyclic_from_fiber(certify(ConstructionInput(3, params={"a1": 0, "u1": 1, "z": 5})))


def test_pncl5_sample_is_dihedral_consistent():
    rng = random.Random(56)
    bad = 0
    for _ in range(20):
        n = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if c == 0:
            continue
        f = p_ncl5(n, c).poly
        fl = factor_over_Q(f)
        if not fl.is_irreducible:
            bad += 1
            continue
        assert is_square(discriminant(f))
    assert bad <= 2


def test_certainty_labels_honest():
    # an unbacked cyclic-looking quintic stays "sampled"
    fam, rep = cyclic_from_fiber(certify(ConstructionInput(5, row=1, params={"z": 3})))
    unbacked = galois_group(fam.poly)
    assert unbacked.group_label == "C5"
    assert unbacked.certainty == "sampled"
    assert rep.certainty == "exact"


def test_one_discriminant_and_no_gcd_per_report(monkeypatch):
    from ellquot import poly

    calls = {"resultant": 0, "gcd": 0}
    resultant, gcd = poly.resultant, UniPoly.gcd

    def counting_resultant(*args):
        calls["resultant"] += 1
        return resultant(*args)

    def counting_gcd(*args):
        calls["gcd"] += 1
        return gcd(*args)

    polys = [shanks_cubic(2).poly, x ** 4 - 2, p_ncl5(1, 2).poly, x ** 6 + x + 1]
    monkeypatch.setattr(poly, "resultant", counting_resultant)
    monkeypatch.setattr(UniPoly, "gcd", counting_gcd)
    for f in polys:
        calls.update(resultant=0, gcd=0)
        rep = galois_group(f)
        assert calls == {"resultant": 1, "gcd": 0}, (f, calls)
        assert rep.disc == discriminant(f)
