import json
import random
from fractions import Fraction

import pytest

from ellquot import (
    ConstructionInput,
    QQ,
    FunctionField,
    UniPoly,
    certify,
    cyclic_from_fiber,
    frobenius_patterns,
    galois_group,
    p_ncl5,
    shanks_cubic,
)
from ellquot import galois
from ellquot.factor import FACTOR_DEGREE_CAP, degree_pattern, factor_mod_p, factor_over_Q
from ellquot.fields import is_square
from ellquot.galois import DEFAULT_PRIME_BUDGET, MAX_PRIME_BUDGET, MIN_PRIME_BUDGET
from ellquot.jsonio import galois_report_to_json
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
    # an exact cubic samples nothing, so the minimum is shown on a sampled quintic
    assert galois_group(p_ncl5(1, 2).poly, MIN_PRIME_BUDGET).primes_used == MIN_PRIME_BUDGET


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


def _count_samples(monkeypatch):
    """The primes galois.py factors modulo, appended as it samples them."""
    primes = []

    def counting(f, p):
        primes.append(p)
        return factor_mod_p(f, p)

    monkeypatch.setattr(galois, "factor_mod_p", counting)
    return primes


def _fiber_l4():
    return cyclic_from_fiber(certify(ConstructionInput(4, params={"u": 1, "v": 1})))[1]


@pytest.mark.parametrize("report", [
    lambda: galois_group(shanks_cubic(2).poly),
    lambda: galois_group(x ** 3 - 2),
    lambda: galois_group(x ** 4 - 2),
    lambda: galois_group((x ** 2 + 1) * (x ** 3 - 2)),
    lambda: galois_group((x ** 2 + 1) * (x ** 4 - 2)),
    _fiber_l4,
], ids=["C3 cubic", "S3 cubic", "quartic", "reducible quintic", "reducible sextic", "fiber l=4"])
def test_an_exact_verdict_samples_no_prime(monkeypatch, report):
    primes = _count_samples(monkeypatch)
    rep = report()
    assert rep.certainty == "exact"
    assert primes == []
    assert (rep.primes_used, rep.pattern_histogram) == (0, {})
    obj = json.loads(json.dumps(galois_report_to_json(rep)))
    assert (obj["primes_used"], obj["pattern_histogram"]) == (0, {})


@pytest.mark.parametrize("f", [p_ncl5(1, 2).poly, x ** 5 - x - 1, x ** 6 + x + 1],
                         ids=["D5 quintic", "S5 quintic", "sextic"])
@pytest.mark.parametrize("budget", [MIN_PRIME_BUDGET, DEFAULT_PRIME_BUDGET])
def test_an_irreducible_quintic_or_sextic_samples_its_whole_budget(monkeypatch, f, budget):
    primes = _count_samples(monkeypatch)
    rep = galois_group(f, budget)
    assert rep.irreducible and rep.certainty == "sampled"
    assert len(primes) == len(set(primes)) == budget
    assert rep.primes_used == sum(rep.pattern_histogram.values()) == budget


def _count_patterns(monkeypatch):
    """The primes frobenius_patterns takes a pattern at, appended in turn."""
    primes = []

    def counting(ints, p):
        primes.append(p)
        return degree_pattern(ints, p)

    monkeypatch.setattr(galois, "degree_pattern", counting)
    return primes


@pytest.mark.parametrize("f", [p_ncl5(1, 2).poly, x ** 5 - x - 1, x ** 6 + x + 1],
                         ids=["D5 quintic", "S5 quintic", "sextic"])
@pytest.mark.parametrize("budget", [20, 60])
def test_frobenius_patterns_takes_one_pattern_per_prime_that_galois_group_factors_at(monkeypatch, f, budget):
    factored = _count_samples(monkeypatch)
    patterned = _count_patterns(monkeypatch)
    hist = frobenius_patterns(f, budget)
    assert factored == []
    assert len(patterned) == len(set(patterned)) == budget == sum(hist.values())
    assert galois_group(f, budget).pattern_histogram == hist
    assert factored == patterned


def _refuse_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(galois, "factor_mod_p", no_work)
    monkeypatch.setattr(galois, "degree_pattern", no_work)
    monkeypatch.setattr(galois, "factor_over_Q", no_work)
    return no_work


@pytest.mark.parametrize("f", [UniPoly.zero(QQ), UniPoly.constant(QQ, 3), x + 1, x ** 17 + x + 1],
                         ids=["zero", "degree 0", "degree 1", "degree 17"])
def test_frobenius_patterns_refuses_a_degree_outside_its_range_before_any_work(monkeypatch, f):
    no_work = _refuse_work(monkeypatch)
    monkeypatch.setattr(galois, "discriminant", no_work)
    monkeypatch.setattr(galois, "integer_model", no_work)
    with pytest.raises(ValueError, match=f"degree must be 2..{FACTOR_DEGREE_CAP}, got {f.degree}"):
        frobenius_patterns(f, 5)


def test_frobenius_patterns_takes_the_degree_cap():
    hist = frobenius_patterns(x ** FACTOR_DEGREE_CAP + x + 1, 5)
    assert sum(hist.values()) == 5
    assert all(sum(pattern) == FACTOR_DEGREE_CAP for pattern in hist)


@pytest.mark.parametrize("budget", [MIN_PRIME_BUDGET - 1, MAX_PRIME_BUDGET + 1])
def test_a_budget_out_of_range_is_refused_before_any_work_even_for_a_cubic(monkeypatch, budget):
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match="minimum|cap"):
        galois_group(shanks_cubic(1).poly, budget)


def test_a_polynomial_over_Q_c_is_refused_before_any_work(monkeypatch):
    _refuse_work(monkeypatch)
    Fc = FunctionField("c")
    c, X = Fc.gen, UniPoly.gen(Fc)
    f = X ** 3 - c * X + 1
    with pytest.raises(ValueError, match="rational coefficients"):
        galois_group(f)
    with pytest.raises(ValueError, match="rational coefficients"):
        frobenius_patterns(f, 5)


def test_a_polynomial_that_is_not_squarefree_is_refused_before_any_work(monkeypatch):
    _refuse_work(monkeypatch)
    for f in ((x + 1) ** 2 * (x + 2), (x ** 2 + 1) ** 2 * (x - 3), (x ** 3 - 2) ** 2):
        with pytest.raises(ValueError, match="squarefree"):
            galois_group(f)
        with pytest.raises(ValueError, match="squarefree"):
            frobenius_patterns(f, 5)
