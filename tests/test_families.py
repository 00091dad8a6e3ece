import random
from fractions import Fraction

import pytest

from ellquot import (
    QQ,
    FunctionField,
    UniPoly,
    brumer,
    check_brumer_substitution,
    check_darmon_transform,
    check_shanks_reproduction,
    darmon,
    families,
    gras_quartic,
    gras_resultant_identity,
    p_ncl5,
    ptilde_cubic,
    ptilde_quartic,
    shanks_cubic,
)
from ellquot.poly import discriminant, resultant

x = UniPoly.gen(QQ)
X = UniPoly.gen(QQ, "X")


def test_pncl5_closed_form():
    assert p_ncl5(0, 0).poly == x ** 5
    assert p_ncl5(1, 1).poly == x ** 5 - x ** 4 + x ** 3 + x ** 2 - 2 * x + 1


def test_pncl5_x4_coefficient_is_minus_n():
    rng = random.Random(61)
    for _ in range(20):
        n = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert p_ncl5(n, c).poly.coeff(4) == -n


def test_brumer_darmon_closed_forms():
    assert brumer(0, 0).poly == x ** 5 - 3 * x ** 4 + 3 * x ** 3 - x ** 2
    assert darmon(0, 0).poly == x ** 5 + 5 * x ** 3 + 5 * x ** 2 + 5 * x - 3
    s, u = Fraction(7, 2), Fraction(-3)
    assert brumer(s, u).poly.coeff(0) == s


def test_brumer_substitution_formal_and_random():
    assert check_brumer_substitution()
    # the public constructors agree: x^5 P_{-u,s}(s/x) = s^4 B_{s,u}(x)
    rng = random.Random(62)
    for _ in range(20):
        s = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        P = p_ncl5(-u, s).poly
        substituted = UniPoly(QQ, [P.coeff(5 - j) * s ** (5 - j) for j in range(6)])
        assert substituted == s ** 4 * brumer(s, u).poly


def _perturbed(monkeypatch, name, index):
    """Add 1 to coefficient `index` of the family coefficient function `name`."""
    exact = getattr(families, name)
    monkeypatch.setattr(
        families, name, lambda *args: [a + 1 if j == index else a for j, a in enumerate(exact(*args))]
    )


def test_brumer_substitution_negative_control(monkeypatch):
    # the checks evaluate the library's own coefficients: perturbed Brumer
    # coefficients break both the substitution and the Darmon transform
    with monkeypatch.context() as m:
        _perturbed(m, "_brumer_coeffs", 2)
        assert not check_brumer_substitution()
        assert not check_darmon_transform()
    _perturbed(monkeypatch, "_pncl5_coeffs", 0)
    assert not check_brumer_substitution()


def test_shanks_reproduction_negative_control(monkeypatch):
    _perturbed(monkeypatch, "_ptilde3_coeffs", 2)
    assert not check_shanks_reproduction()


def test_darmon_transform():
    assert check_darmon_transform()
    # the public constructors agree: D_{S,T}(x) = -B_{S+3,T+2S+5}(-x)
    rng = random.Random(63)
    for _ in range(10):
        S = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        T = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        B = brumer(S + 3, T + 2 * S + 5).poly
        assert darmon(S, T).poly == UniPoly(QQ, [(-1) ** (j + 1) * B.coeff(j) for j in range(6)])


def test_darmon_sign_parity():
    # leading coefficient after x -> -x is -1 for odd degree
    B = brumer(3, 5).poly
    flipped = UniPoly(QQ, [(-1) ** k * a for k, a in enumerate(B.coeffs)])
    assert flipped.lc == -1


def test_shanks_family():
    assert shanks_cubic(1).poly == X ** 3 - X ** 2 - 4 * X - 1
    assert discriminant(shanks_cubic(1).poly) == 169
    assert check_shanks_reproduction()
    for t in (1, 2, 5, Fraction(-7, 3)):
        assert ptilde_cubic(-t, -1, t + 3).poly.coeffs == shanks_cubic(t).poly.coeffs
    assert ptilde_cubic(-2, -1, 5).poly == x ** 3 - 2 * x ** 2 - 5 * x - 1


PUBLIC_CONSTRUCTORS = {
    "pncl5": p_ncl5,
    "brumer": brumer,
    "darmon": darmon,
    "shanks": shanks_cubic,
    "ptilde3": ptilde_cubic,
    "ptilde4": ptilde_quartic,
    "gras": gras_quartic,
}


def test_public_constructors_follow_the_family_table():
    assert PUBLIC_CONSTRUCTORS.keys() == families.FAMILIES.keys()
    for name, (coeffs, names, var) in families.FAMILIES.items():
        values = [Fraction(k + 2, 3) for k in range(len(names))]
        fam = PUBLIC_CONSTRUCTORS[name](*values)
        assert fam.family == name
        assert list(fam.parameters.items()) == list(zip(names, values))
        assert fam.poly.var == var
        assert fam.poly.degree == len(coeffs(*values)) - 1


@pytest.mark.parametrize(
    "name, params, named",
    [
        ("cubic", {"t": 1}, "no family 'cubic'"),
        ("pncl5", {"n": 1}, "missing ['c']"),
        ("shanks", {"t": 2, "n": 5}, "unexpected ['n']"),
    ],
)
def test_family_polynomial_rejects_a_name_or_parameter_off_the_table(name, params, named):
    with pytest.raises(ValueError) as info:
        families.family_polynomial(name, params)
    assert named in str(info.value)


@pytest.mark.parametrize("value", [2.5, "5/2"])
def test_family_polynomial_rejects_float_and_string_parameters(value):
    with pytest.raises(TypeError):
        families.family_polynomial("shanks", {"t": value})
    with pytest.raises(TypeError):
        brumer(1, value)


def test_gras_family():
    assert gras_quartic(0).poly == X ** 4 - 6 * X ** 2 + 1
    assert ptilde_quartic(2, 3).poly == x ** 4 - 2 * x ** 3 - x ** 2 + 2 * x - 3


def _gras_resultant(t, n_shift=0):
    """Res_x(ptilde_quartic(n + n_shift, c)(x), X - h(x)) at rational t, made monic."""
    FX = FunctionField("X")
    n = (t * t + 32) / (2 * t * t) + n_shift
    c = (3 * t ** 4 - 1024) / (16 * t ** 4)
    ptilde = UniPoly(FX, [FX(a) for a in ptilde_quartic(n, c).poly.coeffs])
    second = UniPoly(FX, [FX.gen + FX((t * t + 32) / (8 * t)), FX.zero, FX(-t / 2)])
    res = resultant(ptilde, second)
    assert res.is_polynomial
    return res.num.monic()


def test_gras_resultant_identity():
    assert gras_resultant_identity()
    # the public constructors agree at rational t != 0
    for t in (2, -3, Fraction(5, 2)):
        assert _gras_resultant(Fraction(t)) == gras_quartic(t).poly


def test_gras_resultant_negative_control(monkeypatch):
    # wrong n (n+1) must break the specialized identity
    t = Fraction(2)
    assert _gras_resultant(t, n_shift=1) != gras_quartic(t).poly
    # and the library check, fed a perturbed ptilde4, must fail formally too
    with monkeypatch.context() as m:
        _perturbed(m, "_ptilde4_coeffs", 1)
        assert not gras_resultant_identity()
    # and so must a perturbed Gras quartic on the other side
    _perturbed(monkeypatch, "_gras_coeffs", 1)
    assert not gras_resultant_identity()


def test_gras_specialization_at_2_value():
    # both sides specialize to X^4 - 2X^3 - 6X^2 + 2X + 1
    assert gras_quartic(2).poly == X ** 4 - 2 * X ** 3 - 6 * X ** 2 + 2 * X + 1
