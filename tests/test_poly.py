import random
from fractions import Fraction

import pytest

from ellquot import (
    FunctionField,
    QQ,
    UniPoly,
    ZeroPolynomialError,
    discriminant,
    resultant,
)

from oracles import sylvester_resultant

x = UniPoly.gen(QQ)


def rand_poly(rng, max_deg=4, zero_ok=False):
    while True:
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(1, max_deg + 1))
        ]
        f = UniPoly(QQ, coeffs)
        if zero_ok or not f.is_zero:
            return f


def test_arithmetic_examples():
    assert (x + 1) * (x - 1) == x ** 2 - 1
    assert (x ** 2 - 1).gcd(x - 1) == x - 1
    assert (x ** 2 - 30 * x + 1)(Fraction(1)) == -28


def test_divrem_property():
    rng = random.Random(1)
    for _ in range(200):
        f = rand_poly(rng, 6)
        g = rand_poly(rng, 4)
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        x.divmod(UniPoly.zero(QQ))


def test_a_negative_power_raises_value_error():
    # with no check, k >>= 1 keeps k = -1 and the power never ends
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
    assert x ** 0 == UniPoly.one(QQ)


def test_gcd_monic_and_common_factor():
    rng = random.Random(2)
    for _ in range(40):
        g = rand_poly(rng, 3).monic()
        if g.degree == 0:
            continue
        a = g * rand_poly(rng, 3)
        b = g * rand_poly(rng, 3)
        h = a.gcd(b)
        assert h.lc == 1
        assert (h % g).is_zero or (g % h).is_zero


def test_compose_and_derivative():
    f = x ** 2 + 1
    g = x - 3
    assert f(g) == (x - 3) ** 2 + 1
    assert (x ** 3 - 2 * x).derivative() == 3 * x ** 2 - 2


def test_resultant_linear_case_multivariate():
    # over Q(c): resultant(x - c, x - (c^2 + 1)) = c^2 + 1 - c
    Fc = FunctionField("c")
    c = Fc.gen
    xc = UniPoly.gen(Fc)
    assert resultant(xc - c, xc - (c * c + 1)) == c * c + 1 - c


def test_resultant_evaluation_property():
    for f in (x ** 2 + 1, x ** 3 - 2 * x + 5, x ** 5 - x - 1):
        for c in (Fraction(1), Fraction(-3), Fraction(2, 7)):
            assert resultant(f, x - c) == f(c)
    assert resultant(x ** 2 + 1, x - 1) == 2


def test_resultant_against_sylvester_oracle():
    # constants and deg f < deg g included; over Q(c) the leading
    # coefficients are rational functions that Euclid's loop inverts
    rng = random.Random(3)
    for _ in range(40):
        f = rand_poly(rng, 4)
        g = rand_poly(rng, 4)
        assert resultant(f, g) == sylvester_resultant(f, g)
    Fc = FunctionField("c")
    c = Fc.gen

    def coeff():
        return (c * rng.randint(-3, 3) + rng.randint(-3, 3)) / (c * c + rng.randint(1, 3))

    for _ in range(8):
        f, g = (
            UniPoly(Fc, [coeff() for _ in range(rng.randint(0, 3))] + [coeff() + 1])
            for _ in range(2)
        )
        assert resultant(f, g) == sylvester_resultant(f, g)


def test_resultant_zero_iff_common_factor():
    rng = random.Random(4)
    for _ in range(30):
        shared = rand_poly(rng, 2)
        while shared.degree < 1:
            shared = rand_poly(rng, 2)
        f = shared * rand_poly(rng, 2)
        g = shared * rand_poly(rng, 2)
        assert resultant(f, g) == 0
        assert f.gcd(g).degree >= 1
    for _ in range(30):
        f = rand_poly(rng, 3)
        g = rand_poly(rng, 3)
        if f.gcd(g).degree == 0:
            assert resultant(f, g) != 0


def test_resultant_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        resultant(UniPoly.zero(QQ), x)


def test_resultant_rejects_mixed_operands_even_when_constant():
    Fc = FunctionField("c")
    xc = UniPoly.gen(Fc)
    cases = (
        (x ** 2 + 1, UniPoly.constant(QQ, 3, "y"), "mixed variables"),
        (x ** 2 + 1, UniPoly.constant(Fc, Fc.gen, "x"), "mixed coefficient fields"),
        (x ** 2 + 1, xc ** 2 + 1, "mixed coefficient fields"),
    )
    for f, g, message in cases:
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError, match=message):
                resultant(a, b)


def test_discriminant_examples():
    assert discriminant(x ** 2 - 1) == 4
    assert discriminant(x ** 3 - x ** 2 - 4 * x - 1) == 169
    assert discriminant(x ** 3 - 2) == -108
    with pytest.raises(ValueError):
        discriminant(x - 1)


def test_discriminant_shanks_closed_form():
    Ft = FunctionField("t")
    t = Ft.gen
    X = UniPoly.gen(Ft, "X")
    shanks = X ** 3 - t * X ** 2 - (t + 3) * X - Ft(1)
    assert discriminant(shanks) == (t * t + 3 * t + 9) ** 2


def test_gras_quartic_resultant_value_at_2():
    # brute Sylvester oracle for the specialized identity at t=2
    FX = FunctionField("X")
    X = FX.gen
    t = Fraction(2)
    n = (t * t + 32) / (2 * t * t)
    c = (3 * t ** 4 - 1024) / (16 * t ** 4)
    y = UniPoly.gen(FX)
    f = y ** 4 - 2 * y ** 3 + FX(1 - n) * y * y + FX(n) * y - FX(c)
    g = UniPoly(FX, [X + FX((t * t + 32) / (8 * t)), FX.zero, FX(-t / 2)])
    res = sylvester_resultant(f, g)
    normalized = res.num.monic()
    expect = UniPoly(QQ, [1, 2, -6, -2, 1], "X")
    assert normalized == expect


def test_polynomials_in_different_variables_do_not_mix():
    X = UniPoly.gen(QQ, "X")
    for op in (lambda: x + X, lambda: x - X, lambda: x * X, lambda: x.divmod(X), lambda: x.gcd(X)):
        with pytest.raises(ValueError, match="mixed variables"):
            op()
    assert x != X and hash(x) != hash(X)
    assert UniPoly.one(QQ, "x") != UniPoly.one(QQ, "X")
    c, s = FunctionField("c").gen, FunctionField("s").gen
    for op in (lambda: c + s, lambda: c * s, lambda: FunctionField("c")(x), lambda: c + x):
        with pytest.raises(ValueError, match="mixed variables"):
            op()
    assert FunctionField("c")(UniPoly.gen(QQ, "c")) == c


@pytest.mark.parametrize("degree", [1, 3])
def test_division_and_gcd_refuse_polynomials_over_another_field(degree):
    xc = UniPoly.gen(FunctionField("c"))
    over_q, over_qc = x ** degree + 2 * x + 1, xc ** degree + 1
    for f, g in ((over_q, over_qc), (over_qc, over_q)):
        for op in (lambda: f.divmod(g), lambda: f % g, lambda: f.gcd(g)):
            with pytest.raises(ValueError, match="mixed coefficient fields"):
                op()
    with pytest.raises(ZeroPolynomialError):
        xc.divmod(UniPoly.zero(xc.field))


def test_coefficients_of_another_field_are_refused_when_built():
    Fc, Fs = FunctionField("c"), FunctionField("s")
    with pytest.raises(ValueError, match="mixed variables"):
        UniPoly(Fc, [Fs.gen, 1])
    assert UniPoly(Fc, [Fc.gen, 1]).coeffs == (Fc.gen, Fc.one)


def test_function_field_arithmetic():
    Fc = FunctionField("c")
    c = Fc.gen
    val = (c * c - 1) / (c - 1)
    assert val == c + 1
    assert (c / c) == Fc(1)
    with pytest.raises(ZeroDivisionError):
        c / Fc(0)
