from fractions import Fraction

import pytest

from ellquot import QQ, UniPoly, factor_mod_p, is_square, rational_sqrt


def test_rational_sqrt_examples():
    assert rational_sqrt(Fraction(25, 9)) == Fraction(5, 3)
    assert rational_sqrt(2) is None
    assert rational_sqrt(121) == 11
    assert rational_sqrt(0) == 0
    assert rational_sqrt(-4) is None


def test_is_square():
    assert is_square(Fraction(49, 64))
    assert not is_square(Fraction(50, 64))


def test_rational_coercion():
    # Fraction is the rational type; QQ coerces ints and Fractions only
    assert QQ(Fraction(6, 8)) == Fraction(3, 4)
    assert QQ(7) == 7
    assert isinstance(QQ(7), Fraction)
    for value in (1.5, "7", "3/4"):
        with pytest.raises(TypeError):
            QQ(value)
        with pytest.raises(TypeError):
            rational_sqrt(value)


def test_prime_field_rejects_composites():
    # reduction modulo n is only defined for a prime n: Z/10 is not a field
    x = UniPoly.gen(QQ)
    with pytest.raises(ValueError, match="10 is not prime"):
        factor_mod_p(x + 1, 10)
