"""Kernel properties of intpoly: remainder-only reduction, the fused product
modulo a monic polynomial, powers and the Frobenius rows."""

import math

from hypothesis import given, settings, strategies as st

from ellquot import intpoly as ip

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

# primes and prime powers, as in GF(p) factoring and Hensel lifting
MODULI = [2, 3, 101, 367, 2 ** 10, 3 ** 5, 101 ** 3]


@st.composite
def dividend_divisor_modulus(draw):
    """(f, g, m): f with unreduced coefficients, g trimmed mod m with an
    invertible leading coefficient, monic or not."""
    m = draw(st.sampled_from(MODULI))
    f = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12))
    low = draw(st.lists(st.integers(0, m - 1), max_size=6))
    lc = 1 if draw(st.booleans()) else draw(st.integers(1, m - 1).filter(lambda c: math.gcd(c, m) == 1))
    return f, low + [lc], m


@SETTINGS
@given(dividend_divisor_modulus())
def test_rem_is_the_remainder_of_divmod(case):
    f, g, m = case
    assert ip.rem(f, g, m) == ip.divmod_mod(f, g, m)[1]


@st.composite
def modulus_and_residue(draw):
    """(f, h, p): f monic of degree 1..8 over GF(p), h of degree below deg f."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 367]))
    n = draw(st.integers(1, 8))
    f = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
    h = ip.trim(draw(st.lists(st.integers(0, p - 1), max_size=n)))
    return f, h, p


@SETTINGS
@given(modulus_and_residue())
def test_frobenius_rows_give_the_p_th_power(case):
    f, h, p = case
    rows = ip.frobenius_rows(ip.powmod([0, 1], p, f, p), f, p)
    assert ip.frobenius(h, rows, p) == ip.powmod(h, p, f, p)


@st.composite
def product_modulus(draw):
    """(f, g, mod, p): unreduced f and g, mod monic of degree 1..8 over GF(p)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 367]))
    n = draw(st.integers(1, 8))
    mod = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
    f = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=2 * n))
    g = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=2 * n))
    return f, g, mod, p


@SETTINGS
@given(product_modulus())
def test_mulmod_is_the_remainder_of_the_product(case):
    f, g, mod, p = case
    assert ip.mulmod(f, g, mod, p) == ip.rem(ip.mul(f, g), mod, p)


@SETTINGS
@given(modulus_and_residue(), st.sampled_from(["0", "1", "p//2", "p"]), st.booleans())
def test_powmod_is_repeated_multiplication(case, exponent, base_x):
    f, h, p = case
    if base_x:
        h = [0, 1]
    e = {"0": 0, "1": 1, "p//2": p // 2, "p": p}[exponent]
    expected = [1]
    for _ in range(e):
        expected = ip.rem(ip.mul(expected, h), f, p)
    assert ip.powmod(h, e, f, p) == expected


def test_divexact_zz_leaves_its_arguments_alone():
    # trim strips a list in place when no modulus is given, so the kernel's
    # exact division must not hand it a caller's list
    f, g = [0, 0], [1, 1, 1]
    assert ip.divexact_zz(f, g) == []
    assert f == [0, 0]
    f, g = [2, 3, 1], [1, 1]
    assert ip.divexact_zz(f, g) == [2, 1]
    assert f == [2, 3, 1]
