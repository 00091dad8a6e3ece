import itertools
import math
import random
from fractions import Fraction

import pytest

from ellquot import (
    QQ,
    FunctionField,
    UniPoly,
    ZeroPolynomialError,
    discriminant,
    factor_mod_p,
    factor_over_Q,
    galois_group,
    rational_roots,
)
from ellquot import intpoly as ip
from ellquot.factor import PRIMALITY_BOUND, _euler_split, is_probable_prime, primes

from oracles import expand_factors, naive_rational_roots

x = UniPoly.gen(QQ)


def _expand_mod(factors, p):
    """The product of the factors g^m mod p, as an int list."""
    out = [1]
    for g, m in factors:
        for _ in range(m):
            out = ip.mul(out, list(g), p)
    return out


def test_factor_mod_5_splits_x2_plus_1():
    fl = factor_mod_p(x ** 2 + 1, 5)
    assert fl == [((2, 1), 1), ((3, 1), 1)]
    assert _expand_mod(fl, 5) == [1, 0, 1]
    roots = sorted(-g[0] % 5 for g, _ in fl)
    assert roots == [2, 3]


def test_factor_mod_3_irreducible():
    assert factor_mod_p(x ** 2 + 1, 3) == [((1, 0, 1), 1)]


def test_factor_mod_5_fermat():
    fl = factor_mod_p(x ** 5 - x, 5)
    assert fl == [((r, 1), 1) for r in range(5)]


def test_factor_mod_p_handles_multiplicities_and_char_2():
    f = (x + 1) ** 2 * (x ** 2 + x + 1)
    fl = factor_mod_p(f, 2)
    assert fl == [((1, 1), 2), ((1, 1, 1), 1)]
    assert _expand_mod(fl, 2) == ip.trim([int(c) for c in f.coeffs], 2)
    assert sorted(m for _, m in fl) == [1, 2]


def test_factor_mod_p_factors_times_the_leading_coefficient_give_f():
    f = 3 * (x + 2) ** 3 * (x ** 2 + 2)
    fl = factor_mod_p(f, 7)
    assert fl == [((2, 1), 3), ((2, 0, 1), 1)]
    assert ip.mul(_expand_mod(fl, 7), [3], 7) == ip.trim([int(c) for c in f.coeffs], 7)


def test_factor_mod_p_reduces_rational_coefficients():
    # 1/2 is 3 mod 5, so x + 1/2 is x + 3 and x^2 - 1/4 is (x + 2)(x + 3)
    assert factor_mod_p(x + Fraction(1, 2), 5) == [((3, 1), 1)]
    assert factor_mod_p(x ** 2 - Fraction(1, 4), 5) == [((2, 1), 1), ((3, 1), 1)]


def test_factor_mod_p_rejects_a_denominator_divisible_by_p():
    with pytest.raises(ZeroDivisionError):
        factor_mod_p(x ** 2 + Fraction(1, 10), 5)


def test_factor_mod_p_of_a_constant_has_no_factors():
    assert factor_mod_p(UniPoly.constant(QQ, 4), 3) == []
    with pytest.raises(ZeroPolynomialError):
        factor_mod_p(UniPoly.zero(QQ), 3)


def test_factor_mod_p_requires_prime():
    with pytest.raises(ValueError):
        factor_mod_p(x ** 2 + 1, 6)


def test_factor_mod_p_rejects_p_dividing_the_leading_coefficient():
    with pytest.raises(ValueError, match="divides the leading coefficient"):
        factor_mod_p(2 * x ** 2 + x + 1, 2)
    with pytest.raises(ValueError, match="divides the leading coefficient"):
        factor_mod_p(Fraction(5, 3) * x + 1, 5)


def _first_split(f, d, p):
    """The Euler split of a monic squarefree f mod p that is one block of
    degree-d irreducibles: one piece when it fails, two when it splits."""
    s = ip.powmod([0, 1], p // 2, f, p)
    rows = ip.frobenius_rows(ip.powmod([0, 1], p, f, p), f, p)
    return _euler_split(f, d, s, p, rows)


def test_first_split_puts_the_root_0_with_the_non_squares():
    # x(x - 1)(x - 4) mod 5: 1 and 4 are squares, so x is split off
    f = x * (x - 1) * (x - 4)
    assert _first_split([0, 4, 0, 1], 1, 5) == [[4, 0, 1], [0, 1]]
    assert factor_mod_p(f, 5) == [((0, 1), 1), ((1, 1), 1), ((4, 1), 1)]


def test_a_failed_first_split_falls_back_to_the_random_split():
    # (x - 1)(x - 4) mod 5: both roots are squares, so the first split fails
    assert _first_split([4, 0, 1], 1, 5) == [[4, 0, 1]]
    assert factor_mod_p((x - 1) * (x - 4), 5) == [((1, 1), 1), ((4, 1), 1)]


def test_first_split_of_a_block_of_two_quadratics():
    # mod 3 the roots of x^2 + 1 are squares in GF(9), those of the primitive
    # x^2 + x + 2 are not
    f = (x ** 2 + 1) * (x ** 2 + x + 2)
    assert _first_split([2, 1, 0, 1, 1], 2, 3) == [[1, 0, 1], [2, 1, 1]]
    assert factor_mod_p(f, 3) == [((1, 0, 1), 1), ((2, 1, 1), 1)]


def test_factor_mod_2_splits_blocks_by_the_trace():
    # x^8 - x is the product of the irreducibles of degree 1 and 3 mod 2
    f = (x ** 8 - x) * (x ** 2 + x + 1)
    assert factor_mod_p(f, 2) == [
        ((0, 1), 1), ((1, 1), 1), ((1, 1, 1), 1), ((1, 0, 1, 1), 1), ((1, 1, 0, 1), 1)
    ]


@pytest.mark.parametrize(
    "f, p, expected",
    [
        # multiplicities 3 and 6 are multiples of p
        ((x + 1) ** 3 * (x ** 2 + 1) ** 6 * (x ** 3 + 2 * x + 1), 3,
         [((1, 1), 3), ((1, 0, 1), 6), ((1, 2, 0, 1), 1)]),
        # (x^2 + x + 2)^3 = x^6 + x^3 + 2 mod 3, whose derivative is 0
        (x ** 6 + x ** 3 + 2, 3, [((2, 1, 1), 3)]),
        # a square and a fourth power mod 2: f' = 0 again
        (x ** 2 * (x ** 2 + x + 1) ** 4, 2, [((0, 1), 2), ((1, 1, 1), 4)]),
    ],
)
def test_factor_mod_p_counts_multiplicities_that_are_multiples_of_p(f, p, expected):
    fl = factor_mod_p(f, p)
    assert fl == expected
    assert _expand_mod(fl, p) == ip.trim([int(c) for c in f.coeffs], p)


def test_distinct_degree_stops_once_the_rest_is_irreducible(monkeypatch):
    # a rest of degree below 2(d + 1) with no factor of degree <= d is one
    # irreducible: x^3 - 2 mod 7 needs one Frobenius step, x^5 - x - 1 mod 3 two
    steps = []
    frobenius = ip.frobenius

    def counting(h, rows, p):
        steps.append(p)
        return frobenius(h, rows, p)

    monkeypatch.setattr(ip, "frobenius", counting)
    assert factor_mod_p(x ** 3 - 2, 7) == [((5, 0, 0, 1), 1)]
    assert len(steps) == 1
    steps.clear()
    assert factor_mod_p(x ** 5 - x - 1, 3) == [((2, 2, 0, 0, 0, 1), 1)]
    assert len(steps) == 2


def test_only_a_block_that_needs_a_random_split_builds_a_generator(monkeypatch):
    built = []

    class Counting(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counting)
    factor_mod_p(x ** 3 - 2, 7)
    factor_mod_p(x ** 5 - x - 1, 3)
    assert built == []
    # both roots of (x - 1)(x - 4) are squares mod 5, so the Euler split fails
    assert factor_mod_p((x - 1) * (x - 4), 5) == [((1, 1), 1), ((4, 1), 1)]
    assert len(built) == 1


@pytest.mark.parametrize(
    "f, expected",
    [
        ((x ** 8 - x) * (x ** 2 + x + 1),
         [(0, 1), (1, 1), (1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)]),
        ((x ** 4 + x + 1) * (x ** 4 + x ** 3 + 1), [(1, 0, 0, 1, 1), (1, 1, 0, 0, 1)]),
        (x ** 15 - 1, [(1, 1), (1, 1, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 1), (1, 1, 1, 1, 1)]),
    ],
)
def test_the_trace_split_mod_2_squares_with_the_frobenius_rows(monkeypatch, f, expected):
    # the one power left is x^(p // 2) in _factor_mod; each equal-degree
    # block of degree d > 1 is split by a trace of d - 1 Frobenius steps
    powers = []
    powmod = ip.powmod

    def counting(h, e, mod, p):
        powers.append(e)
        return powmod(h, e, mod, p)

    monkeypatch.setattr(ip, "powmod", counting)
    assert factor_mod_p(f, 2) == [(g, 1) for g in expected]
    assert powers == [1]


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, r))


def test_primality_is_proved_for_the_strong_pseudoprime_to_twelve_bases():
    assert PSI_12 == 399165290221 * 798330580441
    assert all(_strong_probable_prime(PSI_12, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not is_probable_prime(PSI_12)
    with pytest.raises(ValueError, match="is not prime"):
        factor_mod_p(x ** 2 + 2, PSI_12)


def test_primality_is_decided_below_the_bound_and_refused_above_it():
    assert is_probable_prime(2 ** 61 - 1)
    assert not is_probable_prime(2 ** 67 - 1)  # 193707721 * 761838257287
    assert not is_probable_prime(PRIMALITY_BOUND - 1)
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 1, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="primality bound"):
            is_probable_prime(n)
        with pytest.raises(ValueError, match="primality bound"):
            factor_mod_p(x ** 2 + 2, n)


def test_primality_agrees_with_trial_division():
    small = [n for n in range(3000) if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(3000) if is_probable_prime(n)] == small


def test_primality_agrees_with_a_sieve_around_the_trial_division_cut():
    """Below 43^2 trial division decides; the sieve covers both sides of the cut."""
    limit = 10 ** 4
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, limit, d))
    assert [is_probable_prime(n) for n in range(limit)] == sieve


def test_primes_yields_exactly_the_numbers_the_primality_test_accepts():
    first = list(itertools.islice(primes(), 2000))
    assert first == [n for n in range(first[-1] + 1) if is_probable_prime(n)]


def test_factor_over_Q_examples():
    fl = factor_over_Q(x ** 4 - 1)
    assert fl.degrees() == (1, 1, 2)
    assert expand_factors(fl) == x ** 4 - 1

    assert factor_over_Q(x ** 3 - x ** 2 - 4 * x - 1).is_irreducible

    f = (x ** 2 + x + 1) * (x ** 3 - 2)
    fl = factor_over_Q(f)
    assert fl.degrees() == (2, 3)
    assert expand_factors(fl) == f


def test_factor_over_Q_searches_past_every_small_bad_prime():
    # each of the first 120 primes divides D, so it divides disc(x^k - D)
    # and x^k - D has a repeated root mod every one of them
    D = math.prod(itertools.islice(primes(), 120))
    for k in (2, 3):
        f = x ** k - D
        assert factor_over_Q(f).factors == [(f, 1)]
    assert factor_over_Q((x ** 2 - D) * (x ** 2 - 2 * D)).degrees() == (2, 2)
    assert galois_group(x ** 3 - D).group_label == "S3"


def test_factor_over_Q_random_products_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        f = UniPoly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)] + [Fraction(1)])
        g = UniPoly(QQ, [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))] + [Fraction(rng.randint(1, 4))])
        prod = f * g
        if prod.degree < 1:
            continue
        fl = factor_over_Q(prod)
        assert expand_factors(fl) == prod
        for factor, _ in fl.factors:
            if factor.degree <= 3 and factor.degree > 1:
                assert rational_roots(factor) == []


def test_factor_degrees_match_mod_p_when_p_good():
    rng = random.Random(12)
    for _ in range(20):
        f = UniPoly(QQ, [Fraction(rng.randint(-9, 9)) for _ in range(4)] + [Fraction(1)])
        if f.gcd(f.derivative()).degree > 0:
            continue
        d = discriminant(f)
        for p in (5, 7, 11, 13):
            if (d.numerator * d.denominator) % p == 0:
                continue
            fl = factor_mod_p(f, p)
            assert sum((len(g) - 1) * m for g, m in fl) == f.degree


def test_rational_roots_examples():
    assert rational_roots(x ** 2 - 1) == [-1, 1]
    assert rational_roots(x ** 2 + 1) == []
    assert rational_roots((x - Fraction(2, 3)) * (x ** 2 + x + 1)) == [Fraction(2, 3)]
    assert rational_roots((x - 2) ** 3) == [2, 2, 2]
    assert rational_roots(x ** 2 * (x + 5)) == [-5, 0, 0]


def test_rational_roots_against_naive_oracle():
    rng = random.Random(13)
    for _ in range(25):
        roots = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        f = UniPoly(QQ, [Fraction(rng.randint(-5, 5)) for _ in range(2)] + [Fraction(1)])
        for r in roots:
            f = f * UniPoly(QQ, [-r, Fraction(1)])
        assert rational_roots(f) == naive_rational_roots(f)


def test_rational_roots_large_coefficients():
    r = Fraction(123456789, 987654321)
    f = (x - r) * (x ** 2 + 7) * Fraction(10 ** 30 + 57)
    assert rational_roots(f) == [r]


@pytest.mark.parametrize("name, call", [
    ("factor_mod_p", lambda f: factor_mod_p(f, 5)),
    ("factor_over_Q", factor_over_Q),
    ("rational_roots", rational_roots),
], ids=["factor_mod_p", "factor_over_Q", "rational_roots"])
def test_factoring_refuses_coefficients_outside_Q(name, call):
    X = UniPoly.gen(FunctionField("c"))
    with pytest.raises(ValueError, match=f"{name} needs rational coefficients"):
        call(X ** 2 + 1)


@pytest.mark.parametrize("call, message", [
    (factor_over_Q, "cannot factor the zero polynomial"),
    (rational_roots, "the zero polynomial has every rational root"),
], ids=["factor_over_Q", "rational_roots"])
def test_factoring_over_Q_refuses_the_zero_polynomial(call, message):
    with pytest.raises(ZeroPolynomialError, match=message):
        call(UniPoly.zero(QQ))


def test_degree_cap():
    with pytest.raises(ValueError):
        factor_over_Q(x ** 17 + 1)
