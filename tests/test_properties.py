"""Property tests of the polynomial kernel, the ring Q[x], exact Galois labels
and the JSON codecs.

sympy and tests/oracles.py serve only as independent oracles here; the
package never imports them.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from ellquot import (
    QQ,
    EllquotError,
    UniPoly,
    factor_mod_p,
    factor_over_Q,
    galois_group,
    kubert_curve,
    rational_roots,
    resultant,
)
from ellquot import intpoly as ip
from ellquot.factor import degree_pattern
from ellquot.curves import KUBERT_PARAMETERS
from ellquot.jsonio import (
    curve_to_json,
    point_to_json,
    poly_from_ascii,
    poly_to_ascii,
    poly_to_json,
)
from ellquot.poly import discriminant
from oracles import (
    curve_from_json,
    expand_factors,
    naive_rational_roots,
    point_from_json,
    poly_from_json,
    sylvester_resultant,
)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

x = UniPoly.gen(QQ)
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def polys(min_degree=0, max_degree=3, coeffs=rationals):
    """Polynomials over Q with exactly the drawn degree (nonzero leading coefficient)."""
    return st.builds(
        lambda low, lc: UniPoly(QQ, low + [lc]),
        st.integers(min_degree, max_degree).flatmap(lambda d: st.lists(coeffs, min_size=d, max_size=d)),
        coeffs.filter(bool),
    )


@st.composite
def products_with_repeats(draw):
    """unit * x^k * prod(g_i^m_i): repeated factors and a power of x, degree <= 16."""
    f = UniPoly.constant(QQ, draw(rationals.filter(bool)))
    f = f * x ** draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 3))):
        g = draw(polys(1, 3))
        m = draw(st.integers(1, 3))
        if f.degree + m * g.degree <= 16:
            f = f * g ** m
    return f


@SETTINGS
@given(products_with_repeats())
def test_factor_over_Q_expands_back(f):
    fl = factor_over_Q(f)
    assert all(g.lc == 1 for g, _ in fl.factors)
    assert expand_factors(fl) == f


@st.composite
def yun_products(draw):
    """unit * prod g_m^m over 2 or 3 distinct multiplicities m in 1..3.

    The g_m are pairwise coprime and squarefree: 1-2 linear factors with
    distinct nonzero rational roots each, times x^2 + k (no rational root,
    k distinct per part) or not, so the product has exactly one Yun part
    per multiplicity.  Numerators and denominators stay small enough for the
    divisor scan of the naive oracle.
    """
    mults = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3, unique=True))
    nonzero = st.builds(Fraction, st.integers(-2, 2).filter(bool), st.integers(1, 2))
    roots = draw(st.lists(nonzero, min_size=len(mults), max_size=2 * len(mults), unique=True))
    f = UniPoly.constant(QQ, draw(rationals.filter(bool)))
    for k, m in enumerate(mults, start=1):
        g = x ** 2 + k if draw(st.booleans()) else UniPoly.one(QQ)
        for r in roots[k - 1 :: len(mults)]:
            g = g * (x - r)
        f = f * g ** m
    return f


@SETTINGS
@given(yun_products())
def test_rational_roots_of_repeated_factors_match_the_naive_oracle(f):
    assert rational_roots(f) == naive_rational_roots(f)


@SETTINGS
@given(polys(0, 4), polys(0, 3))
def test_evaluating_at_a_polynomial_composes_as_sympy_does(f, g):
    X = sympy.Symbol("x")
    expected = sympy.Poly(_to_sympy(f).as_expr().subs(X, _to_sympy(g).as_expr()), X, domain="QQ")
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    assert f(g) == UniPoly(QQ, coeffs)


def _expand_mod(factors, lc, p):
    """lc times the product of the factors g^m mod p, as an int list."""
    out = [lc]
    for g, m in factors:
        for _ in range(m):
            out = ip.mul(out, list(g), p)
    return out


@SETTINGS
@given(
    polys(1, 8, st.integers(-50, 50).map(Fraction)),
    # multiplicities up to 2p + 1 reach p-th powers, whose derivative is 0
    st.sampled_from([2, 3, 5, 101]).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, 2 * min(p, 5) + 1))),
)
def test_factor_mod_p_expands_back_with_monic_factors(g, pm):
    p, m = pm
    ints = ip.trim([int(c) for c in (g ** m).coeffs], p)
    assume(len(ints) >= 2)
    fl = factor_mod_p(UniPoly(QQ, ints), p)
    assert all(h[-1] == 1 and all(0 <= c < p for c in h) for h, _ in fl)
    assert len({h for h, _ in fl}) == len(fl)
    assert _expand_mod(fl, ints[-1], p) == ints
    if g.lc % p:
        assert factor_mod_p(g ** m, p) == fl
    else:
        with pytest.raises(ValueError, match="divides the leading coefficient"):
            factor_mod_p(g ** m, p)


def _has_root_mod(coeffs, p):
    return any(sum(c * r ** i for i, c in enumerate(coeffs)) % p == 0 for r in range(p))


@st.composite
def irreducible_mod(draw, p, d):
    """A monic irreducible of degree 2 or 3 mod p: one with no root mod p.

    The search starts at a drawn polynomial and walks all p^d monic ones.
    """
    start = draw(st.integers(0, p ** d - 1))
    for step in range(p ** d):
        i = (start + step) % p ** d
        coeffs = [i // p ** k % p for k in range(d)] + [1]
        if not _has_root_mod(coeffs, p):
            return coeffs
    raise AssertionError(f"no irreducible of degree {d} mod {p}")


@st.composite
def products_mod_p(draw):
    """(f, p): a unit times distinct irreducibles of one degree d in {2, 3}
    times a random polynomial raised to a power up to 3, as an int list mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 367]))
    d = draw(st.sampled_from([2, 3]))
    f = [draw(st.integers(1, p - 1))]
    for g in draw(st.lists(irreducible_mod(p, d), min_size=1, max_size=3, unique_by=tuple)):
        f = ip.mul(f, g, p)
    extra = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3)) + [1]
    for _ in range(draw(st.integers(0, 3))):
        f = ip.mul(f, extra, p)
    return f, p


@SETTINGS
@given(products_mod_p())
def test_factor_mod_p_agrees_with_sympy_and_returns_irreducibles(f_p):
    f, p = f_p
    fl = factor_mod_p(UniPoly(QQ, f), p)
    assert _expand_mod(fl, f[-1], p) == f
    X = sympy.Symbol("x")
    _, expected = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    assert sorted(len(g) - 1 for g, m in fl for _ in range(m)) == sorted(
        g.degree() for g, m in expected for _ in range(m)
    )
    for g, _ in fl:
        assert sympy.Poly(list(reversed(g)), X, modulus=p).is_irreducible


@st.composite
def integer_products_mod_p(draw):
    """(f, p): an integer unit times g_i^m_i, g_i of degree 1..3 and m_i in
    1..3, degree <= 16, with p from a fixed list not dividing lc f."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 367]))
    f = UniPoly.constant(QQ, draw(st.integers(1, 9)))
    for _ in range(draw(st.integers(1, 3))):
        g = draw(polys(1, 3, st.integers(-9, 9).map(Fraction)))
        m = draw(st.integers(1, 3))
        if f.degree + m * g.degree <= 16:
            f = f * g ** m
    assume(f.lc % p)
    return f, p


@SETTINGS
@given(integer_products_mod_p())
def test_degree_pattern_is_the_degree_multiset_of_factor_mod_p(f_p):
    f, p = f_p
    expected = tuple(sorted(len(g) - 1 for g, m in factor_mod_p(f, p) for _ in range(m)))
    assert degree_pattern([int(c) for c in f.coeffs], p) == expected


def _to_sympy(f):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], sympy.Symbol("x"), domain="QQ")


@SETTINGS
@given(polys(0, 4), polys(0, 4), polys(0, 3))
def test_gcd_over_Q_is_the_monic_common_divisor_sympy_finds(a, b, common):
    a, b = a * common, b * common
    h = a.gcd(b)
    assert h.lc == 1
    assert a.divmod(h)[1].is_zero and b.divmod(h)[1].is_zero
    expected = sympy.gcd(_to_sympy(a), _to_sympy(b)).monic()
    assert [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())] == list(h.coeffs)


@SETTINGS
@given(polys(0, 6))
def test_ascii_form_round_trips(f):
    assert poly_from_ascii(poly_to_ascii(f)) == f


integer_polys = polys(0, 4, st.integers(-9, 9).map(Fraction))


@st.composite
def exactly_labelled_polys(draw):
    """Squarefree integer cubics and quartics, and products of two coprime
    integer factors of total degree 5 or 6: inputs whose label is exact."""
    coeffs = st.integers(-12, 12).map(Fraction)
    if draw(st.booleans()):
        f = draw(polys(3, 4, coeffs))
    else:
        g = draw(polys(1, 3, coeffs))
        f = g * draw(polys(max(1, 5 - g.degree), 6 - g.degree, coeffs))
    assume(discriminant(f) != 0)
    return f


def _sympy_label(f):
    """ellquot's label for f, named by sympy (as bench/test_bench.py maps it)."""
    from sympy.polys.numberfields.galoisgroups import galois_group as sympy_galois_group

    poly = _to_sympy(f)
    if not poly.is_irreducible:
        return "other"
    name = sympy_galois_group(poly, by_name=True)[0].name
    return {"A3": "C3", "V": "V4"}.get(name, name)


@SETTINGS
@given(exactly_labelled_polys())
def test_exact_galois_labels_agree_with_sympy_and_sample_nothing(f):
    rep = galois_group(f)
    assert (rep.group_label, rep.certainty) == (_sympy_label(f), "exact")
    assert (rep.primes_used, rep.pattern_histogram) == (0, {})


@SETTINGS
@given(integer_polys, integer_polys)
def test_resultant_is_the_sylvester_determinant(f, g):
    assert resultant(f, g) == sylvester_resultant(f, g)


ring_elements = st.one_of(st.just(UniPoly.zero(QQ)), polys(0, 4))


@SETTINGS
@given(ring_elements, ring_elements, ring_elements)
def test_polynomials_over_Q_form_a_commutative_ring(f, g, h):
    zero, one = UniPoly.zero(QQ), UniPoly.one(QQ)
    assert (f + g) + h == f + (g + h) and f + g == g + f
    assert f + zero == f and f + (-f) == zero and f - g == f + (-g)
    assert (f * g) * h == f * (g * h) and f * g == g * f
    assert f * one == f and f * zero == zero
    assert f * (g + h) == f * g + f * h


@st.composite
def kubert_points(draw):
    """(curve, k*A) for a nonsingular rational Kubert curve and 0 <= k <= l."""
    l = draw(st.sampled_from(sorted(KUBERT_PARAMETERS)))
    params = [draw(rationals) for _ in KUBERT_PARAMETERS[l]]
    try:
        E, A = kubert_curve(l, *params)
    except EllquotError:
        assume(False)
    return E, E.scalar_mul(draw(st.integers(0, l)), A)


@SETTINGS
@given(polys(0, 6))
def test_poly_json_round_trips(f):
    assert poly_from_json(poly_to_json(f)) == f


@SETTINGS
@given(kubert_points())
def test_curve_and_point_json_round_trip(curve_point):
    E, P = curve_point
    assert curve_from_json(curve_to_json(E)) == E
    assert point_from_json(point_to_json(P)) == P
