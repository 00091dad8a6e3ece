from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellquot import MultiPoly

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
VARS = ("a", "b")
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
multipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=5
).map(lambda terms: MultiPoly(VARS, terms))


def test_identity_examples():
    c = MultiPoly.variable("c", ("c",))
    one = MultiPoly.constant(("c",), 1)
    assert (c + one) ** 2 == c * c + 2 * c + one
    assert c * c != c * c + one


def test_mixed_variable_sets_rejected():
    a = MultiPoly.variable("a", ("a",))
    b = MultiPoly.variable("b", ("b",))
    with pytest.raises(ValueError):
        a == b


def test_a_negative_power_raises_value_error():
    # with no check, k >>= 1 keeps k = -1 and the power never ends
    c = MultiPoly.variable("c", ("c",))
    with pytest.raises(ValueError, match="negative power"):
        c ** -1
    assert c ** 0 == MultiPoly.constant(("c",), 1)


@SETTINGS
@given(multipolys, multipolys, multipolys)
def test_ring_axioms(f, g, h):
    zero, one = MultiPoly(VARS), MultiPoly.constant(VARS, 1)
    assert (f + g) + h == f + (g + h) and f + g == g + f
    assert (f * g) * h == f * (g * h) and f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and f * zero == zero
    assert f - f == zero and f + (-f) == zero
    assert f ** 2 == f * f


@SETTINGS
@given(multipolys, multipolys)
def test_arithmetic_agrees_with_sympy(f, g):
    # sympy serves only as an oracle for the sums and products
    import sympy

    gens = sympy.symbols(VARS)

    def to_sympy(h):
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in h.terms.items()}
        return sympy.Poly.from_dict(terms or {(0, 0): 0}, gens)

    a, b = to_sympy(f), to_sympy(g)
    for got, want in ((f + g, a + b), (f * g, a * b)):
        assert got.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in want.terms() if c}
