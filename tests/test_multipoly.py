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
@given(multipolys, multipolys, rationals, rationals)
def test_evaluation_is_a_ring_homomorphism(f, g, a, b):
    at = {"a": a, "b": b}
    assert (f + g).evaluate(at) == f.evaluate(at) + g.evaluate(at)
    assert (f * g).evaluate(at) == f.evaluate(at) * g.evaluate(at)


def test_evaluate():
    a, b = MultiPoly.gens(("a", "b"))
    f = a * a * b - 3 * b + 2
    assert f.evaluate({"a": 2, "b": Fraction(1, 2)}) == 2 - Fraction(3, 2) + 2
