import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellquot import (
    ConstructionInput,
    CurvePoint,
    FunctionField,
    INFINITY,
    QQ,
    SingularCurveError,
    TorsionOrderError,
    WeierstrassCurve,
    certify,
    kubert_curve,
    lift_x,
    tate_curve,
)
from ellquot.errors import DegenerateParameterError, OffCurveError

ALL_LEVELS = (3, 4, 5, 6, 7, 8, 9, 10, 12)


def rand_param(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def test_kubert_orders_all_levels():
    rng = random.Random(31)
    for l in ALL_LEVELS:
        checked = 0
        while checked < 20:
            params = (
                (rand_param(rng), rand_param(rng)) if l == 3 else (rand_param(rng),)
            )
            try:
                curve, A = kubert_curve(l, *params)
            except (SingularCurveError, DegenerateParameterError, ZeroDivisionError):
                continue
            assert curve.order_of_point(A, 16) == l
            checked += 1


def test_kubert_examples():
    curve, A = kubert_curve(5, Fraction(1))
    assert curve.a_invariants() == (0, -1, -1, 0, 0)
    assert curve.order_of_point(A, 16) == 5

    curve, A = kubert_curve(3, 0, 6)
    assert curve.add(A, A) == CurvePoint.affine(Fraction(0), Fraction(-6))
    assert curve.scalar_mul(3, A).inf

    curve, A = kubert_curve(4, Fraction(1, 3))
    assert curve.order_of_point(A, 16) == 4

    curve, A = kubert_curve(6, Fraction(2))
    assert curve.order_of_point(A, 12) == 6


def test_kubert_rejects_singular_and_wrong_arity():
    with pytest.raises(SingularCurveError):
        kubert_curve(5, Fraction(0))
    with pytest.raises(SingularCurveError):
        kubert_curve(3, 0, 0)
    with pytest.raises(ValueError):
        kubert_curve(11, Fraction(1))
    with pytest.raises(ValueError):
        kubert_curve(5, Fraction(1), Fraction(2))


@pytest.mark.parametrize("params", [(5, 0.1), (5, "1/3"), (3, 0, 6.0), (3, "0", 6)])
def test_kubert_rejects_float_and_string_parameters(params):
    with pytest.raises(TypeError):
        kubert_curve(*params)


def test_symbolic_order_five():
    Fc = FunctionField("c")
    curve, A = kubert_curve(5, Fc.gen)
    assert curve.scalar_mul(5, A).inf
    for k in range(1, 5):
        assert not curve.scalar_mul(k, A).inf


def test_group_law_identity_inverse():
    curve, A = kubert_curve(5, Fraction(2))
    P = curve.add(A, A)
    assert curve.add(P, INFINITY) == P
    assert curve.add(P, curve.neg(P)).inf


def test_group_law_associativity():
    rng = random.Random(33)
    checked = 0
    while checked < 200:
        l = rng.choice((5, 6, 7))
        try:
            curve, A = kubert_curve(l, rand_param(rng))
        except (SingularCurveError, DegenerateParameterError, ZeroDivisionError, TorsionOrderError):
            continue
        pts = [curve.scalar_mul(k, A) for k in range(0, l)]
        P, Q, R = (rng.choice(pts) for _ in range(3))
        left = curve.add(curve.add(P, Q), R)
        right = curve.add(P, curve.add(Q, R))
        assert left == right
        checked += 1


def _kubert_through(l, x0, y0, a1):
    """The level-l Kubert curve through (x0, y0), with its order-l point A.

    Each family is linear in its parameter at a fixed point, which solves it.
    """
    if l == 3:
        return kubert_curve(3, a1, (x0 ** 3 - y0 * y0 - a1 * x0 * y0) / y0)
    if l == 4:
        return kubert_curve(4, (x0 ** 3 - y0 * y0 - x0 * y0) / (x0 * x0 - y0))
    return kubert_curve(5, (y0 * y0 + x0 * y0 - x0 ** 3) / (x0 * y0 + y0 - x0 * x0))


small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    l=st.sampled_from([3, 4, 5]),
    x0=small,
    y0=small.filter(bool),
    a1=small,
    coords=st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)), min_size=3, max_size=3),
)
def test_group_law_associative_with_a_point_of_infinite_order(l, x0, y0, a1, coords):
    try:
        curve, A = _kubert_through(l, x0, y0, a1)
    except (ZeroDivisionError, SingularCurveError, DegenerateParameterError, TorsionOrderError):
        assume(False)
    P0 = CurvePoint.affine(x0, y0)
    assume(curve.is_infinite_order(P0))
    P, Q, R = (curve.add(curve.scalar_mul(i, A), curve.scalar_mul(j, P0)) for i, j in coords)
    assert curve.add(curve.add(P, Q), R) == curve.add(P, curve.add(Q, R))
    assert curve.add(P, Q) == curve.add(Q, P)


def test_off_curve_rejected():
    curve, _ = kubert_curve(5, Fraction(1))
    bad = CurvePoint.affine(Fraction(1), Fraction(5))
    assert not curve.contains(bad)
    with pytest.raises(OffCurveError):
        curve.add(bad, INFINITY)


def test_order_of_point_examples():
    curve, A = kubert_curve(6, Fraction(3))
    assert curve.order_of_point(INFINITY, 12) == 1
    assert curve.order_of_point(A, 12) == 6


def test_is_infinite_order():
    curve, A = kubert_curve(5, Fraction(1))
    assert not curve.is_infinite_order(A)  # order 5
    assert not curve.is_infinite_order(INFINITY)  # order 1
    # y^2 + 6y = x^3 contains (3, 3), a point of infinite order
    curve, _ = kubert_curve(3, 0, 6)
    P = CurvePoint.affine(Fraction(3), Fraction(3))
    assert curve.contains(P)
    assert curve.is_infinite_order(P)


def test_b_form_and_b_point_round_trip():
    curve, A = kubert_curve(3, 0, 6)
    b = curve.b_form()
    assert (b.b2, b.b4, b.b6) == (0, 0, 36)
    P = CurvePoint.affine(Fraction(3), Fraction(3))
    xb, yb = curve.b_point(P)
    assert (xb, yb) == (3, 12)  # y_b = 2y + a3 = 6 + 6
    assert yb ** 2 == curve.b_rhs(xb)
    assert curve.from_b_point(xb, yb) == P


def test_order_of_point_refuses_a_bound_below_1():
    curve, A = kubert_curve(5, Fraction(1))
    for bound in (0, -3):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            curve.order_of_point(A, bound)


def test_is_infinite_order_refuses_a_curve_over_Q_c():
    Fc = FunctionField("c")
    curve, A = kubert_curve(5, Fc.gen)
    with pytest.raises(ValueError, match="specific to curves over Q"):
        curve.is_infinite_order(A)


def test_infinity_has_no_b_point():
    curve, _ = kubert_curve(3, 0, 6)
    with pytest.raises(ValueError, match="infinity has no affine b-form image"):
        curve.b_point(INFINITY)


def test_b_form_identity_symbolic():
    Fc = FunctionField("c")
    curve, A = kubert_curve(5, Fc.gen)
    b = curve.b_form()
    # y_b^2 - (4x^3 + b2 x^2 + 2 b4 x + b6) vanishes for every curve point;
    # check on the multiples of A
    for k in range(1, 5):
        P = curve.scalar_mul(k, A)
        xb, yb = curve.b_point(P)
        assert yb * yb == curve.b_rhs(xb)


def test_velu_codomain_b2_table_l5():
    Fc = FunctionField("c")
    c = Fc.gen
    from ellquot import velu_quotient

    curve, A = kubert_curve(5, c)
    isog = velu_quotient(curve, A, 5)
    # the kernel-sum model of the codomain has b2 = c^2 - 30c + 1
    sigma = sum((Q.x for Q in isog.kernel_points), Fc.zero)
    model = isog.codomain.translated(-sigma)
    assert model.b_form().b2 == c * c - 30 * c + 1


def test_translated_is_isomorphic():
    curve, A = kubert_curve(5, Fraction(3))
    moved = curve.translated(Fraction(7))
    assert moved.discriminant() == curve.discriminant()
    P = curve.add(A, A)
    shifted = CurvePoint.affine(P.x - 7, P.y)
    assert moved.contains(shifted)


OFF_CURVE_ENTRY_POINTS = {
    "add, first point": lambda E, bad: E.add(bad, INFINITY),
    "add, second point": lambda E, bad: E.add(INFINITY, bad),
    "neg": lambda E, bad: E.neg(bad),
    "scalar_mul, k > 0": lambda E, bad: E.scalar_mul(3, bad),
    "scalar_mul, k < 0": lambda E, bad: E.scalar_mul(-3, bad),
    "order_of_point": lambda E, bad: E.order_of_point(bad, 12),
    "is_infinite_order": lambda E, bad: E.is_infinite_order(bad),
    "b_point": lambda E, bad: E.b_point(bad),
}


@pytest.mark.parametrize("entry", sorted(OFF_CURVE_ENTRY_POINTS))
def test_every_group_law_entry_point_rejects_an_off_curve_point(entry):
    curve, _ = kubert_curve(5, Fraction(1))
    bad = CurvePoint.affine(Fraction(1), Fraction(5))
    with pytest.raises(OffCurveError):
        OFF_CURVE_ENTRY_POINTS[entry](curve, bad)


@pytest.fixture
def contains_calls(monkeypatch):
    """One entry per WeierstrassCurve.contains call made while the test runs."""
    calls = []
    contains = WeierstrassCurve.contains

    def counting_contains(self, P):
        calls.append(P)
        return contains(self, P)

    monkeypatch.setattr(WeierstrassCurve, "contains", counting_contains)
    return calls


def test_the_walks_check_their_point_once(contains_calls):
    curve, _ = kubert_curve(3, 0, 6)
    P = CurvePoint.affine(Fraction(3), Fraction(3))  # infinite order
    for k in (0, 1, 12, -12, 25):
        contains_calls.clear()
        curve.scalar_mul(k, P)
        assert contains_calls == [P], k
    contains_calls.clear()
    assert curve.is_infinite_order(P)
    assert contains_calls == [P]


def _k_fold_public_add(curve, k, P):
    step = P if k >= 0 else curve.neg(P)
    out = INFINITY
    for _ in range(abs(k)):
        out = curve.add(out, step)
    return out


def _kubert_points(curve, A, l):
    """The multiples of A, the rational points with small x, and their sums with A."""
    lifts = [P for n in range(-12, 13) for d in (1, 2, 3) for P in lift_x(curve, Fraction(n, d))]
    return [curve.scalar_mul(i, A) for i in range(l)] + lifts + [curve.add(P, A) for P in lifts]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    l=st.sampled_from([4, 5, 6, 7, 8, 9, 10, 12]),
    c=small,
    index=st.integers(0, 10 ** 6),
    k=st.integers(-12, 12),
)
def test_scalar_mul_is_the_repeated_public_add_on_kubert_points(l, c, index, k):
    try:
        curve, A = kubert_curve(l, c)
    except (SingularCurveError, DegenerateParameterError):
        assume(False)
    points = _kubert_points(curve, A, l)
    P = points[index % len(points)]
    assert curve.scalar_mul(k, P) == _k_fold_public_add(curve, k, P)
    assert not curve.is_infinite_order(curve.scalar_mul(k, A))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    l=st.sampled_from([5, 6]),
    row=st.sampled_from([1, 2]),
    v0=st.integers(1, 5),
    z=st.integers(1, 29),
    k=st.integers(-12, 12),
)
def test_scalar_mul_is_the_repeated_public_add_on_certificate_points(l, row, v0, z, k):
    if l == 5:
        cert = certify(ConstructionInput(5, row=row, params={"z": Fraction(z)}))
    else:
        cert = certify(ConstructionInput(6, params={"v0": Fraction(v0), "z": Fraction(z)}))
    assume(cert.on_curve)
    curve, P = cert.curve_F, cert.point
    assert curve.scalar_mul(k, P) == _k_fold_public_add(curve, k, P)
