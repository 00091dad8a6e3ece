import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from ellquot import (
    ConstructionInput,
    CurvePoint,
    DegenerateParameterError,
    EllquotError,
    FunctionField,
    INFINITY,
    OffCurveError,
    QQ,
    TorsionOrderError,
    UniPoly,
    WeierstrassCurve,
    certify,
    factor_over_Q,
    fiber_polynomial,
    has_rational_preimage,
    kubert_curve,
    lift_x,
    push_point,
    rational_roots,
    rational_sqrt,
    velu_quotient,
)
from ellquot.curves import MAZUR_TORSION_BOUND


def small_rational_points(curve, bound=20):
    pts = []
    for num in range(-bound, bound + 1):
        for den in (1, 2, 3):
            pts.extend(lift_x(curve, Fraction(num, den)))
    return pts


@pytest.fixture
def adds(monkeypatch):
    """One entry per curve addition made while the test runs.

    Every addition, the checked add and the inner walks alike, goes through
    WeierstrassCurve._add, so that is what is counted.
    """
    calls = []
    add = WeierstrassCurve._add

    def counting_add(self, P, Q):
        calls.append(1)
        return add(self, P, Q)

    monkeypatch.setattr(WeierstrassCurve, "_add", counting_add)
    return calls


def test_velu_requires_exact_order(adds):
    curve, A = kubert_curve(5, Fraction(1))
    with pytest.raises(TorsionOrderError, match="order 5, expected 7"):
        velu_quotient(curve, A, 7)
    with pytest.raises(TorsionOrderError):
        velu_quotient(curve, INFINITY, 5)
    with pytest.raises(TorsionOrderError, match="order above 3"):
        velu_quotient(curve, A, 3)
    # (0, 0) on y^2 + y = x^3 + x has infinite order; the walk stops at lP,
    # after l - 1 additions
    generic = WeierstrassCurve(QQ, 0, 0, 1, 1, 0)
    P = CurvePoint.affine(Fraction(0), Fraction(0))
    assert generic.is_infinite_order(P)
    adds.clear()
    with pytest.raises(TorsionOrderError, match="order above 5"):
        velu_quotient(generic, P, 5)
    assert len(adds) == 4


def test_velu_walks_the_kernel_once(adds):
    # kubert_curve's order walk and the Velu kernel walk each stop at lA
    c = FunctionField("c").gen
    cases = [((3, 0, 6), 3)] + [((l, Fraction(2)), l) for l in (4, 5, 6, 7, 9, 10)]
    cases += [((l, c), l) for l in (4, 5, 6)]
    for params, l in cases:
        adds.clear()
        curve, A = kubert_curve(*params)
        assert len(adds) == l - 1, params
        adds.clear()
        isog = velu_quotient(curve, A, l)
        assert len(adds) == l - 1, params
        assert len(isog.kernel_points) == l - 1


def test_is_infinite_order_reads_twelve_multiples_in_eleven_additions(adds):
    generic = WeierstrassCurve(QQ, 0, 0, 1, 1, 0)
    cert = certify(ConstructionInput(5, row=1, params={"z": 2}))
    for curve, P in ((generic, CurvePoint.affine(Fraction(0), Fraction(0))), (cert.curve_F, cert.point)):
        adds.clear()
        assert curve.is_infinite_order(P)
        assert len(adds) == MAZUR_TORSION_BOUND - 1


def test_the_walk_stops_at_its_bound_on_the_order_12_point(adds):
    curve, A = kubert_curve(12, Fraction(2))
    adds.clear()
    assert curve.order_of_point(A, 12) == 12
    assert len(adds) == 11
    adds.clear()
    assert curve.order_of_point(A, 11) is None
    assert len(adds) == 10
    assert not curve.is_infinite_order(A)
    with pytest.raises(TorsionOrderError, match=r"^kernel generator has order above 11, expected 11$"):
        velu_quotient(curve, A, 11)
    with pytest.raises(TorsionOrderError, match=r"^kernel generator has order 12, expected 13$"):
        velu_quotient(curve, A, 13)
    assert len(velu_quotient(curve, A, 12).kernel_points) == 11


def test_the_isogeny_entry_points_reject_off_curve_points():
    curve, A = kubert_curve(5, Fraction(1))
    isog = velu_quotient(curve, A, 5)
    bad = CurvePoint.affine(Fraction(1), Fraction(5))
    assert not curve.contains(bad) and not isog.codomain.contains(bad)
    with pytest.raises(OffCurveError):
        velu_quotient(curve, bad, 5)
    with pytest.raises(OffCurveError):
        push_point(isog, bad)
    with pytest.raises(OffCurveError):
        has_rational_preimage(isog, bad)


def test_codomain_preserves_a1_a2_a3():
    curve, A = kubert_curve(5, Fraction(2))
    isog = velu_quotient(curve, A, 5)
    a1, a2, a3, a4, a6 = curve.a_invariants()
    b1, b2_, b3, b4_, b6_ = isog.codomain.a_invariants()
    assert (b1, b2_, b3) == (a1, a2, a3)


def test_degrees_and_reduced_fraction():
    for l, params in ((3, (0, 6)), (4, (Fraction(1, 2),)), (5, (Fraction(2),)), (6, (Fraction(2),))):
        curve, A = kubert_curve(l, *params)
        isog = velu_quotient(curve, A, l)
        assert isog.phi_x_num.degree == l
        assert isog.phi_x_den.degree == l - 1
        assert isog.phi_x_num.gcd(isog.phi_x_den).degree == 0
        assert isog.codomain.discriminant() != 0


def test_codomain_nonsingular_symbolically():
    Fc = FunctionField("c")
    for l in (4, 5, 6):
        curve, A = kubert_curve(l, Fc.gen)
        isog = velu_quotient(curve, A, l)
        assert not isog.codomain.discriminant().is_zero


def test_kernel_exactness():
    for l, params in ((3, (0, 6)), (4, (Fraction(1, 3),)), (5, (Fraction(-1),)), (6, (Fraction(2),))):
        curve, A = kubert_curve(l, *params)
        isog = velu_quotient(curve, A, l)
        for i in range(l):
            assert push_point(isog, curve.scalar_mul(i, A)).inf
        assert push_point(isog, INFINITY).inf


def test_push_point_homomorphism():
    rng = random.Random(41)
    pairs_checked = 0
    configs = [(3, (0, 6)), (3, (0, 2)), (3, (1, 3)), (5, (Fraction(-1),)), (4, (Fraction(3),)), (6, (Fraction(2),))]
    for l, params in configs:
        curve, A = kubert_curve(l, *params)
        isog = velu_quotient(curve, A, l)
        pts = small_rational_points(curve)
        if not pts:
            continue
        for _ in range(20):
            P = rng.choice(pts)
            Q = rng.choice(pts)
            left = push_point(isog, curve.add(P, Q))
            right_p = push_point(isog, P)
            right_q = push_point(isog, Q)
            assert left == isog.codomain.add(right_p, right_q)
            pairs_checked += 1
    assert pairs_checked >= 100


def test_non_kernel_points_do_not_collapse():
    curve, A = kubert_curve(6, Fraction(2))
    isog = velu_quotient(curve, A, 6)
    for P in small_rational_points(curve):
        if P.inf or any(P == K for K in isog.kernel_points):
            continue
        assert not push_point(isog, P).inf


def test_push_agrees_with_x_map():
    curve, A = kubert_curve(3, 0, 6)
    isog = velu_quotient(curve, A, 3)
    P = CurvePoint.affine(Fraction(3), Fraction(3))
    image = push_point(isog, P)
    assert isog.phi_x_num(P.x) / isog.phi_x_den(P.x) == image.x


def test_fiber_polynomial_structure_and_root_property():
    rng = random.Random(42)
    curve, A = kubert_curve(3, 0, 6)
    isog = velu_quotient(curve, A, 3)
    for P in small_rational_points(curve)[:8]:
        if P.inf or any(P == K for K in isog.kernel_points):
            continue
        Q = push_point(isog, P)
        fiber = fiber_polynomial(isog, Q.x)
        assert fiber.poly.degree == 3
        assert fiber.poly.lc == 1
        assert P.x in rational_roots(fiber.poly)


def test_fiber_polynomial_rejects_non_point_x():
    curve, A = kubert_curve(5, Fraction(-1))
    isog = velu_quotient(curve, A, 5)
    with pytest.raises(DegenerateParameterError):
        fiber_polynomial(isog, Fraction(10 ** 6))


def test_l5_fixture_fiber_is_irreducible_quintic():
    curve, A = kubert_curve(5, Fraction(-1))
    isog = velu_quotient(curve, A, 5)
    # model point (2, 11) sits at x = 4 in the Velu chart (shift by sum of
    # kernel x-coordinates, which is 2c = -2)
    fiber = fiber_polynomial(isog, Fraction(4))
    assert fiber.poly.degree == 5
    assert factor_over_Q(fiber.poly).is_irreducible


def test_has_rational_preimage_for_pushed_points():
    curve, A = kubert_curve(3, 0, 6)
    isog = velu_quotient(curve, A, 3)
    P = CurvePoint.affine(Fraction(3), Fraction(3))
    Q = push_point(isog, P)
    minus_Q = isog.codomain.neg(Q)
    assert minus_Q != Q
    # Q and -Q share their fiber, so one of the two witnesses takes the sign step
    for target in (Q, minus_Q):
        found, witness = has_rational_preimage(isog, target)
        assert found
        assert push_point(isog, witness) == target


def test_the_sign_step_of_has_rational_preimage_checks_no_point(monkeypatch):
    curve, A = kubert_curve(3, 0, 6)
    isog = velu_quotient(curve, A, 3)
    Q = push_point(isog, CurvePoint.affine(Fraction(3), Fraction(3)))
    checked = []
    contains = WeierstrassCurve.contains

    def counting_contains(self, P):
        checked.append(P)
        return contains(self, P)

    monkeypatch.setattr(WeierstrassCurve, "contains", counting_contains)
    counts = []
    for target in (Q, isog.codomain._neg(Q)):
        checked.clear()
        found, witness = has_rational_preimage(isog, target)
        assert found
        counts.append((witness, len(checked)))
    # Q and -Q have the same fiber and the same lift P; one of them takes P, the other -P
    (first, first_checks), (second, second_checks) = counts
    assert second == curve._neg(first)
    assert second_checks == first_checks


def test_lift_x_gives_both_points_sorted_by_y():
    rng = random.Random(43)
    checked = rootless = 0
    for l in (4, 5, 6, 7, 8, 9, 10, 12):
        for _ in range(3):
            try:
                curve, A = kubert_curve(l, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            except EllquotError:
                continue
            for k in range(1, l):
                P = curve.scalar_mul(k, A)
                minus_P = curve.neg(P)
                want = [P] if P == minus_P else sorted((P, minus_P), key=lambda R: R.y)
                assert lift_x(curve, P.x) == want
                checked += 1
            x = next(x for x in range(1, 100) if rational_sqrt(curve.b_rhs(x)) is None)
            assert lift_x(curve, x) == []
            rootless += 1
    assert checked >= 100 and rootless >= 15


def test_has_rational_preimage_false_for_l5_fixture():
    curve, A = kubert_curve(5, Fraction(-1))
    isog = velu_quotient(curve, A, 5)
    pts = lift_x(isog.codomain, Fraction(4))
    assert pts, "the fixture point must exist on the codomain"
    for Q in pts:
        found, witness = has_rational_preimage(isog, Q)
        assert not found and witness is None


def test_preimage_of_rational_two_torsion_with_rootless_fiber():
    # l=6 quotients carry a rational 2-torsion point (the linear factor of
    # the cubic); pick a parameter where its fiber has no rational root
    for c in (Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2)):
        curve, A = kubert_curve(6, c)
        isog = velu_quotient(curve, A, 6)
        alpha = 19 * c * c + 14 * c - 1
        T = isog.codomain.from_b_point(alpha / 4, Fraction(0))
        assert isog.codomain.order_of_point(T, 2) == 2
        fiber = fiber_polynomial(isog, T.x)
        if rational_roots(fiber.poly):
            continue
        found, _ = has_rational_preimage(isog, T)
        assert not found
        return
    pytest.skip("no rootless two-torsion fiber among the sampled parameters")


# ---------------------------------------------------------------------------
# Velu x-map: reduced without a gcd; sympy serves only as an oracle here

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
SRC = Path(__file__).resolve().parents[1] / "src"


def _kubert_or_skip(l, *params):
    try:
        return kubert_curve(l, *params)
    except EllquotError:
        assume(False)


def _sympy_poly(f):
    X = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], X)


@SETTINGS
@given(l=st.sampled_from([3, 4, 5, 6]), p=rationals, q=rationals)
def test_velu_denominator_vanishes_exactly_on_the_kernel(l, p, q):
    curve, A = _kubert_or_skip(l, p, q) if l == 3 else _kubert_or_skip(l, p)
    isog = velu_quotient(curve, A, l)
    den = _sympy_poly(isog.phi_x_den)
    assert isog.phi_x_den.degree == l - 1 and isog.phi_x_den.lc == 1
    roots = sympy.roots(den)
    kernel_x = {curve.scalar_mul(i, A).x for i in range(1, l)}
    assert set(roots) == {sympy.Rational(v.numerator, v.denominator) for v in kernel_x}
    assert sum(roots.values()) == l - 1
    assert sympy.gcd(_sympy_poly(isog.phi_x_num), den) == 1


@pytest.fixture(scope="module")
def symbolic_quotients():
    Fc = FunctionField("c")
    return {l: velu_quotient(*kubert_curve(l, Fc.gen), l) for l in range(4, 10)}


@SETTINGS
@given(c0=rationals)
def test_symbolic_quotient_specialises_to_the_rational_one(symbolic_quotients, c0):
    def at_c0(a):
        return a.num(c0) / a.den(c0)

    def poly_at_c0(f):
        return UniPoly(QQ, [at_c0(a) for a in f.coeffs])

    # l = 8 is the first level whose x-map coefficients are not polynomial in c
    for l, got in symbolic_quotients.items():
        try:
            curve, A = kubert_curve(l, c0)
        except EllquotError:
            continue
        want = velu_quotient(curve, A, l)
        assert poly_at_c0(got.phi_x_num) == want.phi_x_num
        assert poly_at_c0(got.phi_x_den) == want.phi_x_den
        codomain = tuple(at_c0(a) for a in got.codomain.a_invariants())
        assert codomain == want.codomain.a_invariants()


def test_velu_takes_no_gcd_over_the_curve_field(monkeypatch):
    fields = []
    gcd = UniPoly.gcd

    def spy(self, other):
        fields.append(self.field)
        return gcd(self, other)

    Fc = FunctionField("c")
    rational = [(kubert_curve(l, Fraction(2)), l) for l in (5, 6)]
    symbolic = kubert_curve(4, Fc.gen)
    monkeypatch.setattr(UniPoly, "gcd", spy)
    for (curve, A), l in rational:
        velu_quotient(curve, A, l)
    assert fields == []
    # over Q(c) the coefficient arithmetic reduces fractions in Q[c], never in Q(c)[x]
    velu_quotient(*symbolic, 4)
    assert fields and Fc not in fields


def test_vanishing_numerator_raises_invariant_error_under_optimisation():
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from ellquot import InvariantError, UniPoly, kubert_curve, velu_quotient

        curve, A = kubert_curve(5, Fraction(2))
        UniPoly.__call__ = lambda self, x: self.field.zero
        try:
            velu_quotient(curve, A, 5)
        except InvariantError as exc:
            print(exc.code, exc)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("internal-invariant x-map numerator vanishes")
