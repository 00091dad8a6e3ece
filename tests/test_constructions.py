import gc
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from ellquot import (
    ConstructionInput,
    DegenerateParameterError,
    FunctionField,
    InvariantError,
    IsogenyData,
    certify,
    construct_l3,
    construct_l4,
    construct_l5,
    construct_l6,
    constructions,
    factor_over_Q,
    quotient_model,
    verify_defining_identity,
)
from ellquot.constructions import a5, model_matches_table, quotient_cubic


class TestConstructL5:
    def test_row1_fixture(self):
        c, x, yb = construct_l5(1, z=1)
        assert (c, x, yb) == (-1, 2, 11)
        assert 4 * 8 + 32 * 4 + 44 * 2 - 127 == 121 == yb * yb

    def test_row1_erratum_flag(self):
        c_fixed, _, _ = construct_l5(1, z=1)
        c_printed, _, _ = construct_l5(1, z=1, as_printed=True)
        assert c_fixed == -1
        assert c_printed == Fraction(-1, 2)
        # the printed value breaks the defining identity A_5(c) = z^2
        assert a5(c_fixed, Fraction(-1)) == 1
        assert a5(c_printed, Fraction(-1)) != 1

    def test_row2_fixture_degenerate(self):
        c, x, yb = construct_l5(2, z=0)
        assert c == 18
        assert x == Fraction(-345, 4)
        assert yb == 0  # torsion output, flagged downstream

    def test_row2_x_closed_form(self):
        z = Fraction(3, 2)
        c, x, _ = construct_l5(2, z=z)
        assert c == 16 * z * z + 18
        assert x == -64 * z ** 4 - 148 * z * z - Fraction(345, 4)

    def test_row3_indicator_is_a_square_identically(self):
        # sympy serves only as an oracle: A_5(c, u0) = (P/(4 den))^2 on row 3,
        # so the row has no non-square parameters
        import sympy

        t, m = sympy.symbols("t m")
        den = t ** 6 + 8 * t ** 4 + 21 * t ** 2 + 16 * m ** 2 + 18
        c = (11 * t ** 6 + 33 * t ** 4 - 8 * m * t ** 3 + 21 * t ** 2 + 8 * m * t - 1) / den
        P = (
            t ** 9 + 7 * t ** 7 + 13 * t ** 5 - 3 * t ** 3 - 18 * t
            + 44 * m * t ** 6 + 132 * m * t ** 4 + 84 * m * t ** 2 - 4 * m
            - 16 * m ** 2 * t ** 3 + 16 * m ** 2 * t
        )
        assert sympy.cancel(a5(c, (t ** 2 - 1) / 4) - (P / (4 * den)) ** 2) == 0

    def test_row3_non_square_is_a_defect(self, monkeypatch):
        monkeypatch.setattr(constructions, "a5", lambda c, u0: Fraction(2))
        with pytest.raises(InvariantError):
            construct_l5(3, t=2, m=1)

    def test_row3_formula_and_square_indicator(self):
        t, m = Fraction(2), Fraction(1)
        c, x, yb = construct_l5(3, t=t, m=m)
        den = t ** 6 + 8 * t ** 4 + 21 * t * t + 16 * m * m + 18
        num = 11 * t ** 6 + 33 * t ** 4 - 8 * m * t ** 3 + 21 * t * t + 8 * m * t - 1
        assert c == num / den
        u0 = (t * t - 1) / 4
        assert x == -(u0 + 1) * c * c + (11 * u0 + 8) * c + u0
        alpha, beta, gamma = quotient_cubic(5, c)
        assert 4 * x ** 3 + alpha * x * x + beta * x + gamma == yb * yb

    def test_bad_row(self):
        with pytest.raises(DegenerateParameterError):
            construct_l5(4, z=1)
        with pytest.raises(DegenerateParameterError):
            construct_l5(3, z=1)


class TestConstructL3:
    def test_fixture(self):
        a3, x, yb = construct_l3(0, 1, 5)
        assert (a3, x, yb) == (6, 7, 20)
        assert 4 * 343 - 972 == 400 == yb * yb

    def test_vanishing_g3_gives_torsion(self):
        a3, x, yb = construct_l3(0, 1, 3)
        assert a3 == 2
        assert yb == 0

    def test_u1_zero_rejected(self):
        with pytest.raises(DegenerateParameterError):
            construct_l3(0, 0, 5)

    def test_singular_when_z_matches_linear_term(self):
        # z = u1*a1 + 1 forces a3 = 0 and a singular curve downstream
        cert = certify(ConstructionInput(3, params={"a1": 2, "u1": 1, "z": 3}))
        assert not cert.valid
        assert "singular" in cert.excluded_reason


class TestConstructL4:
    def test_fixture(self):
        c, x, yb = construct_l4(1, 1)
        assert (c, x, yb) == (Fraction(1, 3), Fraction(2, 3), Fraction(5, 3))
        assert (x + c) * (4 * x * x + x + c) == Fraction(25, 9)

    def test_u_zero_degenerate_torsion(self):
        c, x, yb = construct_l4(0, 3)
        assert x == -c and yb == 0

    def test_denominator_zero_rejected(self):
        with pytest.raises(DegenerateParameterError):
            construct_l4(1, -2)


class TestConstructL6:
    def test_fixture(self):
        c, x, yb = construct_l6(1, 16)
        assert c == Fraction(4, 7)
        assert x == Fraction(624, 49)
        assert yb == Fraction(29584, 343)
        # 4x - alpha is the square (43/7)^2
        alpha = 19 * c * c + 14 * c - 1
        assert 4 * x - alpha == Fraction(43, 7) ** 2

    def test_v0_zero_torsion(self):
        c, x, yb = construct_l6(0, 5)
        assert yb == 0

    def test_denominator_zero_rejected(self):
        with pytest.raises(DegenerateParameterError):
            construct_l6(1, 12)

    def test_y_b_comes_from_the_published_cubic(self, monkeypatch):
        # f_{c,6} is written once, in quotient_cubic: a perturbed b6 there
        # breaks the defining identity and stops certify at the fixture
        exact = constructions.quotient_cubic

        def perturbed(l, *params):
            b2, b4x2, b6 = exact(l, *params)
            return (b2, b4x2, b6 + 1) if l == 6 else (b2, b4x2, b6)

        monkeypatch.setattr(constructions, "quotient_cubic", perturbed)
        assert not verify_defining_identity(6)
        with pytest.raises(InvariantError, match="model drifted from table"):
            certify(ConstructionInput(6, params={"v0": 1, "z": 16}))

    def test_indicator_is_a_square_identically(self):
        # sympy serves only as an oracle: A_6(c, v0) = (P/den)^2 for the
        # published c(v0, z), so construct_l6 takes no square root
        import sympy

        v, z = sympy.symbols("v z")
        den = (z + 3 + 9 * v ** 2) * (z - 3 - 9 * v ** 2)
        c = 2 * (9 * v ** 4 + 18 * v ** 2 - v ** 2 * z + z + 5) / den
        P = (
            81 * v ** 6 - 18 * v ** 4 * z - 27 * v ** 4 + v ** 2 * z ** 2
            - 36 * v ** 2 * z - 45 * v ** 2 - z ** 2 - 10 * z - 9
        )
        _, _, _, A, _ = constructions._point(6, c, v)
        assert sympy.cancel(A - (P / den) ** 2) == 0
        # the second factor of the v0 = +-1 family: c(9c+4) = (16z/(z^2-144))^2
        c1 = c.subs(v, 1)
        assert sympy.cancel(c1 * (9 * c1 + 4) - (16 * z / (z ** 2 - 144)) ** 2) == 0


def test_defining_identities_exact():
    for l in (3, 4, 5, 6):
        assert verify_defining_identity(l)


def _perturbed_point(level, index):
    # shifts entry index of _point's (table, X, s, A, G) at one level by 1
    def perturb(f):
        def point(l, *params):
            out = list(f(l, *params))
            if l == level:
                out[index] = out[index] + 1
            return tuple(out)

        return point

    return perturb


def test_perturbed_identity_fails(monkeypatch):
    # the identities evaluate the constructions' own formulas, so perturbing
    # any one of them must break its identity
    def plus_one(f):
        return lambda *args: f(*args) + 1

    def shift_first(f):
        return lambda *args: (f(*args)[0] + 1,) + f(*args)[1:]

    # X (x_{c,l} = X/s^2), A and G of the one point formula at every level
    shared = [("_point", l, _perturbed_point(l, i)) for l in (3, 4, 5, 6) for i in (1, 3, 4)]
    for name, l, perturb in (
        ("a5", 5, plus_one),
        ("_l6_factors", 6, shift_first),
        ("quotient_cubic", 3, shift_first),
        ("quotient_cubic", 4, shift_first),
        *shared,
    ):
        with monkeypatch.context() as m:
            m.setattr(constructions, name, perturb(getattr(constructions, name)))
            assert not verify_defining_identity(l), (name, l)


@pytest.mark.parametrize(
    "l, construct, args", [(3, construct_l3, (0, 1, 5)), (4, construct_l4, (1, 1))]
)
@pytest.mark.parametrize("index", [1, 4])
def test_constructions_and_identity_share_one_point_formula(monkeypatch, l, construct, args, index):
    # one copy: perturbing x_{c,l} (index 1) or G_l (index 4) in _point moves
    # the constructed point and turns the defining identity red together
    exact = construct(*args)
    monkeypatch.setattr(constructions, "_point", _perturbed_point(l, index)(constructions._point))
    assert not verify_defining_identity(l)
    assert construct(*args) != exact


def test_quotient_model_tables_symbolic():
    Fc = FunctionField("c")
    c = Fc.gen
    for l in (4, 5, 6):
        b = quotient_model(l, c).curve.b_form()
        assert (b.b2, 2 * b.b4, b.b6) == quotient_cubic(l, c)
    m3 = quotient_model(3, Fraction(2), Fraction(3))
    b = m3.curve.b_form()
    assert (b.b2, 2 * b.b4, b.b6) == quotient_cubic(3, Fraction(2), Fraction(3))


def test_certify_checks_the_l3_table(monkeypatch):
    # the l = 3 model is checked against the same quotient_cubic as the other
    # levels: a perturbed l = 3 table must stop certify
    exact = constructions.quotient_cubic

    def perturbed(l, *params):
        b2, b4x2, b6 = exact(l, *params)
        return (b2 + 1, b4x2, b6) if l == 3 else (b2, b4x2, b6)

    inp = ConstructionInput(3, params={"a1": 0, "u1": 1, "z": 5})
    assert certify(inp).on_curve
    monkeypatch.setattr(constructions, "quotient_cubic", perturbed)
    with pytest.raises(InvariantError, match="model drifted from table"):
        certify(inp)


def test_l4_table_is_checked_against_the_velu_codomain(monkeypatch):
    # the l = 4 model is typed from the table, so only the chart identity
    # f(s x + r) = s^3 g(x) ties it to the Velu codomain: moving the Kubert
    # parameter from c - 1/16 to c - 1/8 must turn the check red
    exact = constructions.kubert_curve

    def shifted(l, *params):
        return exact(l, params[0] - Fraction(1, 16)) if l == 4 else exact(l, *params)

    c = FunctionField("c").gen
    inp = ConstructionInput(4, params={"u": 1, "v": 1})
    assert model_matches_table(quotient_model(4, c)) and certify(inp).valid
    monkeypatch.setattr(constructions, "kubert_curve", shifted)
    assert not model_matches_table(quotient_model(4, c))
    with pytest.raises(InvariantError, match="model drifted from table"):
        certify(inp)


class TestCertify:
    def test_l5_row1_z2_valid(self):
        cert = certify(ConstructionInput(5, row=1, params={"z": 2}))
        assert cert.valid
        assert factor_over_Q(cert.fiber.poly).is_irreducible

    def test_l5_row1_z1_is_dual_kernel_torsion(self):
        # the z=1 point generates the dual kernel: order 5, not infinite
        cert = certify(ConstructionInput(5, row=1, params={"z": 1}))
        assert cert.on_curve and cert.nontrivial and not cert.infinite_order
        assert cert.curve_F.order_of_point(cert.point, 12) == 5
        assert cert.excluded_reason == "torsion point"

    def test_l5_row2_z0_excluded(self):
        cert = certify(ConstructionInput(5, row=2, params={"z": 0}))
        assert cert.excluded_reason == "torsion point (y=0)"

    def test_l4_fixture_valid(self):
        cert = certify(ConstructionInput(4, params={"u": 1, "v": 1}))
        assert cert.valid

    def test_l6_fixture_valid_with_cyclic_fiber(self):
        cert = certify(ConstructionInput(6, params={"v0": 1, "z": 16}))
        assert cert.valid
        assert cert.fiber.poly.degree == 6
        assert factor_over_Q(cert.fiber.poly).is_irreducible

    def test_l3_fixture_is_trivial(self):
        # the published l=3 parametrization always lands in the isogeny image;
        # the fixture point (7, 20) is the image of (3, -9) and of its
        # kernel translates
        cert = certify(ConstructionInput(3, params={"a1": 0, "u1": 1, "z": 5}))
        assert cert.on_curve and cert.infinite_order and not cert.nontrivial
        assert cert.witness is not None
        assert cert.witness.x in (3, -2, 6)
        from ellquot import kubert_curve, push_point, velu_quotient

        E, A = kubert_curve(3, 0, 6)
        isog = velu_quotient(E, A, 3)
        image = push_point(isog, cert.witness)
        assert E.contains(cert.witness)
        assert image.x == 7

    def test_certificates_keep_no_isogeny_alive(self, monkeypatch):
        def live_isogenies():
            gc.collect()
            return sum(type(obj) is IsogenyData for obj in gc.get_objects())

        degrees = []
        velu_quotient = constructions.velu_quotient

        def spy(curve, A, l):
            degrees.append(l)
            return velu_quotient(curve, A, l)

        monkeypatch.setattr(constructions, "velu_quotient", spy)
        before = live_isogenies()
        certs = [
            certify(ConstructionInput(4, params={"u": 1, "v": 1})),
            certify(ConstructionInput(5, row=1, params={"z": 2})),
            certify(ConstructionInput(6, params={"v0": 1, "z": 16})),
            certify(ConstructionInput(3, params={"a1": 0, "u1": 1, "z": 5})),
        ]
        assert [cert.valid for cert in certs] == [True, True, True, False]
        assert all(cert.fiber is not None for cert in certs)
        assert degrees == [4, 5, 6, 3]
        assert live_isogenies() == before
        # the scan sees an isogeny that something still holds
        held = quotient_model(5, Fraction(-1)).isogeny
        assert live_isogenies() == before + 1
        assert held.degree == 5

    def test_as_printed_row1_off_curve(self):
        cert = certify(ConstructionInput(5, row=1, params={"z": 1}, as_printed=True))
        assert not cert.valid
        assert "row-1" in cert.excluded_reason


@pytest.mark.parametrize(
    "inp, curve, point, b_point",
    [
        (ConstructionInput(3, params={"a1": 0, "u1": 0, "z": 5}), False, False, False),
        (ConstructionInput(3, params={"a1": 2, "u1": 1, "z": 3}), False, False, True),
        (ConstructionInput(5, row=1, params={"z": 1}, as_printed=True), True, False, True),
        (ConstructionInput(5, row=2, params={"z": 0}), True, True, True),
    ],
    ids=["precondition", "singular", "off-curve", "y=0"],
)
def test_early_exits_record_only_what_they_established(inp, curve, point, b_point):
    cert = certify(inp)
    assert cert.excluded_reason and not cert.valid
    established = (cert.curve_F is not None, cert.point is not None, cert.b_point is not None)
    assert established == (curve, point, b_point)
    assert cert.on_curve == point
    assert not (cert.infinite_order or cert.nontrivial) and cert.fiber is cert.witness is None


@pytest.mark.parametrize(
    "l, row, params, named",
    [
        (4, None, {"u": 1}, "missing ['v']"),
        (5, 4, {"z": 2}, "(5, 3): ('t', 'm')"),
        (5, None, {"z": 2}, "(5, 1): ('z',)"),
        (6, None, {"v0": 1, "z": 16, "q": 3}, "unexpected ['q']"),
        (4, 1, {"u": 1, "v": 1}, "(4, None): ('u', 'v')"),
    ],
)
def test_construction_input_rejects_a_level_row_or_parameter_off_the_table(l, row, params, named):
    with pytest.raises(ValueError) as exc:
        certify(ConstructionInput(l, row, params))
    assert named in str(exc.value)


@pytest.mark.parametrize(
    "l, row, params",
    [
        (4, None, {"u": 1, "v": 1}),
        (5, 2, {"z": 1}),
        (5, 3, {"t": 2, "m": 1}),
        (6, None, {"v0": 1, "z": 16}),
    ],
)
def test_as_printed_is_refused_outside_l5_row1(l, row, params):
    with pytest.raises(ValueError, match=r"\(5, 1\) only"):
        ConstructionInput(l, row, params, as_printed=True)


@pytest.mark.parametrize("row, params", [(2, {"z": 1}), (3, {"t": 2, "m": 1})])
def test_construct_l5_refuses_as_printed_off_row1(row, params):
    # the direct call raises the same error as ConstructionInput, instead of
    # returning the corrected triple
    with pytest.raises(ValueError) as direct:
        construct_l5(row, as_printed=True, **params)
    with pytest.raises(ValueError) as checked:
        ConstructionInput(5, row, params, as_printed=True)
    assert str(direct.value) == str(checked.value)
    assert construct_l5(1, z=1, as_printed=True) != construct_l5(1, z=1)


def test_construction_input_keeps_the_table_order():
    inp = ConstructionInput(3, params={"z": 5, "u1": 1, "a1": 0})
    assert list(inp.params) == list(constructions.CONSTRUCTION_PARAMETERS[3, None])
    assert certify(inp).params == {"a1": 0, "a3": 6, "u1": 1, "z": 5}


@pytest.mark.parametrize("value", [0.5, "1/2"])
def test_entry_points_reject_float_and_string_parameters(value):
    # a float would be read as its binary expansion, a string parsed: both raise
    calls = [
        lambda: quotient_model(5, value),
        lambda: quotient_model(4, value),
        lambda: quotient_model(3, value, 1),
        lambda: ConstructionInput(4, params={"u": value, "v": 1}),
        lambda: construct_l3(value, 1, 5),
        lambda: construct_l4(1, value),
        lambda: construct_l5(1, z=value),
        lambda: construct_l5(2, z=value),
        lambda: construct_l5(3, t=value, m=1),
        lambda: construct_l6(1, value),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_quotient_model_keeps_rational_parameters():
    model = quotient_model(6, 2)
    assert model.parameter == (2,) and all(type(p) is Fraction for p in model.parameter)


def test_random_sweep_statistics():
    from ellquot import draw_input

    rng = random.Random(77)
    for l, expect_valid in ((4, True), (5, True), (6, True)):
        valid = degenerate = 0
        for _ in range(15):
            cert = certify(draw_input(l, rng))
            if cert.valid:
                valid += 1
            else:
                degenerate += 1
        assert valid >= 13, (l, valid, degenerate)


def test_l3_sweep_all_trivial():
    from ellquot import draw_input

    rng = random.Random(78)
    for _ in range(10):
        cert = certify(draw_input(3, rng))
        assert not cert.valid


@pytest.mark.parametrize("l", [2, 7, 11])
def test_draw_input_refuses_an_unknown_level_before_drawing(l):
    from ellquot import draw_input

    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"the levels are \[3, 4, 5, 6\]"):
        draw_input(l, rng)
    assert rng.getstate() == state


def test_construction_invariants_raise_under_optimisation():
    # certify checks the model against the published table; the check must
    # survive python -O, which strips asserts
    script = textwrap.dedent(
        """
        from ellquot import ConstructionInput, InvariantError, certify, constructions

        constructions.quotient_cubic = lambda l, c: (c, c, c)
        try:
            certify(ConstructionInput(5, row=1, params={"z": 2}))
        except InvariantError as exc:
            print(exc.code, exc)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("internal-invariant model drifted from table")
