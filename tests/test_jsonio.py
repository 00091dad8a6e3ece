import json
import sys
from fractions import Fraction

import pytest

from ellquot import (
    INFINITY,
    ConstructionInput,
    QQ,
    UniPoly,
    certify,
    galois_group,
    kubert_curve,
    p_ncl5,
    shanks_cubic,
    velu_quotient,
)
from ellquot import jsonio
from ellquot.jsonio import (
    MAX_POLY_TEXT,
    MAX_RATIONAL_DIGITS as CAP,
    certificate_to_json,
    curve_to_json,
    galois_report_to_json,
    isogeny_to_json,
    point_to_json,
    poly_from_ascii,
    poly_to_ascii,
    poly_to_json,
    rational_from_ascii,
    rational_to_json,
)
from oracles import curve_from_json, point_from_json, poly_from_json, rational_from_json

x = UniPoly.gen(QQ)
# a decimal, an exponent, an exponent past any digit cap, an underscore and
# a non-ASCII digit: Fraction() reads each, the CLI reads none
NOT_RATIONALS = ["1.5", "2.5e-1", "1e1000000", "1_000", "\u0663"]


def test_rational_round_trip():
    for q in (Fraction(0), Fraction(-7, 3), Fraction(10 ** 40, 3 ** 30)):
        encoded = rational_to_json(q)
        assert all(isinstance(s, str) for s in encoded)
        assert rational_from_json(encoded) == q


def test_rational_from_ascii_reads_signed_integers_and_fractions():
    assert rational_from_ascii("3", "--t") == 3
    assert rational_from_ascii(" - 6 / 4 ", "--t") == Fraction(-3, 2)
    assert rational_from_ascii("007/010", "--t") == Fraction(7, 10)
    assert rational_from_ascii("-" + "9" * CAP + "/" + "8" * CAP, "--t") == -Fraction(9, 8)


@pytest.mark.parametrize(
    "text", [*NOT_RATIONALS, "", "-", "+3", "1/", "/2", "1/-2", "1/2/3", "(1)"]
)
def test_rational_from_ascii_rejects_every_other_form(text):
    with pytest.raises(ValueError, match=r"^--t: .* is not a rational -\?\[0-9\]"):
        rational_from_ascii(text, "--t")


def test_rational_from_ascii_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="^--z: zero denominator$"):
        rational_from_ascii("1/000", "--z")


@pytest.mark.parametrize(
    "text, part",
    [("9" * (CAP + 1), "numerator"), ("-" + "9" * (CAP + 1) + "/2", "numerator"),
     ("1/" + "9" * (CAP + 1), "denominator"), ("1/" + "0" * (CAP + 1), "denominator")],
)
def test_rational_from_ascii_caps_the_digits_of_each_side(text, part):
    with pytest.raises(ValueError) as exc:
        rational_from_ascii(text, "--z")
    message = str(exc.value)
    assert message.startswith(f"--z: the {part} has more than {CAP} digits")
    assert "MAX_RATIONAL_DIGITS" in message
    assert "9" * 10 not in message and "0" * 10 not in message


def test_poly_round_trip():
    f = x ** 3 - Fraction(7, 2) * x + 1
    obj = poly_to_json(f)
    assert obj["coeffs"][0] == ["1", "1"]  # lowest degree first
    assert poly_from_json(obj) == f
    assert poly_from_json(json.loads(json.dumps(obj))) == f


def test_poly_ascii_round_trip():
    f = Fraction(3, 2) * x ** 4 - x + Fraction(5)
    text = poly_to_ascii(f)
    assert text == "(3/2)*x^4 + (-1/1)*x^1 + (5/1)*x^0"
    assert poly_from_ascii(text) == f
    t = UniPoly(QQ, [Fraction(2, 3), 0, Fraction(-5)], "t")
    for g in (x ** 0, 0 * x, -x, Fraction(-7, 3) * x ** 5 - Fraction(1, 9), t):
        assert poly_from_ascii(poly_to_ascii(g)) == g


def test_poly_ascii_tolerant_inputs():
    assert poly_from_ascii("x^3 - 2") == x ** 3 - 2
    assert poly_from_ascii("-x + 1/3") == -x + Fraction(1, 3)
    assert poly_from_ascii("2*x^2+x") == 2 * x ** 2 + x
    gras = poly_from_ascii("X^4 - 6*X^2 + 1")
    assert (gras.var, gras.degree) == ("X", 4)
    assert poly_from_ascii("5").var == "x"
    with pytest.raises(ValueError):
        poly_from_ascii("x + y")


@pytest.mark.parametrize("text", ["", "x^2 +", "x^2 + + 1"])
def test_poly_ascii_rejects_missing_terms(text):
    with pytest.raises(ValueError) as exc:
        poly_from_ascii(text)
    assert repr(text) in str(exc.value)


def test_poly_ascii_names_the_malformed_term():
    with pytest.raises(ValueError, match=r"term '\(1/-2\)\*x'"):
        poly_from_ascii("(1/-2)*x")


def test_poly_ascii_rejects_an_exponent_above_the_cap(monkeypatch):
    assert poly_from_ascii("x^16 + 1").degree == 16

    def no_poly(*args, **kwargs):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(jsonio, "UniPoly", no_poly)
    # the longest exponent fills the text cap; its digit count is checked
    # before int() reads it, which under a 640-digit int-string limit would
    # refuse it with the interpreter's own message
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for k in (17, 100000, "9" * (MAX_POLY_TEXT - 6)):
            message = rf"^exponent in term 'x\^{str(k)[:22]}.* exceeds the degree cap of 16$"
            with pytest.raises(ValueError, match=message):
                poly_from_ascii(f"1 + x^{k}")
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", [None, 640, 0])
def test_poly_ascii_rejects_a_coefficient_above_the_int_string_limit(limit):
    # the coefficient cap, not the interpreter's int-string limit (4300 by
    # default, 640 under -X int_max_str_digits=640, none at 0), decides
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        at_cap, big = "9" * CAP, "9" * (CAP + 1)
        assert poly_from_ascii(f"{at_cap}*x + ({at_cap}/{at_cap}) - 1/{at_cap}*x^2").degree == 2
        for text, part in [
            (big + "*x + 1", "numerator"),
            ("x + 1/" + big, "denominator"),
            (f"x - ({big}/2)*x^2", "numerator"),
            ("x + 1/0" + at_cap, "denominator"),
            ("x + " + "9" * 700, "numerator"),
        ]:
            with pytest.raises(ValueError) as exc:
                poly_from_ascii(text)
            assert f": the {part} has more than {CAP} digits" in str(exc.value)
            assert big not in str(exc.value)
    finally:
        sys.set_int_max_str_digits(saved)


def test_poly_ascii_reads_coefficients_with_the_rational_reader():
    # each form is refused in front of a power, in parentheses and alone
    for coef in NOT_RATIONALS:
        for text in (f"{coef}*x^3 + x + 1", f"x^3 + ({coef})*x + 1", f"x^3 - x - {coef}"):
            with pytest.raises(ValueError):
                poly_from_ascii(text)
    message = r"^term '\(1/0\)\*x' in 'x\^2 \+ \(1/0\)\*x': zero denominator$"
    with pytest.raises(ValueError, match=message):
        poly_from_ascii("x^2 + (1/0)*x")
    # a term's sign, then a coefficient's own sign in parentheses
    assert poly_from_ascii("-(-3/2)*x - ( - 2 )") == Fraction(3, 2) * x + 2


def test_poly_ascii_adds_the_terms_of_one_degree_and_caps_the_sum():
    assert poly_from_ascii("x + x") == 2 * x
    assert poly_from_ascii("1 + x^0") == UniPoly(QQ, [2])
    assert poly_from_ascii("x^2 - 3*x^2 + 1") == -2 * x ** 2 + 1
    assert poly_from_ascii("x^2 + x - x") == x ** 2
    at_cap = "9" * CAP
    assert poly_from_ascii(f"{10 ** CAP - 2}*x + x") == (10 ** CAP - 1) * x
    # the sum is checked by value: 20 terms 1/d, d of 38 digits, sum to a
    # numerator of 709 digits, past a 640-digit int-string limit, which meets
    # the cap first
    many = " + ".join(f"1/{10 ** CAP - i}*x" for i in range(1, 21))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text, k, part in [
            (f"{at_cap}*x^3 + x^3 + 1", 3, "numerator"),
            (f"x^2 + 1/{at_cap} - 1/{10 ** CAP - 2}", 0, "denominator"),
            (many, 1, "numerator"),
        ]:
            with pytest.raises(ValueError) as exc:
                poly_from_ascii(text)
            message = str(exc.value)
            assert f"the terms of degree {k} in " in message
            assert f"sum to a {part} of more than {CAP} digits" in message
            assert "MAX_RATIONAL_DIGITS" in message
            assert "9" * 30 not in message
    finally:
        sys.set_int_max_str_digits(saved)


def test_poly_ascii_caps_the_text_length_before_parsing(monkeypatch):
    # the longest canonical text, degree 16 with cap-sized coefficients, fits
    big = -Fraction(10 ** CAP - 1, 10 ** CAP - 2)
    f = UniPoly(QQ, [big] * 17)
    assert len(poly_to_ascii(f)) < MAX_POLY_TEXT
    assert poly_from_ascii(poly_to_ascii(f)) == f
    assert poly_from_ascii("x^16" + " " * (MAX_POLY_TEXT - 4)).degree == 16

    # with no sign splitter, a text that reached the parser would fail otherwise
    monkeypatch.setattr(jsonio, "_signed_terms", None)
    for text in ("x^16" + " " * (MAX_POLY_TEXT - 3), "x + " * 10 ** 6):
        with pytest.raises(ValueError) as exc:
            poly_from_ascii(text)
        assert str(exc.value) == (
            f"polynomial text {text[:24]!r}... is longer than {MAX_POLY_TEXT} characters,"
            " the cap (jsonio.MAX_POLY_TEXT)"
        )


def test_poly_ascii_messages_quote_a_bounded_prefix():
    # a malformed term at the end of a text just under the cap
    text = " + ".join(f"{k}*x^{k}" for k in range(1, 17)) + " ?"
    text = " " * (MAX_POLY_TEXT - len(text)) + text
    with pytest.raises(ValueError) as exc:
        poly_from_ascii(text)
    assert "cannot parse polynomial term" in str(exc.value)
    assert len(str(exc.value)) < 120


def test_curve_point_round_trip():
    curve, A = kubert_curve(5, Fraction(3, 2))
    assert curve_from_json(json.loads(json.dumps(curve_to_json(curve)))) == curve
    P = curve.add(A, A)
    assert point_from_json(json.loads(json.dumps(point_to_json(P)))) == P
    assert point_from_json(point_to_json(INFINITY)) is INFINITY


def test_isogeny_payload_shape():
    curve, A = kubert_curve(5, Fraction(2))
    isog = velu_quotient(curve, A, 5)
    obj = json.loads(json.dumps(isogeny_to_json(isog)))
    assert obj["degree"] == 5
    assert len(obj["kernel_x"]) == 2
    assert len(obj["phi_x_num"]["coeffs"]) == 6


def test_certificate_payload():
    cert = certify(ConstructionInput(5, row=1, params={"z": 2}))
    obj = json.loads(json.dumps(certificate_to_json(cert)))
    assert obj["valid"] is True
    assert obj["l"] == 5
    assert obj["fiber"]["poly"]["var"] == "x"


def test_galois_report_payload():
    rep = galois_group(shanks_cubic(2).poly)
    obj = json.loads(json.dumps(galois_report_to_json(rep)))
    assert obj["group_label"] == "C3"
    assert obj["certainty"] == "exact"
    assert (obj["primes_used"], obj["pattern_histogram"]) == (0, {})
    # a sampled report keys its histogram by comma-joined factor degrees
    obj = json.loads(json.dumps(galois_report_to_json(galois_group(p_ncl5(1, 2).poly))))
    assert obj["certainty"] == "sampled" and obj["primes_used"] == 60
    assert obj["pattern_histogram"] and all("," in k or k.isdigit() for k in obj["pattern_histogram"])
    assert sum(obj["pattern_histogram"].values()) == 60
