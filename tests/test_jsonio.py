import json
import sys
from fractions import Fraction

import pytest

from ellquot import (
    ConstructionInput,
    QQ,
    UniPoly,
    certify,
    galois_group,
    kubert_curve,
    shanks_cubic,
    velu_quotient,
)
from ellquot import jsonio
from ellquot.jsonio import (
    certificate_to_json,
    curve_from_json,
    curve_to_json,
    galois_report_to_json,
    isogeny_to_json,
    point_from_json,
    point_to_json,
    poly_from_ascii,
    poly_from_json,
    poly_to_ascii,
    poly_to_json,
    rational_from_json,
    rational_to_json,
)

x = UniPoly.gen(QQ)


def test_rational_round_trip():
    for q in (Fraction(0), Fraction(-7, 3), Fraction(10 ** 40, 3 ** 30)):
        encoded = rational_to_json(q)
        assert all(isinstance(s, str) for s in encoded)
        assert rational_from_json(encoded) == q


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
    assert poly_from_ascii("X^4 - 6*X^2 + 1", var="X").degree == 4
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
    # 5000 digits is past the length int() accepts from a string
    for k in (17, 100000, "9" * 5000):
        with pytest.raises(ValueError, match=rf"exponent {k} in term 'x\^{k}'"):
            poly_from_ascii(f"1 + x^{k}")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit before Python 3.10.7"
)
@pytest.mark.parametrize("limit", [None, 640])
def test_poly_ascii_rejects_a_coefficient_above_the_int_string_limit(limit):
    # Fraction() refuses a numerator or denominator past the interpreter's
    # int-string limit (4300 by default, down to 640 by -X int_max_str_digits)
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        cap = sys.get_int_max_str_digits()
        big = "9" * (cap + 1)
        assert poly_from_ascii("9" * cap + "*x + 1").degree == 1
        for text, term in [
            (big + "*x + 1", big + "*x"),
            ("x + 1/" + big, "1/" + big),
            (f"x - ({big}/2)*x^2", f"({big}/2)*x^2"),
            ("x + 1/0" + "9" * cap, "1/0" + "9" * cap),
        ]:
            with pytest.raises(ValueError) as exc:
                poly_from_ascii(text)
            assert str(exc.value) == (
                f"coefficient in term {term!r} of {text!r} has more than {cap}"
                " digits, the interpreter's int-string limit"
            )
    finally:
        sys.set_int_max_str_digits(saved)


def test_curve_point_round_trip():
    curve, A = kubert_curve(5, Fraction(3, 2))
    assert curve_from_json(json.loads(json.dumps(curve_to_json(curve)))) == curve
    P = curve.add(A, A)
    assert point_from_json(json.loads(json.dumps(point_to_json(P)))) == P


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
    assert all("," in k or k.isdigit() for k in obj["pattern_histogram"])
