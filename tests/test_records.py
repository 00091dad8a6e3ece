"""The result records, each an immutable named tuple.

Each record builds positionally and by keyword with its defaults, equals an
equal copy and refuses assignment to a field; the records a sweep sends
between processes survive pickling.
"""

import pickle
from fractions import Fraction

import pytest

from ellquot import (
    QQ,
    BForm,
    ConstructionInput,
    CurvePoint,
    FactorList,
    FamilyPolynomial,
    FiberPolynomial,
    GaloisReport,
    IsogenyData,
    NontrivialPointCertificate,
    UniPoly,
    certify,
    kubert_curve,
    quotient_model,
    velu_quotient,
)
from ellquot.constructions import QuotientModel

x = UniPoly.gen(QQ)


def _isogeny():
    E, A = kubert_curve(5, Fraction(-1))
    return velu_quotient(E, A, 5)


def _records():
    """{type name: (record, positional copy, keyword copy)} for each record type."""
    fiber = FiberPolynomial(x ** 3 - 2, Fraction(1, 2))
    report = GaloisReport(3, True, Fraction(-108), False, "S3", "exact", 20, {(1, 2): 20})
    isog = _isogeny()
    model = quotient_model(5, Fraction(-1))
    cert = certify(ConstructionInput(5, row=1, params={"z": 2}))
    inp = ConstructionInput(4, params={"u": 1, "v": 1})
    rows = [
        (CurvePoint.affine(Fraction(1), Fraction(2)), CurvePoint(False, 1, 2),
         CurvePoint(inf=False, x=1, y=2)),
        (BForm(1, 2, 3, 4), BForm(1, 2, 3, 4), BForm(b2=1, b4=2, b6=3, b8=4)),
        (FactorList(Fraction(2), [(x, 1)]), FactorList(2, [(x, 1)]),
         FactorList(unit=2, factors=[(x, 1)])),
        (FamilyPolynomial("shanks", {"t": 2}, x), FamilyPolynomial("shanks", {"t": 2}, x),
         FamilyPolynomial(family="shanks", parameters={"t": 2}, poly=x)),
        (fiber, FiberPolynomial(x ** 3 - 2, Fraction(1, 2)),
         FiberPolynomial(poly=x ** 3 - 2, base_point_x=Fraction(1, 2))),
        (report, GaloisReport(*report), GaloisReport(**report._asdict())),
        (model, QuotientModel(*model), QuotientModel(**model._asdict())),
        (inp, ConstructionInput(4, None, {"v": 1, "u": 1}, False),
         ConstructionInput(l=4, row=None, params={"u": 1, "v": 1}, as_printed=False)),
        (cert, NontrivialPointCertificate(*cert), NontrivialPointCertificate(**cert._asdict())),
        (isog, IsogenyData(*isog), IsogenyData(**isog._asdict())),
    ]
    return {type(row[0]).__name__: row for row in rows}


NAMES = [
    "CurvePoint", "BForm", "FactorList", "FamilyPolynomial", "FiberPolynomial", "GaloisReport",
    "QuotientModel", "ConstructionInput", "NontrivialPointCertificate", "IsogenyData",
]


@pytest.mark.parametrize("name", NAMES)
def test_a_record_builds_positionally_and_by_keyword_and_equals_an_equal_copy(name):
    record, positional, keyword = _records()[name]
    assert record == positional == keyword
    assert type(positional) is type(record) and type(keyword) is type(record)


@pytest.mark.parametrize("name", NAMES)
def test_assigning_a_field_of_a_record_raises_attribute_error(name):
    record = _records()[name][0]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_records_keep_their_defaults():
    assert CurvePoint(True) == CurvePoint(inf=True, x=None, y=None)
    inp = ConstructionInput(4, params={"u": 1, "v": 1})
    assert (inp.row, inp.as_printed) == (None, False)
    cert = NontrivialPointCertificate(5, {"z": Fraction(2)})
    assert cert[2:] == (None, None, None, False, False, None, None, None)
    assert not cert.on_curve and not cert.valid
    with pytest.raises(TypeError, match="pattern_histogram"):
        GaloisReport(3, True, Fraction(-108), False, "S3", "exact", 0)
    isog = _isogeny()
    with pytest.raises(TypeError, match="kernel_points"):
        IsogenyData(*isog[:-1])


def test_construction_input_checks_and_normalises_when_made_and_replaced():
    inp = ConstructionInput(6, params={"z": 16, "v0": 1})
    assert list(inp.params) == ["v0", "z"]
    assert all(type(value) is Fraction for value in inp.params.values())
    with pytest.raises(ValueError, match="no \\(l, row\\)"):
        ConstructionInput(5, params={"z": 2})
    row1 = ConstructionInput(5, row=1, params={"z": 2})
    assert row1._replace(row=2) == ConstructionInput(5, row=2, params={"z": 2})
    with pytest.raises(ValueError, match="as_printed"):
        row1._replace(row=2, as_printed=True)
    with pytest.raises(ValueError, match="unexpected"):
        row1._replace(params={"z": 2, "t": 1})


def test_construction_input_and_certificate_survive_pickling():
    inp = ConstructionInput(5, row=1, params={"z": 2})
    assert pickle.loads(pickle.dumps(inp)) == inp
    cert = certify(inp)
    copy = pickle.loads(pickle.dumps(cert))
    assert copy == cert and copy.valid
    isog = _isogeny()
    assert pickle.loads(pickle.dumps(isog)) == isog


def test_the_params_of_a_construction_input_are_read_only():
    inp = ConstructionInput(5, row=1, params={"z": 2})
    with pytest.raises(TypeError):
        inp.params["t"] = 7
    assert inp.params == {"z": Fraction(2)}


def test_unpickling_a_construction_input_checks_it_again():
    # a record built past __new__, so its params were never checked
    tampered = tuple.__new__(ConstructionInput, (5, 1, {"z": Fraction(2), "t": Fraction(1)}, False))
    data = pickle.dumps(tampered)
    with pytest.raises(ValueError, match="unexpected"):
        pickle.loads(data)
