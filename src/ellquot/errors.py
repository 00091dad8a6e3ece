"""Exception hierarchy shared by the whole package, and its one parameter-set check."""


class EllquotError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class SingularCurveError(EllquotError):
    """A Weierstrass model with vanishing discriminant was requested."""

    code = "singular-curve"


class DegenerateParameterError(EllquotError):
    """Parameters violate a stated precondition (zero denominator etc.)."""

    code = "degenerate-parameter"


class OffCurveError(EllquotError):
    """A point that does not satisfy the curve equation was supplied."""

    code = "off-curve"


class TorsionOrderError(EllquotError):
    """A point does not have the torsion order required by the operation."""

    code = "torsion-order"


class ZeroPolynomialError(EllquotError):
    """An operation that needs a nonzero polynomial received zero."""

    code = "zero-polynomial"


class InvariantError(EllquotError):
    """An internal invariant failed: a defect in this package, not in the input."""

    code = "internal-invariant"


def check_parameters(what, names, given: dict) -> None:
    """Raise ValueError unless `given` holds exactly the parameters `names`.

    The message names the expected, missing and unexpected parameters.
    """
    if given.keys() != set(names):
        missing = [k for k in names if k not in given]
        unexpected = [k for k in given if k not in names]
        raise ValueError(f"{what} takes {names}: missing {missing}, unexpected {unexpected}")
