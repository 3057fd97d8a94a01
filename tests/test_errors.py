from fractions import Fraction

from sunitlab.errors import (
    CapacityError,
    FactorizationError,
    SUnitError,
    ToleranceError,
    ValidationError,
    VerificationError,
    finite_float,
)


def test_finite_float_is_null_past_the_double_range():
    assert finite_float(lambda: Fraction(1, 3)) == 1 / 3
    assert finite_float(lambda: 10**400) is None  # int to float
    assert finite_float(lambda: 7.5**1000) is None  # float power
    assert finite_float(lambda: 1e308 * 10) is None  # inf
    assert finite_float(lambda: 10**400 / 3.0) is None  # int / float
    assert finite_float(lambda: 1 / float(Fraction(1, 10**400))) is None  # underflowed divisor
    assert finite_float(lambda: float("nan")) is None


def test_exit_status_taxonomy():
    assert SUnitError.exit_status == 1
    assert ValidationError.exit_status == 2
    assert CapacityError.exit_status == 3
    assert FactorizationError.exit_status == 3
    assert VerificationError.exit_status == 4
    assert ToleranceError.exit_status == 4


def test_codes_are_distinct_and_stringy():
    classes = [
        SUnitError,
        ValidationError,
        CapacityError,
        FactorizationError,
        VerificationError,
        ToleranceError,
    ]
    codes = [c.code for c in classes]
    assert len(set(codes)) == len(codes)
    assert all(isinstance(c, str) and c for c in codes)


def test_hierarchy():
    # a failed factorization is a capacity problem; a tolerance breach is a
    # verification problem; everything is a SUnitError
    assert issubclass(FactorizationError, CapacityError)
    assert issubclass(ToleranceError, VerificationError)
    for cls in (ValidationError, CapacityError, VerificationError):
        assert issubclass(cls, SUnitError)
