"""Exception hierarchy shared by all modules.

Each error carries a stable machine-readable ``code`` and the process exit
status the CLI maps it to.
"""

from __future__ import annotations

import decimal
import math


class SUnitError(Exception):
    """Base class for all package errors."""

    code = "error"
    exit_status = 1


class ValidationError(SUnitError):
    """Bad input: parameters outside documented ranges or malformed config."""

    code = "validation"
    exit_status = 2


class CapacityError(SUnitError):
    """A requested computation exceeds a configured capacity limit."""

    code = "capacity"
    exit_status = 3


def check_capacity(what: str, estimate: int | float, cap: int) -> None:
    """Refuse work whose estimate passes its cap, before the work starts.

    ``what`` names the estimate, with ``{}`` where its value goes.  Integers
    are written through Decimal, which the int-to-str digit limit does not
    bind: a large t makes a multiset count thousands of digits long.
    """
    if estimate > cap:
        value = decimal.Decimal(estimate) if isinstance(estimate, int) else estimate
        raise CapacityError(f"{what.format(value)}, over the cap {cap}")


def check_power_capacity(what: str, terms, cap: int) -> None:
    """check_capacity of the product of base**exp over the (base, exp) terms.

    The product is at least 2^low, low = sum of exp * floor(log2 base).  When
    low passes both 64 and the cap's bit length, the powers are not expanded
    (a huge exponent would take minutes) and the message says "at least 2^low".
    """
    low = sum(e * (b.bit_length() - 1) for b, e in terms)
    if all(b for b, _e in terms) and low > max(64, cap.bit_length()):
        raise CapacityError(what.format(f"at least 2^{low}") + f", over the cap {cap}")
    check_capacity(what, math.prod(b**e for b, e in terms), cap)


def finite_float(compute) -> float | None:
    """compute() as a float, or None where it leaves the double range.

    The report rule for float copies of exact values: one that overflows
    (an OverflowError, an infinity or a nan, or a division by a nonzero
    value whose float copy underflowed to 0) is reported as null, and the
    exact value next to it stays exact.
    """
    try:
        value = float(compute())
    except (OverflowError, ZeroDivisionError):
        return None
    return value if math.isfinite(value) else None


class FactorizationError(CapacityError):
    """An integer survived every configured factorization method."""

    code = "factorization"
    exit_status = 3


class VerificationError(SUnitError):
    """An internally produced result failed its own verification: a bug."""

    code = "verification"
    exit_status = 4


class ToleranceError(VerificationError):
    """Floating-point accumulation exceeded a rounding guard."""

    code = "tolerance"
    exit_status = 4
