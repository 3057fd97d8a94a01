"""Exception hierarchy shared by all modules.

Each error carries a stable machine-readable ``code`` and the process exit
status the CLI maps it to.
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache

# digits() converts up to this many bits in one step: a whole integer by
# int.__repr__, a piece of a longer one by libmpdec's quadratic conversion from
# binary; leaves of 512 to 8,192 bits timed alike on a 720,145-bit integer
_DIGITS_LEAF_BITS = 2048
# looked up once: digits() writes most integers of a report through it
_int_repr = int.__repr__


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


def digits(n: int) -> str:
    """The decimal digits of n, as str(n) writes them, in subquadratic time.

    The interpreter's int-to-str digit limit does not bind.  Up to
    _DIGITS_LEAF_BITS bits this is int.__repr__(n), which writes the digits
    of an int subclass too: at most 617 digits, under 640, the least limit the
    interpreter accepts.  Past that, n is split at 2^(w/2) for its bit length
    w, both halves are converted, and they are recombined as
    hi * 2^(w/2) + lo in exact Decimal arithmetic, whose multiplication is
    subquadratic (divide and conquer, as in Brent and Zimmermann, Modern
    Computer Arithmetic, section 1.7).
    """
    w = n.bit_length()
    if w <= _DIGITS_LEAF_BITS:
        return _int_repr(n)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        return ("-" if n < 0 else "") + str(_exact_decimal(abs(n), w))


def _exact_decimal(n: int, w: int) -> decimal.Decimal:
    """n >= 0 of at most w bits as a Decimal; runs under a MAX_PREC context."""
    if w <= _DIGITS_LEAF_BITS:
        return decimal.Decimal(n)
    half = w >> 1
    hi = n >> half
    return _exact_decimal(hi, w - half) * _power_of_two(half) + _exact_decimal(n - (hi << half), half)


@lru_cache(maxsize=64)
def _power_of_two(w: int) -> decimal.Decimal:
    return decimal.Decimal(2) ** w


def check_capacity(what: str, estimate, cap: int, low: int = 0) -> None:
    """Refuse work whose estimate passes its cap, before the work starts.

    ``what`` names the estimate, with ``{}`` where its value goes; the
    estimate may be a function of none.  ``low`` is a proven lower bound on
    its log2: once low passes both 64 and the cap's bit length, the refusal
    says "at least 2^low" and the estimate is never formed.  Integers are
    written through digits(), which the int-to-str digit limit does not bind.
    """
    if low > max(64, cap.bit_length()):
        raise CapacityError(what.format(f"at least 2^{low}") + f", over the cap {cap}")
    estimate = estimate() if callable(estimate) else estimate
    if estimate > cap:
        value = digits(estimate) if isinstance(estimate, int) else estimate
        raise CapacityError(f"{what.format(value)}, over the cap {cap}")


def check_power_capacity(what: str, terms, cap: int) -> None:
    """check_capacity of the product of base**exp over the (base, exp) terms,
    at least 2^(sum of exp * floor(log2 base)), or 0 when a base is 0."""
    low = sum(e * (b.bit_length() - 1) for b, e in terms) if all(b for b, _e in terms) else 0
    check_capacity(what, lambda: math.prod(b**e for b, e in terms), cap, low)


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
