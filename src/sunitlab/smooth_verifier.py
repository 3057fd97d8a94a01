"""Ground truth for consecutive smooth pairs.

Everything here is independent of the construction pipeline: factorization is
plain division by the given primes, and the pair enumeration is an exhaustive
sieve.  The constructor's outputs are checked against this module, never the
other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, VerificationError, check_capacity
from .prime_tools import is_prime, sieve_limit

_SEGMENT = 1 << 20


@dataclass(frozen=True)
class SmoothPair:
    """Consecutive integers a and c = a + 1, both factoring over the prime set."""

    a: int
    c: int
    factorization_a: dict[int, int]
    factorization_c: dict[int, int]

    def __post_init__(self) -> None:
        if self.c != self.a + 1:
            raise ValidationError(f"not consecutive: a={self.a}, c={self.c}")


@dataclass(frozen=True)
class SolutionCertificate:
    a: int
    c: int
    ok: bool
    factorization_a: dict[int, int] | None
    factorization_c: dict[int, int] | None


def _checked_primes(primes) -> tuple[int, ...]:
    return _validated(tuple(sorted(set(int(p) for p in primes))))


@lru_cache(maxsize=64)
def _validated(prime_list: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted prime list once every entry passed is_prime; checked once per set."""
    for p in prime_list:
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime; S must be a set of primes")
    return prime_list


def _divide_out(n: int, prime_list: tuple[int, ...]) -> dict[int, int] | None:
    """factor_over for an already checked prime list."""
    factors: dict[int, int] = {}
    for p in prime_list:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    return factors if n == 1 else None


def factor_over(n: int, primes) -> dict[int, int] | None:
    """Exponent map of n over the given primes, or None if n has other factors.

    factor_over(1, anything) is the empty map: a unit has no prime factors.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return _divide_out(n, _checked_primes(primes))


def verify_solution(a: int, primes) -> SolutionCertificate:
    """Certificate that a and a + 1 are both smooth over the prime set."""
    if a < 1:
        raise ValidationError(f"need a >= 1, got {a}")
    prime_list = _checked_primes(primes)
    fa = _divide_out(a, prime_list)
    fc = _divide_out(a + 1, prime_list)
    ok = fa is not None and fc is not None
    return SolutionCertificate(
        a=a,
        c=a + 1,
        ok=ok,
        factorization_a=fa if ok else None,
        factorization_c=fc if ok else None,
    )


def enumerate_smooth_pairs(primes, limit: int) -> list[SmoothPair]:
    """All a <= limit with a and a + 1 smooth over the primes, ascending.

    Sieve method: over each window, divide every entry by the highest power
    of each prime; entries reduced to 1 are smooth.  Runs in
    O(limit * |S| * log limit) with no per-integer factorization.
    """
    if limit < 1:
        raise ValidationError(f"need limit >= 1, got {limit}")
    check_capacity("smoothness sieve up to {}", limit + 1, sieve_limit())
    prime_list = _checked_primes(primes)
    if not prime_list:
        return []

    hi = limit + 1  # c = a + 1 must be sieved too
    pairs: list[SmoothPair] = []
    prev_last_smooth = False  # whether the final entry of the previous window was smooth
    for lo in range(1, hi + 1, _SEGMENT):
        window_hi = min(lo + _SEGMENT - 1, hi)
        residual = np.arange(lo, window_hi + 1, dtype=np.int64)
        for p in prime_list:
            power = p
            while power <= window_hi:
                start = (lo + power - 1) // power * power
                if start <= window_hi:
                    residual[start - lo :: power] //= p
                power *= p
        smooth = residual == 1
        if prev_last_smooth and smooth[0]:
            pairs.append(_build_pair(lo - 1, prime_list))
        for i in np.flatnonzero(smooth[:-1] & smooth[1:]):
            pairs.append(_build_pair(lo + int(i), prime_list))
        prev_last_smooth = bool(smooth[-1])
    return pairs


def _build_pair(a: int, prime_list: tuple[int, ...]) -> SmoothPair:
    fa = _divide_out(a, prime_list)
    fc = _divide_out(a + 1, prime_list)
    if fa is None or fc is None:
        raise VerificationError(f"sieve marked non-smooth pair ({a}, {a + 1})")
    return SmoothPair(a=a, c=a + 1, factorization_a=fa, factorization_c=fc)
