"""Ground truth for consecutive smooth pairs.

Everything here is independent of the construction pipeline: factorization is
plain division by the given primes, and the pair enumeration generates the
smooth integers as products of prime powers and re-divides every pair it finds.
The constructor's outputs are checked against this module, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, VerificationError, check_capacity
from .prime_tools import is_prime

SMOOTH_COUNT_LIMIT = 10**7  # Psi(limit + 1, S), 8 bytes each, held about twice at the peak


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

    Generates only the S-smooth integers up to limit + 1: from [1], for each
    prime p, append p times the integers so far while the product stays in
    range; sorted, the pairs are the neighbours one apart.  Work and memory
    follow their count Psi(limit + 1, S), which SMOOTH_COUNT_LIMIT bounds.
    """
    if limit < 1:
        raise ValidationError(f"need limit >= 1, got {limit}")
    hi = limit + 1  # c = a + 1 must be smooth too
    check_capacity("smooth pair height limit + 1 = {}", hi, np.iinfo(np.int64).max)
    prime_list = _checked_primes(primes)
    chunks = [np.ones(1, dtype=np.int64)]
    count = 1
    for p in prime_list:
        if p > hi:
            break
        prev = np.concatenate(chunks)
        chunks = [prev]
        while len(prev):
            keep = prev <= hi // p  # so the product stays <= hi, within int64
            count += int(np.count_nonzero(keep))
            check_capacity(f"S-smooth integers up to {hi}: at least {{}}", count, SMOOTH_COUNT_LIMIT)
            prev = prev[keep] * p
            chunks.append(prev)
    smooth = np.concatenate(chunks)
    del chunks  # freed before the pairs are read off
    smooth.sort()
    starts = smooth[:-1][np.diff(smooth) == 1]
    return [_build_pair(int(a), prime_list) for a in starts]


def _build_pair(a: int, prime_list: tuple[int, ...]) -> SmoothPair:
    fa = _divide_out(a, prime_list)
    fc = _divide_out(a + 1, prime_list)
    if fa is None or fc is None:
        raise VerificationError(f"enumeration marked non-smooth pair ({a}, {a + 1})")
    return SmoothPair(a=a, c=a + 1, factorization_a=fa, factorization_c=fc)
