"""Prime enumeration over half-open intervals and the derived interval statistics.

Also the integer arithmetic the other modules build on: primality,
factorization, and primitive roots on top of it.

All intervals here are half-open (lo, hi]: the lower endpoint is excluded and
the upper endpoint included.  This convention is fixed once, in this module,
and reused by every consumer.

A list of primes is a packed int64 ``array('q')``, 8 bytes a prime (a tuple
takes about 36): its elements read back as Python ints, so arithmetic on them
stays exact, and np.asarray(primes, dtype=np.int64) is a view, not a copy.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, FactorizationError, ValidationError, check_capacity

DEFAULT_SIEVE_LIMIT = 100_000_000
TRIAL_DIVISION_BOUND = 10_000_000

_SEGMENT = 1 << 21


def sieve_limit() -> int:
    """Active sieve capacity: the SUNIT_MAX_SIEVE env override or the default."""
    raw = os.environ.get("SUNIT_MAX_SIEVE")
    try:
        limit = int(raw) if raw else DEFAULT_SIEVE_LIMIT
    except ValueError:
        limit = 0  # refused below, like every non-positive value
    if limit < 1:
        raise ValidationError(f"SUNIT_MAX_SIEVE needs a positive integer, got {raw!r}")
    return limit


@dataclass(frozen=True)
class PrimeInterval:
    """The complete ascending list of primes in (lo, hi], packed int64."""

    lo: float
    hi: float
    primes: array

    def __len__(self) -> int:
        return len(self.primes)

    def reciprocal_sum(self) -> Fraction:
        """Exact rational sum of 1/p over the listed primes.

        Binary splitting (Haible & Papanikolaou 1998): each node of a product
        tree returns its partial sum as a numerator over the product of its
        primes, so the big multiplications are balanced.  The primes are
        distinct, so no prime divides the numerator and the sum is in lowest
        terms: the Fraction is built from its parts without Fraction()'s gcd
        (as Python 3.12's Fraction._from_coprime_ints does, on every version).
        At y = 2*10^6 (a 720k-bit denominator) that gcd took 0.64 of 0.80 s.
        """

        def split(lo: int, hi: int) -> tuple[int, int]:
            if hi - lo == 1:
                return 1, self.primes[lo]
            mid = (lo + hi) // 2
            num_lo, den_lo = split(lo, mid)
            num_hi, den_hi = split(mid, hi)
            return num_lo * den_hi + num_hi * den_lo, den_lo * den_hi

        if not self.primes:
            return Fraction(0)
        lam = object.__new__(Fraction)
        lam._numerator, lam._denominator = split(0, len(self.primes))
        return lam


@dataclass(frozen=True)
class PrimeStats:
    """Interval statistics at scale y.

    ``recip_sum`` is the exact rational sum of 1/q over primes q in
    (y/4, y/2] (the modulus range), built on first read and cached, so a
    run that never reads it never pays for it; ``prime_count`` is the number
    of primes in (y/2, y] (the product range).  The ``*_asymptotic`` fields
    hold the reference values log(2)/log(y) and y/(2 log(y)) for diagnostics
    only.

    The two lists are packed int64 and, unlike tuples, mutable; interval_stats
    caches them, so no caller may write into them (the engines' operations on
    np.asarray(primes) all make new arrays).
    """

    y: float
    modulus_primes: array
    product_primes: array
    prime_count: int
    recip_sum_asymptotic: float
    prime_count_asymptotic: float

    @cached_property
    def recip_sum(self) -> Fraction:
        return PrimeInterval(self.y / 4, self.y / 2, self.modulus_primes).reciprocal_sum()


def _packed(values: np.ndarray) -> array:
    """An int64 numpy array's values as a packed array('q'), in one copy."""
    out = array("q")
    out.frombytes(np.ascontiguousarray(values, dtype=np.int64).view(np.uint8))
    return out


def _sieve(first: int, last: int):
    """The primes in [first, last], one int64 array per segment of _SEGMENT
    integers; the base primes, up to sqrt(last), come from this routine too."""
    base = _primes_to(math.isqrt(last)).tolist() if last >= 4 else []  # below 4, none: the recursion ends
    for seg_lo in range(max(first, 2), last + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, last)
        mask = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        for p in base:
            start = max(p * p, -(-seg_lo // p) * p)
            if start <= seg_hi:  # a larger base prime may still have a multiple here
                mask[start - seg_lo :: p] = False
        yield np.flatnonzero(mask) + seg_lo


def _primes_to(last: int) -> np.ndarray:
    """The primes up to last, as one int64 array."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *_sieve(2, last)])


def sieve_interval(lo: float, hi: float) -> PrimeInterval:
    """Enumerate the primes in (lo, hi] with a segmented sieve.

    Raises CapacityError when hi exceeds the configured sieve limit; the
    limit exists so that a typo never silently turns into an hour-long run.
    """
    if not 0 <= lo <= hi:  # also refuses nan
        raise ValidationError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    check_capacity("sieve bound {}", hi, sieve_limit())
    primes = array("q")
    # from the smallest integer strictly above lo to the largest at most hi
    for segment in _sieve(math.floor(lo) + 1, math.floor(hi)):
        primes += _packed(segment)
    return PrimeInterval(lo, hi, primes)


def interval_stats(y: float) -> PrimeStats:
    """Compute the modulus-range reciprocal sum and the product-range count at y.

    Built once per y: the last y is cached, and the sieve bound is checked on
    every call.  At the sieve limit, y = 10^8, the two lists hold 4,195,528
    primes in 35.7 MB.  Callers read the cached lists and never write into
    them (see PrimeStats).
    """
    if not y >= 2:  # also refuses nan
        raise ValidationError(f"need y >= 2, got {y}")
    for hi in (y / 2, y):  # the tops of the two ranges, in the order they are sieved
        check_capacity("sieve bound {}", hi, sieve_limit())
    return _interval_stats(y)


@lru_cache(maxsize=1)
def _interval_stats(y: float) -> PrimeStats:
    q_interval = sieve_interval(y / 4, y / 2)
    p_interval = sieve_interval(y / 2, y)
    log_y = math.log(y)
    return PrimeStats(
        y=y,
        modulus_primes=q_interval.primes,
        product_primes=p_interval.primes,
        prime_count=len(p_interval),
        recip_sum_asymptotic=math.log(2) / log_y,
        prime_count_asymptotic=y / (2 * log_y),
    )


# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_VALID_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below the supported range."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_VALID_BELOW:
        raise CapacityError(f"{n} is beyond the deterministic primality range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a >= n:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Find a nontrivial factor of composite odd n; deterministic parameter walk."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y_cur, m = 2, 128
        g = r = q = 1
        x = ys = y_cur
        while g == 1:
            x = y_cur
            for _ in range(r):
                y_cur = (y_cur * y_cur + c) % n
            k = 0
            while k < r and g == 1:
                ys = y_cur
                for _ in range(min(m, r - k)):
                    y_cur = (y_cur * y_cur + c) % n
                    q = q * abs(x - y_cur) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorizationError(f"no factor of {n} found")


@lru_cache(maxsize=1)
def _trial_primes() -> np.ndarray:
    """The primes up to TRIAL_DIVISION_BOUND, sieved once (whatever SUNIT_MAX_SIEVE)."""
    return _primes_to(TRIAL_DIVISION_BOUND)


def _trial_divisors(n: int) -> list[int]:
    """The primes up to TRIAL_DIVISION_BOUND that divide n, in one numpy pass:
    n mod every such prime by Horner's rule over n's 32-bit limbs (each
    remainder stays below 2^24, so a step stays below 2^56 in int64)."""
    primes = _trial_primes()
    rem = np.zeros_like(primes)
    for limb in np.frombuffer(n.to_bytes(-(-n.bit_length() // 32) * 4, "big"), ">u4").tolist():
        rem <<= 32
        rem += limb
        rem %= primes
    return primes[rem == 0].tolist()


_SMALL_PRIMES = tuple(_primes_to(1 << 10).tolist())


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization: trial division by the primes below 2^10, then
    is_prime and rho on what is left.

    A cofactor of at least _MR_VALID_BELOW, which is_prime cannot certify,
    first loses its primes up to TRIAL_DIVISION_BOUND in one numpy pass
    (_trial_divisors).  Returns an ascending prime -> exponent map;
    factorize(1) == {}.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    for p in _trial_divisors(n) if n >= _MR_VALID_BELOW else ():
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = _pollard_brent(m)
        stack.extend((g, m // g))
    return dict(sorted(factors.items()))


def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    order_factors = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors):
            return g
    raise ValidationError(f"{p} has no primitive root; not an odd prime?")
