"""Prime enumeration over half-open intervals and the derived interval statistics.

Also the integer arithmetic the other modules build on: primality,
factorization, and phi, Moebius, divisors and primitive roots on top of it.

All intervals here are half-open (lo, hi]: the lower endpoint is excluded and
the upper endpoint included.  This convention is fixed once, in this module,
and reused by every consumer.
"""

from __future__ import annotations

import math
import os
from collections import Counter
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
    """The complete ascending list of primes in (lo, hi]."""

    lo: float
    hi: float
    primes: tuple[int, ...]

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
    """

    y: float
    modulus_primes: tuple[int, ...]
    product_primes: tuple[int, ...]
    prime_count: int
    recip_sum_asymptotic: float
    prime_count_asymptotic: float

    @cached_property
    def recip_sum(self) -> Fraction:
        return PrimeInterval(self.y / 4, self.y / 2, self.modulus_primes).reciprocal_sum()


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def sieve_interval(lo: float, hi: float) -> PrimeInterval:
    """Enumerate the primes in (lo, hi] with a segmented sieve.

    Raises CapacityError when hi exceeds the configured sieve limit; the
    limit exists so that a typo never silently turns into an hour-long run.
    """
    if not 0 <= lo <= hi:  # also refuses nan
        raise ValidationError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    check_capacity("sieve bound {}", hi, sieve_limit())

    first = math.floor(lo) + 1  # smallest integer strictly above lo
    last = math.floor(hi)  # largest integer at most hi
    if last < 2 or last < first:
        return PrimeInterval(lo, hi, ())

    first = max(first, 2)
    base = _simple_sieve(math.isqrt(last))
    primes: list[int] = []
    for seg_lo in range(first, last + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, last)
        mask = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start > seg_hi:
                continue
            mask[start - seg_lo :: p] = False
        if seg_lo <= 1:
            mask[: 2 - seg_lo] = False
        primes.extend((np.flatnonzero(mask) + seg_lo).tolist())
    return PrimeInterval(lo, hi, tuple(primes))


def interval_stats(y: float) -> PrimeStats:
    """Compute the modulus-range reciprocal sum and the product-range count at y.

    Built once per y: the last y is cached (near the sieve limit its primes
    take about 150 MB), and the sieve bound is checked on every call.
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
    return _simple_sieve(TRIAL_DIVISION_BOUND)


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


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization: trial division up to TRIAL_DIVISION_BOUND, then rho.

    Past TRIAL_DIVISION_BOUND^2, where the wheel would try every candidate up
    to the bound, it stops at the bound's square root, and _trial_divisors
    finds the rest in one numpy pass.  Returns an ascending prime -> exponent
    map; factorize(1) == {}.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    stop = math.isqrt(TRIAL_DIVISION_BOUND) if n > TRIAL_DIVISION_BOUND**2 else TRIAL_DIVISION_BOUND
    while d * d <= n and d <= stop:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if d * d <= n and d <= TRIAL_DIVISION_BOUND:  # the wheel stopped short
        for p in _trial_divisors(n):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            g = _pollard_brent(m)
            stack.extend((g, m // g))
    return dict(sorted(factors.items()))


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def _mobius(n: int) -> int:
    mu = 1
    for _p, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def _phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


def _phi_of_multiset(combo: tuple[int, ...]) -> int:
    """Euler phi of the product of a prime multiset, exactly."""
    phi = 1
    for q, e in Counter(combo).items():
        phi *= q ** (e - 1) * (q - 1)
    return phi


def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    order_factors = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors):
            return g
    raise ValidationError(f"{p} has no primitive root; not an odd prime?")
