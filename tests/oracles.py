"""Independent oracles used by the test suite.

Everything here is deliberately naive: trial division, exhaustive tuple
enumeration, per-integer smoothness checks.  The point is that none of it
shares code with the package under test, so agreement is evidence rather
than tautology.  Keep these slow and obvious.  The one exception is the
character oracle: it reads a character table's generator orders and
discrete logs (``orders``, ``dlog``), but not its transform (``sums``) or
its primitive mask, which it checks.  ``oracle_encode`` is the report
encoder as first written: one isinstance chain, digits through Decimal.
"""

import dataclasses
import decimal
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import floor, isqrt, lcm, prod

import numpy as np


def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def oracle_primes_in(lo: float, hi: float) -> list[int]:
    """Primes in the half-open interval (lo, hi], by trial division."""
    first = floor(lo) + 1
    last = floor(hi)
    return [n for n in range(max(first, 2), last + 1) if oracle_is_prime(n)]


def oracle_factorize(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError("positive integers only")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def oracle_census(y: float, k: int, ell: int) -> int:
    """Exhaustive ordered-tuple count of p1*...*pk == 1 mod q1*...*qell."""
    ps = oracle_primes_in(y / 2, y)
    qs = oracle_primes_in(y / 4, y / 2)
    total = 0
    for qt in product(qs, repeat=ell):
        m = 1
        for q in qt:
            m *= q
        for pt in product(ps, repeat=k):
            r = 1
            for p in pt:
                r = r * p % m
            if r == 1 % m:
                total += 1
    return total


def oracle_sampled_hits(p_primes, q_primes, k: int, ell: int, samples: int, seed: int) -> int:
    """The per-sample loop the numpy Monte Carlo census replaced.

    Each sample draws ell modulus primes, then k product primes, with
    random.Random(seed).choice, and hits when the product is 1 mod m.
    """
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        m = prod(rng.choice(q_primes) for _ in range(ell))
        r = 1
        for _ in range(k):
            r = r * rng.choice(p_primes) % m
        if r == 1:
            hits += 1
    return hits


def oracle_congruence_pairs(p_primes, moduli, k: int) -> list[tuple]:
    """The Python pair loop the congruence engine replaced.

    Tests every k-multiset r of p_primes against every modulus multiset in
    ``moduli`` and keeps m | r - 1 as (r, m, (r - 1) // m, r multiset,
    m multiset), sorted by (m, r).
    """
    pairs = []
    for r_combo in combinations_with_replacement(p_primes, k):
        r = prod(r_combo)
        for m_combo in moduli:
            m = prod(m_combo)
            if (r - 1) % m == 0:
                pairs.append((r, m, (r - 1) // m, r_combo, m_combo))
    pairs.sort(key=lambda pr: (pr[1], pr[0]))
    return pairs


def oracle_recip_sum(y: float) -> Fraction:
    return sum((Fraction(1, q) for q in oracle_primes_in(y / 4, y / 2)),
               Fraction(0))


def oracle_rep_counts(t: int, y: float) -> Counter:
    """Counter: product of t primes from (y/2, y] -> number of ordered tuples."""
    ps = oracle_primes_in(y / 2, y)
    out: Counter = Counter()
    for pt in product(ps, repeat=t):
        n = 1
        for p in pt:
            n *= p
        out[n] += 1
    return out


def oracle_is_smooth(n: int, primes: list[int]) -> bool:
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def oracle_smooth_pairs(primes: list[int], limit: int) -> list[tuple[int, int]]:
    """All (a, a+1) with both sides factoring over `primes`, a+1 <= limit."""
    pairs = []
    smooth_prev = True  # n = 1 is vacuously smooth
    for n in range(2, limit + 1):
        s = oracle_is_smooth(n, primes)
        if smooth_prev and s:
            pairs.append((n - 1, n))
        smooth_prev = s
    return pairs


def oracle_sieved_smooth_pairs(primes, limit: int) -> list[tuple[int, int]]:
    """The windowed sieve the smooth-integer generator replaced.

    All (a, a + 1) with a <= limit and both sides smooth over the primes.
    Over each window, divide every entry by the highest power of each prime;
    entries reduced to 1 are smooth.  O(limit * |S| * log limit).
    """
    prime_list = sorted(set(primes))
    if not prime_list:
        return []
    segment = 1 << 20
    hi = limit + 1  # c = a + 1 must be sieved too
    pairs = []
    prev_last_smooth = False  # whether the final entry of the previous window was smooth
    for lo in range(1, hi + 1, segment):
        window_hi = min(lo + segment - 1, hi)
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
            pairs.append((lo - 1, lo))
        for i in np.flatnonzero(smooth[:-1] & smooth[1:]):
            pairs.append((lo + int(i), lo + int(i) + 1))
        prev_last_smooth = bool(smooth[-1])
    return pairs


def _pell_fundamental(d: int) -> tuple[int, int]:
    """Least x, y > 0 with x^2 - d*y^2 = 1, from the continued fraction of sqrt(d)."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    h_prev, h, k_prev, k = 1, a0, 0, 1
    while h * h - d * k * k != 1:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return h, k


def oracle_stormer_pairs(primes) -> list[tuple[int, int]]:
    """Every (a, a + 1) with both sides smooth over the primes, at any height.

    Lehmer's method ("On a problem of Stormer", Illinois J. Math. 8, 1964):
    x = 2a + 1 solves x^2 - 2q*y^2 = 1 for the squarefree part q of 2a(a + 1),
    a product of primes of S, with y S-smooth; and such a solution is the
    n-th power of the fundamental one for some n <= max(3, (max S + 1) / 2).
    """
    prime_list = sorted(set(primes))
    n_max = max(3, (prime_list[-1] + 1) // 2)
    found = set()
    for size in range(len(prime_list) + 1):
        for combo in combinations(prime_list, size):
            d = 2 * prod(combo)
            if isqrt(d) ** 2 == d:
                continue
            x1, y1 = _pell_fundamental(d)
            x, y = x1, y1
            for _ in range(n_max):
                a = (x - 1) // 2
                if x % 2 and all(oracle_is_smooth(v, prime_list) for v in (y, a, a + 1)):
                    found.add((a, a + 1))
                x, y = x1 * x + d * y1 * y, x1 * y + y1 * x
    return sorted(found)


def oracle_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if _gcd(a, n) == 1)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def oracle_root_exponents(table, ns):
    """Integer t[chi, j] with chi(ns[j]) = exp(2 pi i t / E), -1 off the units.

    Character i has the exponent vector c = unravel(i), a unit n the log
    vector d = unravel(dlog[n]), both on the grid of generator orders o, and
    chi_c(n) = exp(2 pi i sum_r c_r d_r / o_r) with E = lcm(o).  Returns (t, E).
    """
    shape = table.orders or (1,)
    exponent = lcm(*shape)
    logs = table.dlog[np.asarray(ns, dtype=np.int64) % table.modulus]
    d = np.array(np.unravel_index(np.maximum(logs, 0), shape))
    c = np.array(np.unravel_index(np.arange(table.totient), shape))
    t = (c.T * (exponent // np.array(shape))) @ d % exponent
    t[:, logs < 0] = -1
    return t, exponent


def oracle_character_values(table, ns):
    """chi(n) for every character (rows, in table order) and every n in ns (columns)."""
    t, exponent = oracle_root_exponents(table, ns)
    return np.where(t >= 0, np.exp(2j * np.pi * t / exponent), 0)


def oracle_prime_sums(table, primes):
    """sum of chi(p) over the primes, for every character, term by term."""
    return oracle_character_values(table, primes).sum(axis=1)


def oracle_conductors(table):
    """Restriction-test conductor of every character: the least d | m with chi
    trivial on the units congruent to 1 mod d.  Principal: 1; primitive: m."""
    m = table.modulus
    t, _ = oracle_root_exponents(table, range(m))
    units = np.flatnonzero(t[0] >= 0)
    conductors = np.full(len(t), m)
    for d in reversed([d for d in range(1, m + 1) if m % d == 0]):
        trivial = (t[:, units[units % d == 1 % d]] == 0).all(axis=1)
        conductors[trivial] = d
    return conductors


def oracle_encode(obj):
    """JSON-safe data with lossless integers: decimal strings, Fractions as
    {num, den}, complex as {re, im}, dataclasses as dicts of their fields."""
    if obj is None or isinstance(obj, (bool, float, str)):
        return obj
    if isinstance(obj, int):
        return str(decimal.Decimal(obj))
    if isinstance(obj, Fraction):
        return {"num": oracle_encode(obj.numerator), "den": oracle_encode(obj.denominator)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if dataclasses.is_dataclass(obj):
        return {f.name: oracle_encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): oracle_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_encode(x) for x in obj]
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")
