"""Work counters computed from the arguments and results of traced calls.

Each counter is derived with the benchmark's own arithmetic (its own sieve,
its own Euler phi), never by calling into sunitlab, so computing a counter
cannot warm a program cache and the counters repeat exactly from run to run.
The loop structure each counter mirrors is named in its function.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement


@lru_cache(maxsize=None)
def _primes_upto(n: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def primes_between(lo: float, hi: float) -> tuple[int, ...]:
    """Primes in the half-open interval (lo, hi], the program's convention."""
    first, last = math.floor(lo) + 1, math.floor(hi)
    return tuple(p for p in _primes_upto(last) if p >= first)


def modulus_primes(y: float) -> tuple[int, ...]:
    return primes_between(y / 4, y / 2)


def product_primes(y: float) -> tuple[int, ...]:
    return primes_between(y / 2, y)


def phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def multisets(primes: tuple[int, ...], t: int) -> int:
    """Number of products of t primes drawn with repetition: moduli visited."""
    return math.comb(len(primes) + t - 1, t) if primes else 0


@lru_cache(maxsize=None)
def phi_total(primes: tuple[int, ...], t: int) -> int:
    """Sum of phi(m) over the products m of t-multisets: characters built."""
    total = 0
    for combo in combinations_with_replacement(primes, t):
        value = 1
        for q, e in Counter(combo).items():
            value *= q ** (e - 1) * (q - 1)
        total += value
    return total


def _census(q: tuple[int, ...], p_count: int, ell: int) -> dict[str, int]:
    moduli = multisets(q, ell)
    return {"tuple_census.moduli": moduli, "tuple_census.residues": moduli * p_count}


def _count_exact(a, result):
    params = a["params"]
    return _census(modulus_primes(params.y), len(product_primes(params.y)), params.ell)


def _census_over(a, result):
    return _census(tuple(a["q_primes"]), len(a["p_primes"]), a["ell"])


def _character_classes(q: tuple[int, ...], ts) -> dict[str, int]:
    """Counters for a loop over every modulus class Q_t, t in ts, with full character tables."""
    return {
        "character_lab.moduli": sum(multisets(q, t) for t in ts),
        "character_lab.characters": sum(phi_total(q, t) for t in ts),
    }


def _census_via_characters(a, result):
    params = a["params"]
    return _character_classes(modulus_primes(params.y), [params.ell])


def _nonprincipal(a, result):
    # the direct bound loops over Q_ell, the class bounds over Q_1 .. Q_ell
    params = a["params"]
    return _character_classes(modulus_primes(params.y), [params.ell, *range(1, params.ell + 1)])


def _principal(a, result):
    params = a["params"]
    return {"character_lab.moduli": multisets(modulus_primes(params.y), params.ell)}


def _phi_slack(a, result):
    params = a["params"]
    q = modulus_primes(params.y)
    if not q or not product_primes(params.y):
        return {}
    return {"character_lab.moduli": multisets(q, params.ell)}


def _moment_check(a, result):
    return _character_classes(modulus_primes(a["y"]), [a["t"]])


def _tail_shape(a, result):
    params = a["params"]
    k, ell = params.k, params.ell
    if a["which"] == "low":
        ts = [t for t in range(1, ell + 1) if t <= k / 4]
    else:
        ts = [t for t in range(1, ell + 1) if t > k / 4]
    return _character_classes(modulus_primes(params.y), ts)


def _enumerate_qt(a, result):
    return {"character_lab.moduli": multisets(modulus_primes(a["y"]), a["t"])}


def _large_sieve_check(a, result):
    inst = a["instance"]
    if a["mode"] == "single-modulus":
        moduli = [inst.modulus]
    else:
        moduli = range(1, inst.modulus_bound + 1)
    return {
        "character_lab.sieve_instances": 1,
        "character_lab.moduli": len(moduli),
        "character_lab.characters": sum(phi(m) for m in moduli),
    }


def _interval_stats(a, result):
    return {
        "prime_tools.primes": len(result.modulus_primes) + len(result.product_primes),
        "prime_tools.lambda_bits": result.recip_sum.denominator.bit_length(),
    }


def _pairs(a, result):
    k, ell, y = a["k"], a["ell"], a["y"]
    tests = multisets(product_primes(y), k) * multisets(modulus_primes(y), ell)
    return {"constructor.pair_tests": tests, "constructor.pairs": len(result)}


def _smooth_pairs(a, result):
    return {"smooth_verifier.integers": a["limit"] + 1, "smooth_verifier.pairs": len(result)}


COUNTED = {
    "prime_tools.interval_stats": _interval_stats,
    "prime_tools.sieve_interval": lambda a, result: {"prime_tools.primes": len(result.primes)},
    "tuple_census.count_exact": _count_exact,
    "tuple_census.census_over": _census_over,
    "tuple_census.count_sampled": lambda a, result: {"tuple_census.samples": a["samples"]},
    "character_lab.census_via_characters": _census_via_characters,
    "character_lab.nonprincipal_contribution": _nonprincipal,
    "character_lab.principal_contribution": _principal,
    "character_lab.phi_slack": _phi_slack,
    "character_lab.moment_check": _moment_check,
    "character_lab.tail_shape": _tail_shape,
    "character_lab.enumerate_Qt": _enumerate_qt,
    "character_lab.large_sieve_check": _large_sieve_check,
    "constructor.solve_congruence_pairs": _pairs,
    "smooth_verifier.enumerate_smooth_pairs": _smooth_pairs,
    "smooth_verifier.verify_solution": lambda a, result: {"smooth_verifier.integers": 2},
}

NAMES = (
    "prime_tools.primes",
    "prime_tools.lambda_bits",
    "tuple_census.moduli",
    "tuple_census.residues",
    "tuple_census.samples",
    "character_lab.moduli",
    "character_lab.characters",
    "character_lab.sieve_instances",
    "constructor.pair_tests",
    "constructor.pairs",
    "smooth_verifier.integers",
    "smooth_verifier.pairs",
)


def tally(calls) -> dict[str, int]:
    """Sum the counters over completed calls, given as (qualname, fn, args, kwargs, result)."""
    totals = dict.fromkeys(NAMES, 0)
    for qualname, fn, args, kwargs, result in calls:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        for name, value in COUNTED[qualname](bound.arguments, result).items():
            totals[name] += value
    return totals
