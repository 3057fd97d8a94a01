import json
import math
from array import array

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from sunitlab.character_lab import enumerate_Qt
from sunitlab.cli_report import main as cli_main
import sunitlab.prime_tools as pt
from sunitlab.errors import CapacityError, ValidationError
from sunitlab.prime_tools import (
    DEFAULT_SIEVE_LIMIT,
    PrimeInterval,
    factorize,
    interval_stats,
    is_prime,
    sieve_interval,
    sieve_limit,
)

from oracles import (
    oracle_factorize,
    oracle_is_prime,
    oracle_primes_in,
    oracle_recip_sum,
)
from test_capacity import Tripwire


@given(
    lo=st.integers(min_value=0, max_value=3000),
    width=st.integers(min_value=0, max_value=500),
    jitter=st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=60, deadline=None)
def test_sieve_matches_trial_division(lo, width, jitter):
    a = lo + jitter
    b = a + width
    got = sieve_interval(a, b).primes
    assert list(got) == oracle_primes_in(a, b)


def test_half_open_boundaries():
    # integral lower endpoint excluded even when prime
    assert tuple(sieve_interval(7, 14).primes) == (11, 13)
    # integral upper endpoint included when prime
    assert tuple(sieve_interval(6.9, 7).primes) == (7,)
    assert tuple(sieve_interval(2.5, 5).primes) == (3, 5)
    # boundary where y/2 is itself prime: 7 must not count as a product prime
    st7 = interval_stats(14)
    assert 7 not in st7.product_primes
    assert 7 in st7.modulus_primes  # (3.5, 7] keeps it
    # degenerate interval
    assert tuple(sieve_interval(13, 13).primes) == ()


@pytest.mark.parametrize("y", [10, 14, 20, 30, 30.7, 60, 100, 211])
def test_interval_stats_exact(y):
    s = interval_stats(y)
    assert list(s.product_primes) == oracle_primes_in(y / 2, y)
    assert list(s.modulus_primes) == oracle_primes_in(y / 4, y / 2)
    assert s.prime_count == len(s.product_primes)
    # exact rational equality against an independent resummation
    assert s.recip_sum == oracle_recip_sum(y)
    assert isinstance(s.recip_sum, Fraction)


def test_stats_asymptotic_fields():
    import math

    s = interval_stats(1000)
    assert s.recip_sum_asymptotic == pytest.approx(math.log(2) / math.log(1000))
    assert s.prime_count_asymptotic == pytest.approx(1000 / (2 * math.log(1000)))
    # crude sanity: the finite quantities sit near the reference at this scale
    assert abs(float(s.recip_sum) - s.recip_sum_asymptotic) < 0.05
    assert abs(s.prime_count - s.prime_count_asymptotic) / s.prime_count < 0.2


def test_interval_stats_validation():
    with pytest.raises(ValidationError):
        interval_stats(1.5)


def test_prime_lists_are_packed_int64_with_int_elements():
    st = interval_stats(1000)
    for primes in (sieve_interval(250, 500).primes, sieve_interval(13, 13).primes,
                   st.modulus_primes, st.product_primes):
        assert isinstance(primes, array) and primes.typecode == "q" and primes.itemsize == 8
        assert all(type(p) is int for p in primes)
    assert list(st.modulus_primes) == oracle_primes_in(250, 500)
    # the engines' np.asarray entry points are views of the lists, not copies
    for primes in (st.modulus_primes, st.product_primes):
        assert np.shares_memory(np.asarray(primes, dtype=np.int64), primes)


def test_reciprocal_sum_method():
    iv = sieve_interval(7.5, 15)
    assert tuple(iv.primes) == (11, 13)
    assert iv.reciprocal_sum() == Fraction(1, 11) + Fraction(1, 13)
    assert sieve_interval(13, 13).reciprocal_sum() == 0


def test_lambda_is_built_on_first_read(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("lambda was built")

    with monkeypatch.context() as patch:
        patch.setattr(PrimeInterval, "reciprocal_sum", refuse)
        assert enumerate_Qt(1, 2e6).size == 36960
        assert cli_main(["diagnose", "qt", "--y", "2e6", "--t", "1"]) == 0
    st = interval_stats(1000)
    lam = st.recip_sum
    assert lam == oracle_recip_sum(1000)
    assert st.recip_sum is lam


@pytest.mark.parametrize("y", [3, 30, 10**3, 10**5])
def test_split_lambda_matches_sequential_sum(y):
    st = interval_stats(y)
    sequential = sum((Fraction(1, q) for q in st.modulus_primes), Fraction(0))
    assert st.recip_sum == sequential == oracle_recip_sum(y)
    # distinct primes: the sum over their product is already in lowest terms
    assert st.recip_sum.denominator == math.prod(st.modulus_primes)


def test_reciprocal_sum_is_built_in_lowest_terms():
    # built from its parts without a gcd, lambda must still be a reduced
    # Fraction: equal to the summed one part for part, and usable as a value
    for y in range(4, 400, 3):
        lam = interval_stats(y).recip_sum
        want = oracle_recip_sum(y)
        assert (lam.numerator, lam.denominator) == (want.numerator, want.denominator)
        assert math.gcd(lam.numerator, lam.denominator) == 1 and lam.denominator > 0
        assert type(lam) is Fraction and hash(lam) == hash(want)
        assert lam * 2 - lam == want and Fraction(str(lam)) == want


def test_segment_crossing():
    # straddles the internal segment boundary at 2^21
    lo, hi = (1 << 21) - 60, (1 << 21) + 260
    assert list(sieve_interval(lo, hi).primes) == oracle_primes_in(lo, hi)


@pytest.mark.parametrize("segment", [1, 2, 3, 4, 5, 8, 13])
def test_segmented_sieve_matches_trial_division_across_segment_ends(segment, monkeypatch):
    # the base primes come from the same routine, in segments of this width too
    monkeypatch.setattr(pt, "_SEGMENT", segment)
    for first, last in [(0, 60), (2, 2), (3, 4), (90, 131), (117, 124), (997, 1031), (5, 4)]:
        segments = list(pt._sieve(first, last))
        assert len(segments) == len(range(max(first, 2), last + 1, segment))
        assert all(part.dtype == np.int64 for part in segments)
        got = [p for part in segments for p in part.tolist()]
        assert got == oracle_primes_in(first - 1, last)
    assert list(sieve_interval(100.5, 300).primes) == oracle_primes_in(100.5, 300)


def test_segmented_sieve_skips_a_base_prime_with_no_multiple_in_a_segment(monkeypatch):
    # 121..124: no multiple of 5 or 7 falls in it, yet 11 still strikes 121
    monkeypatch.setattr(pt, "_SEGMENT", 4)
    assert [part.tolist() for part in pt._sieve(117, 124)] == [[], []]


def test_is_prime_matches_oracle_small():
    for n in range(-3, 2000):
        assert is_prime(n) == oracle_is_prime(n), n


def test_is_prime_witness_values():
    # every Miller-Rabin base must itself test prime (n <= base regression)
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        assert is_prime(a)
    # Carmichael numbers and strong pseudoprimes
    assert not is_prime(561)
    assert not is_prime(41041)
    assert not is_prime(25326001)  # strong pseudoprime base 2, 3, 5
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) ** 2)
    # beyond the deterministic witness range the test refuses, never guesses
    with pytest.raises(CapacityError):
        is_prime(2**89 - 1)


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=80, deadline=None)
def test_factorize_round_trip(n):
    f = factorize(n)
    prod = 1
    for p, e in f.items():
        assert e >= 1
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    assert list(f) == sorted(f)


def test_factorize_small_goldens():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(10**6) == {2: 6, 5: 6}
    # squares and cubes of primes past the trial bound 2^10, and two primes
    # near 10^7: is_prime and rho take what trial division leaves
    past_trial = [p**e for p in (1031, 65537, 999983) for e in (2, 3)]
    for n in [*range(1, 600), *past_trial, 9999991**2, (10**7 - 9) * (10**7 + 19)]:
        assert factorize(n) == oracle_factorize(n)


def test_factorize_makes_no_numpy_pass_below_the_primality_range(monkeypatch):
    monkeypatch.setattr(pt, "_trial_divisors", Tripwire())
    assert factorize(99_999_999_999_973) == {99_999_999_999_973: 1}
    assert factorize((10**7 - 9) * (10**7 + 19)) == {10**7 - 9: 1, 10**7 + 19: 1}
    assert factorize(3**5 * 9999991**3) == {3: 5, 9999991: 3}


def test_factorize_divides_a_cofactor_past_the_primality_range_in_one_numpy_pass(monkeypatch):
    calls = []
    trial_divisors = pt._trial_divisors

    def spy(n):
        calls.append(n)
        return trial_divisors(n)

    monkeypatch.setattr(pt, "_trial_divisors", spy)
    assert factorize(3**5 * 1031**2 * 9999991**4) == {3: 5, 1031: 2, 9999991: 4}
    # the cofactor left by the primes below 2^10, which is_prime cannot certify
    assert calls == [1031**2 * 9999991**4] and calls[0] >= pt._MR_VALID_BELOW


def test_factorize_beyond_trial_bound():
    p, q = 1_000_000_007, 1_000_000_009
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p) == {p: 2}


@pytest.mark.parametrize(
    "factors",
    [
        {9999973: 1, 9999991: 2, 1_000_000_007: 1},  # primes just under the bound, one squared
        {2: 5, 3: 1, 9999991: 1, 10000019: 1},  # a prime just over it
        {10000019: 2},  # just past the bound squared: nothing to divide out
        {9999991: 3},
        {7: 2, 9999901: 1, 1_000_000_007: 1, 1_000_000_009: 1},
        {7: 30},  # trial division takes it all
        {7: 20, 3163: 1, 10000019: 1},  # rho splits what trial division leaves
    ],
)
def test_factorize_past_the_square_of_the_trial_bound(factors):
    n = math.prod(p**e for p, e in factors.items())
    assert n > pt.TRIAL_DIVISION_BOUND**2
    assert factorize(n) == factors


@pytest.mark.parametrize(
    "n",
    [2**32, 2**64 - 1, 3**200, 10**40 + 1, 9999991 * 2**96 * 3**5, (2**31 - 1) * 9999991 * 5**30],
    ids=["2^32", "2^64-1", "3^200", "10^40+1", "zero-limbs", "large-prime-factors"],
)
def test_trial_divisors_match_python_remainders(n):
    # Horner's rule over 32-bit limbs, with limbs of all ones and of zeros
    primes = pt._trial_primes().tolist()
    assert pt._trial_divisors(n) == [p for p in primes if n % p == 0]


def test_construct_past_the_trial_bound_still_refuses_the_cofactor(capsys):
    # u0 has 316 bits; with every prime up to 10^7 divided out, is_prime
    # refuses the 196-bit cofactor that is left
    assert cli_main(["construct", "--y", "5", "--k", "200", "--ell", "1"]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "capacity"
    assert "beyond the deterministic primality range" in error["message"]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValidationError):
        factorize(0)
    with pytest.raises(ValidationError):
        factorize(-6)


def test_sieve_capacity_env(monkeypatch):
    monkeypatch.setenv("SUNIT_MAX_SIEVE", "1000")
    assert sieve_limit() == 1000
    with pytest.raises(CapacityError):
        sieve_interval(10, 2000)
    monkeypatch.delenv("SUNIT_MAX_SIEVE")
    assert sieve_limit() == DEFAULT_SIEVE_LIMIT


def test_sieve_explicit_limit_overrides(monkeypatch):
    monkeypatch.setenv("SUNIT_MAX_SIEVE", "500")
    with pytest.raises(CapacityError):
        sieve_interval(10, 2000)
    monkeypatch.setenv("SUNIT_MAX_SIEVE", "5000")
    assert sieve_interval(10, 2000).primes[0] == 11
