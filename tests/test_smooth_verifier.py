import pytest
from hypothesis import given, settings, strategies as st

from sunitlab.constructor import run_construction
from sunitlab.errors import CapacityError, ValidationError, VerificationError
import sunitlab.prime_tools as pt
import sunitlab.smooth_verifier as sv
from sunitlab.smooth_verifier import (
    SmoothPair,
    enumerate_smooth_pairs,
    factor_over,
    verify_solution,
)

from oracles import (
    oracle_primes_in,
    oracle_sieved_smooth_pairs,
    oracle_smooth_pairs,
    oracle_stormer_pairs,
)
from test_capacity import Tripwire

S9 = (2, 3, 5, 11, 13, 17, 19, 23, 29)
PRIMES_TO_100 = tuple(oracle_primes_in(1, 100))
INT64_MAX = 2**63 - 1


def test_smooth_pair_requires_consecutive():
    with pytest.raises(ValidationError):
        SmoothPair(a=5, c=7, factorization_a={5: 1}, factorization_c={7: 1})


def test_factor_over_basics():
    assert factor_over(1, (2, 3)) == {}
    assert factor_over(12, (2, 3)) == {2: 2, 3: 1}
    assert factor_over(12, (2, 5)) is None  # 3 remains
    assert factor_over(390, S9) == {2: 1, 3: 1, 5: 1, 13: 1}


@given(
    exps=st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_factor_over_round_trip(exps):
    primes = (2, 3, 7, 13)
    n = 1
    expected = {}
    for p, e in zip(primes, exps):
        n *= p**e
        if e:
            expected[p] = e
    assert factor_over(n, primes) == expected
    # one extra prime outside the set spoils it
    assert factor_over(n * 101, primes) is None


def test_verify_solution_certificates():
    good = verify_solution(390, S9)
    assert good.ok
    assert good.factorization_a == {2: 1, 3: 1, 5: 1, 13: 1}
    assert good.factorization_c == {17: 1, 23: 1}

    bad = verify_solution(20, (2, 3, 5))  # 21 = 3 * 7 escapes
    assert not bad.ok
    assert bad.factorization_a is None and bad.factorization_c is None

    with pytest.raises(ValidationError):
        verify_solution(0, S9)


def test_prime_set_is_validated():
    with pytest.raises(ValidationError):
        verify_solution(10, (2, 4))
    with pytest.raises(ValidationError):
        enumerate_smooth_pairs((6, 35), 100)


def test_prime_set_is_validated_once_per_set(monkeypatch):
    tested = []

    def counted(n):
        tested.append(n)
        return pt.is_prime(n)

    monkeypatch.setattr(sv, "is_prime", counted)
    sv._validated.cache_clear()
    assert len(enumerate_smooth_pairs(S9, 10**4)) > 1
    assert sorted(tested) == list(S9)
    tested.clear()
    # the same set, in any order and with repeats, is not checked again
    assert verify_solution(390, S9).ok
    assert factor_over(390, S9[::-1] + S9) == {2: 1, 3: 1, 5: 1, 13: 1}
    assert tested == []
    assert verify_solution(390, S9 + (31,)).ok
    assert sorted(tested) == sorted(S9 + (31,))


def test_sieve_and_division_disagreeing_is_a_verification_error():
    # 6 = 2 * 3 is not {2}-smooth: an enumeration that listed it has a bug
    with pytest.raises(VerificationError):
        sv._build_pair(6, (2,))


def test_enumerate_goldens():
    assert [p.a for p in enumerate_smooth_pairs((2, 3), 100)] == [1, 2, 3, 8]
    assert [p.a for p in enumerate_smooth_pairs((2, 3, 5), 10**4)] == [
        1, 2, 3, 4, 5, 8, 9, 15, 24, 80,
    ]
    assert len(enumerate_smooth_pairs(S9, 500)) == 70
    assert enumerate_smooth_pairs((), 100) == []


@given(
    mask=st.integers(min_value=1, max_value=63),
    limit=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=50, deadline=None)
def test_enumerate_matches_oracle(mask, limit):
    pool = (2, 3, 5, 7, 11, 13)
    primes = tuple(p for i, p in enumerate(pool) if mask >> i & 1)
    got = [(sp.a, sp.c) for sp in enumerate_smooth_pairs(primes, limit)]
    assert got == oracle_smooth_pairs(list(primes), limit + 1)


def test_enumerate_pairs_carry_true_factorizations():
    for sp in enumerate_smooth_pairs(S9, 500):
        na = 1
        for p, e in sp.factorization_a.items():
            assert p in S9
            na *= p**e
        nc = 1
        for p, e in sp.factorization_c.items():
            assert p in S9
            nc *= p**e
        assert (na, nc) == (sp.a, sp.c)


def test_enumerate_monotone_in_limit_and_set():
    small = {(p.a, p.c) for p in enumerate_smooth_pairs((2, 3, 5), 200)}
    bigger_limit = {(p.a, p.c) for p in enumerate_smooth_pairs((2, 3, 5), 2000)}
    assert small <= bigger_limit
    bigger_set = {(p.a, p.c) for p in enumerate_smooth_pairs((2, 3, 5, 7), 200)}
    assert small <= bigger_set


def test_enumerate_crosses_window_boundary():
    # the largest pair for {2,3,5,7} is (4374, 4375); a scan far past it
    # finds exactly the same list
    short = [(p.a, p.c) for p in enumerate_smooth_pairs((2, 3, 5, 7), 5000)]
    long = [(p.a, p.c) for p in enumerate_smooth_pairs((2, 3, 5, 7), (1 << 20) + 50)]
    assert short == long
    assert short[-1] == (4374, 4375)


@pytest.mark.parametrize(
    "primes,limit,count",
    [
        ((2, 3), 100, 4),
        ((2, 3, 5), 10**4, 10),
        (S9, 1000, 83),
        (PRIMES_TO_100, 10**7, 7405),
    ],
    ids=["criterion-09-small", "criterion-09-medium", "criterion-09-s9", "primes-to-100"],
)
def test_enumerate_matches_the_sieve(primes, limit, count):
    got = [(sp.a, sp.c) for sp in enumerate_smooth_pairs(primes, limit)]
    assert len(got) == count
    assert got == oracle_sieved_smooth_pairs(primes, limit)


@pytest.mark.parametrize("y,k,limit", [(30, 2, 1000), (1000, 3, 10**5), (2000, 2, 10**6)])
def test_enumerate_matches_the_sieve_on_the_construct_benchmark_sets(y, k, limit):
    primes = run_construction(y, k, 1).result.prime_set
    got = [(sp.a, sp.c) for sp in enumerate_smooth_pairs(primes, limit)]
    assert got == oracle_sieved_smooth_pairs(primes, limit)


@pytest.mark.parametrize(
    "size,count,largest",
    [(2, 4, 8), (3, 10, 80), (4, 23, 4374), (5, 40, 9800), (6, 68, 123200)],
)
def test_enumerate_matches_stormer_at_the_int64_height(size, count, largest):
    primes = (2, 3, 5, 7, 11, 13)[:size]
    got = [(sp.a, sp.c) for sp in enumerate_smooth_pairs(primes, INT64_MAX - 1)]
    assert got == oracle_stormer_pairs(primes)
    assert (len(got), got[-1][0]) == (count, largest)


def test_enumerate_skips_primes_above_the_limit():
    want = [(1, 2), (2, 3), (3, 4), (8, 9)]
    mersenne = 2**61 - 1
    past_int64 = 2**64 + 13  # the least prime past 2^64
    for big in (mersenne, past_int64):
        got = [(sp.a, sp.c) for sp in enumerate_smooth_pairs((2, 3, big), 100)]
        assert got == want
    # below the limit it counts: M61 * 4 = 2^63 - 4 is formed without overflow
    got = [(sp.a, sp.c) for sp in enumerate_smooth_pairs((2, 3, mersenne, past_int64), INT64_MAX - 1)]
    assert got == want + [(mersenne, mersenne + 1)]


def test_enumerate_capacity(monkeypatch):
    with pytest.raises(ValidationError):
        enumerate_smooth_pairs((2, 3), 0)
    # a + 1 must fit int64
    assert len(enumerate_smooth_pairs((2,), INT64_MAX - 1)) == 1
    with pytest.raises(CapacityError, match=str(INT64_MAX + 1)):
        enumerate_smooth_pairs((2,), INT64_MAX)
    # Psi(1001, {2, 3}) is counted as it grows: 10 powers of 2, then 9 of
    # them times 3 pass the cap of 10 before any pair is built
    monkeypatch.setattr(sv, "SMOOTH_COUNT_LIMIT", 10)
    monkeypatch.setattr(sv, "_build_pair", Tripwire())
    with pytest.raises(CapacityError, match=r"at least 19, over the cap 10"):
        enumerate_smooth_pairs((2, 3), 1000)


def test_enumerate_capacity_env(monkeypatch):
    # SUNIT_MAX_SIEVE bounds the prime sieve only
    monkeypatch.setenv("SUNIT_MAX_SIEVE", "500")
    assert [p.a for p in enumerate_smooth_pairs((2, 3), 1000)] == [1, 2, 3, 8]
    monkeypatch.setattr(sv, "SMOOTH_COUNT_LIMIT", 18)
    monkeypatch.setattr(sv, "_build_pair", Tripwire())
    with pytest.raises(CapacityError, match=r"at least 19, over the cap 18"):
        enumerate_smooth_pairs((2, 3), 1000)
