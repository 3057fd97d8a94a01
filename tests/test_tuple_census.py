import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sunitlab.monte_carlo as mc
import sunitlab.tuple_census as tc
from sunitlab.constructor import solve_congruence_pairs
from sunitlab.errors import CapacityError, ValidationError
from sunitlab.prime_tools import interval_stats
from sunitlab.tuple_census import (
    CensusParams,
    congruence_solutions,
    count_direct,
    count_exact,
    count_sampled,
    error_term,
    main_term,
    representation_counts,
)

from oracles import (
    oracle_census,
    oracle_congruence_pairs,
    oracle_multisets,
    oracle_rep_counts,
    oracle_sampled_hits,
)
from test_capacity import Tripwire


def test_params_validation():
    with pytest.raises(ValidationError):
        CensusParams(30, 1, 2)  # ell > k
    with pytest.raises(ValidationError):
        CensusParams(30, 0, 0)
    with pytest.raises(ValidationError):
        CensusParams(1.2, 1, 1)
    # k = 2 is far outside y^(1/3)/(log y)^2 at y = 30; flag vs hard failure
    assert not CensusParams(30, 2, 1).in_hypothesis
    with pytest.raises(ValidationError):
        CensusParams(30, 2, 1, enforce_range=True)


def test_k_bound_value():
    p = CensusParams(1000.0, 1, 1)
    assert p.k_bound() == pytest.approx(1000 ** (1 / 3) / math.log(1000) ** 2)


def test_main_term_golden():
    # lambda = 1/11 + 1/13 = 24/143, P = 4 at y = 30
    assert main_term(CensusParams(30, 2, 1)) == Fraction(24, 143) * 16
    assert main_term(CensusParams(20, 1, 1)) == Fraction(1, 7) * 4
    assert main_term(CensusParams(30, 2, 2)) == Fraction(24, 143) ** 2 * 16


def test_error_term_regime_and_values():
    et = error_term(CensusParams(30, 2, 1))
    assert et.applicable  # k/4 <= l <= k/2 at (2, 1)
    # 1^(2-1) * (4 * 24/143 * 4)^1 * 30^1
    assert et.exact == Fraction(384, 143) * 30
    assert et.value == pytest.approx(float(Fraction(11520, 143)))
    assert et.note == ""

    na = error_term(CensusParams(30, 2, 2))
    assert not na.applicable  # l > k/2
    assert na.note != ""

    na2 = error_term(CensusParams(30, 5, 1))
    assert not na2.applicable  # l < k/4

    odd = error_term(CensusParams(30, 3, 1))
    assert odd.exact is None  # y^(3/2) irrational, float only
    assert odd.value == pytest.approx(float(Fraction(384, 143)) * 30**1.5)


def test_count_exact_goldens():
    assert count_exact(CensusParams(30, 1, 1)).count == 1
    assert count_exact(CensusParams(30, 2, 1)).count == 5
    assert count_exact(CensusParams(20, 1, 1)).count == 0


@pytest.mark.parametrize("y", [12, 20, 30, 40])
@pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_count_exact_matches_bruteforce(y, k, ell):
    got = count_exact(CensusParams(y, k, ell)).count
    assert got == oracle_census(y, k, ell)


@given(
    y=st.sampled_from([10, 14, 22, 26, 34, 44, 52]),
    k=st.integers(1, 3),
    ell=st.integers(1, 2),
)
@settings(max_examples=40, deadline=None)
def test_count_methods_agree(y, k, ell):
    if ell > k:
        ell = k
    params = CensusParams(y, k, ell)
    a = count_exact(params)
    b = count_direct(params)
    assert a.count == b.count
    assert a.method == "residue-dp"
    assert b.method == "direct"


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_census_over_shuffle_invariance(seed):
    stats = interval_stats(40)
    p_list, q_list = list(stats.product_primes), list(stats.modulus_primes)
    baseline = congruence_solutions(tuple(p_list), tuple(q_list), 2, 2)
    rng = random.Random(seed)
    rng.shuffle(p_list)
    rng.shuffle(q_list)
    assert congruence_solutions(tuple(p_list), tuple(q_list), 2, 2) == baseline


def test_empty_interval_flag():
    # y = 3: no primes in (0.75, 1.5], so the modulus range is empty
    res = count_exact(CensusParams(3, 1, 1))
    assert res.empty_interval
    assert res.count == 0
    assert res.main_term == 0
    assert res.ratio is None


def test_ratio_against_main_term():
    res = count_exact(CensusParams(30, 2, 1))
    assert res.ratio == pytest.approx(5 / float(Fraction(384, 143)))
    assert not res.in_hypothesis


def test_sampled_reference_point_within_three_sigma():
    res = count_sampled(CensusParams(30, 2, 1), samples=10**5, seed=1)
    assert res.method == "sampled"
    assert res.std_error is not None and res.std_error > 0
    assert abs(res.count - 5) <= 3 * res.std_error


def test_sampled_deterministic_per_seed():
    a = count_sampled(CensusParams(30, 2, 1), samples=2000, seed=7)
    b = count_sampled(CensusParams(30, 2, 1), samples=2000, seed=7)
    c = count_sampled(CensusParams(30, 2, 1), samples=2000, seed=8)
    assert (a.count, a.std_error) == (b.count, b.std_error)
    assert (a.count, a.std_error) != (c.count, c.std_error)


def test_sampled_record_of_criterion_10_is_pinned():
    # the record `census --y 30 --k 2 --ell 1 --samples 3000 --seed 42` prints
    res = count_sampled(CensusParams(30, 2, 1), samples=3000, seed=42)
    assert (res.count, res.std_error) == (4.768, 0.20804020124325331)


SEEDS = [0, 1, 42, -5, 2**40 + 3]


@pytest.mark.parametrize("y", [10, 30, 100, 1000])
@pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (3, 3)])
def test_sampled_hits_match_the_per_sample_loop(k, ell, y):
    # at y = 30 both lists hold a power of two of primes (4 and 2), so half
    # of all words are rejected
    stats = interval_stats(y)
    lists = (stats.product_primes, stats.modulus_primes, k, ell)
    for seed in SEEDS:
        for samples in (1, 7):
            assert mc._sampled_hits(*lists, samples, seed) == oracle_sampled_hits(*lists, samples, seed)
    # one seed per case over many blocks of words
    seed = SEEDS[(k + ell + y) % len(SEEDS)]
    assert mc._sampled_hits(*lists, 30000, seed) == oracle_sampled_hits(*lists, 30000, seed)


@pytest.mark.parametrize("block", [4, 64, 12, 100])
@pytest.mark.parametrize("k,ell", [(2, 1), (4, 2), (3, 3), (1, 1), (12, 1)])
def test_sampled_hits_carry_tuples_across_blocks(k, ell, block, monkeypatch):
    # with 4 words a block, tuples at y = 30 span several blocks; 4 and 12
    # words are under one 8-word chunk, or not a whole number of them
    monkeypatch.setattr(mc, "_DRAW_BLOCK", block)
    stats = interval_stats(30)
    lists = (stats.product_primes, stats.modulus_primes, k, ell)
    for seed in SEEDS:
        assert mc._sampled_hits(*lists, 500, seed) == oracle_sampled_hits(*lists, 500, seed)


@pytest.mark.parametrize("k,ell", [(56, 8), (57, 8), (200, 1), (150, 150)])
def test_sampled_hits_walk_long_tuples_one_at_a_time(k, ell):
    # past _CHAIN_DRAWS = 40 draws a tuple is walked, not parsed by the draw machine
    stats = interval_stats(30)
    lists = (stats.product_primes, stats.modulus_primes, k, ell)
    for seed in SEEDS:
        assert mc._sampled_hits(*lists, 200, seed) == oracle_sampled_hits(*lists, 200, seed)


def test_sampled_hits_past_int64():
    # y = 1000, ell = 6: 499^6 * 997 passes 2^63, so products are Python ints
    stats = interval_stats(1000)
    lists = (stats.product_primes, stats.modulus_primes, 6, 6)
    assert mc._sampled_hits(*lists, 2000, 3) == oracle_sampled_hits(*lists, 2000, 3)
    # m = 2^64 always; r is +-1 mod m, so about half of all samples hit
    lists = ((2**64 - 1, 2**64 + 1, 2**65 + 1, 3 * 2**64 + 1), (2,), 3, 64)
    hits = mc._sampled_hits(*lists, 3000, 1)
    assert 1000 < hits < 2000
    assert hits == oracle_sampled_hits(*lists, 3000, 1)


@pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (3, 3), (31, 1)])
def test_draw_tables_run_the_machine_word_by_word(k, ell):
    after, taken = mc._draw_tables(k, ell)
    assert after.dtype == taken.dtype == np.uint8
    assert after.shape == taken.shape == (256, k + ell)
    for pattern in range(256):
        for start in range(k + ell):
            state, mask = start, 0
            for j in range(4):
                picks_q, picks_p = pattern >> 7 - j & 1, pattern >> 3 - j & 1
                if (picks_q if state < ell else picks_p):
                    mask |= 1 << 3 - j
                    state = (state + 1) % (k + ell)
            assert (after[pattern, start], taken[pattern, start]) == (state, mask)


def test_sampled_hits_end_mid_chunk():
    # the words the per-sample loop reads, from the Mersenne Twister's index
    # (under 624, so it has not wrapped); the last tuple of most counts ends
    # inside an 8-word chunk, whose later words must not count
    stats = interval_stats(30)
    lists = (stats.product_primes, stats.modulus_primes, 2, 1)
    ends = set()
    for samples in range(1, 41):
        rng = random.Random(5)
        for _ in range(samples):
            rng.choice(stats.modulus_primes)
            rng.choice(stats.product_primes)
            rng.choice(stats.product_primes)
        ends.add(rng.getstate()[1][-1] % 8)
        assert mc._sampled_hits(*lists, samples, 5) == oracle_sampled_hits(*lists, samples, 5)
    assert len(ends) == 8


@pytest.mark.parametrize("k,ell", [(20, 4), (30, 10)])
def test_sampled_hits_carry_one_tuple_across_many_blocks(k, ell, monkeypatch):
    # at y = 30 half of all words are rejected, so a tuple of 24 or 40 draws
    # takes about 48 or 80 words: 12 or 20 blocks of 4
    monkeypatch.setattr(mc, "_DRAW_BLOCK", 4)
    stats = interval_stats(30)
    lists = (stats.product_primes, stats.modulus_primes, k, ell)
    for seed in SEEDS:
        assert mc._sampled_hits(*lists, 40, seed) == oracle_sampled_hits(*lists, 40, seed)


@pytest.mark.parametrize("extra,parsed", [(0, True), (1, False)])
def test_sampled_hits_at_the_longest_parsed_tuple(extra, parsed, monkeypatch):
    built, tables = [], mc._draw_tables
    monkeypatch.setattr(mc, "_draw_tables", lambda k, ell: built.append(k + ell) or tables(k, ell))
    for y in (30, 100):
        stats = interval_stats(y)
        lists = (stats.product_primes, stats.modulus_primes, mc._CHAIN_DRAWS - 8 + extra, 8)
        for seed in SEEDS:
            assert mc._sampled_hits(*lists, 200, seed) == oracle_sampled_hits(*lists, 200, seed)
    assert built == ([mc._CHAIN_DRAWS] * 2 * len(SEEDS) if parsed else [])


@pytest.mark.parametrize("block", [12, 100, mc._DRAW_BLOCK])
@pytest.mark.parametrize("k,ell", [(6, 6), (8, 7)])
def test_sampled_hits_parse_python_int_residues(k, ell, block, monkeypatch):
    # y = 1000: 499^6 * 997 passes 2^63, so the parsed residues are objects
    monkeypatch.setattr(mc, "_DRAW_BLOCK", block)
    stats = interval_stats(1000)
    lists = (stats.product_primes, stats.modulus_primes, k, ell)
    for seed in SEEDS[:3]:
        assert mc._sampled_hits(*lists, 300, seed) == oracle_sampled_hits(*lists, 300, seed)


def test_sampled_validation():
    with pytest.raises(ValidationError):
        count_sampled(CensusParams(30, 2, 1), samples=0, seed=1)


def test_sampled_empty_interval():
    res = count_sampled(CensusParams(3, 1, 1), samples=10, seed=1)
    assert res.empty_interval and res.count == 0.0 and res.std_error == 0.0


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("y", [20, 30, 40, 60])
def test_representation_count_identities(t, y):
    stats = interval_stats(y)
    table = representation_counts(t, y)
    assert table.total == stats.prime_count**t
    assert table.max_count <= math.factorial(t)
    assert table.counts.dtype == np.int64 and len(table.products) == len(table.counts)


@pytest.mark.parametrize("t,y", [(1, 30), (2, 30), (2, 40), (3, 20)])
def test_representation_counts_match_oracle(t, y):
    table = representation_counts(t, y)
    assert dict(zip(table.products.tolist(), table.counts.tolist())) == dict(oracle_rep_counts(t, y))


def test_representation_counts_capacity(monkeypatch):
    import sunitlab.tuple_census as tc

    monkeypatch.setattr(tc, "REPRESENTATION_LIMIT", 10)
    with pytest.raises(CapacityError):
        representation_counts(3, 60)
    with pytest.raises(ValidationError):
        representation_counts(0, 30)


def test_direct_capacity(monkeypatch):
    # direct enumeration must refuse rather than grind: force a tiny budget
    import sunitlab.tuple_census as tc

    monkeypatch.setattr(tc, "DIRECT_OP_LIMIT", 100)
    with pytest.raises(CapacityError):
        count_direct(CensusParams(60, 3, 2))


def _reference_fold(p_primes, k, m):
    """The Python Counter fold the numpy fold replaced; p_primes coprime to m.

    Folds the residue distribution of one factor k-1 times and reads the last
    fold off through one pow(s, -1, m) per residue.
    """
    base = Counter(p % m for p in p_primes)
    if k == 1:
        return base.get(1 % m, 0)
    dist = base
    for _ in range(k - 2):
        nxt = Counter()
        for r, c in dist.items():
            for s, d in base.items():
                nxt[r * s % m] += c * d
        dist = nxt
    return sum(d * dist.get(pow(s, -1, m), 0) for s, d in base.items())


@pytest.mark.parametrize("y", [12, 30, 60, 150, 300])
@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_numpy_fold_matches_reference_fold(y, k, ell):
    st = interval_stats(y)
    # every modulus prime while they make at most 40 multisets, else primes
    # spread evenly until they do: the reference is slow at y = 300
    step = 1
    while math.comb(len(st.modulus_primes[::step]) + ell - 1, ell) > 40:
        step += 1
    q_primes = st.modulus_primes[::step]
    want = sum(w * _reference_fold(st.product_primes, k, m) for m, _c, w in oracle_multisets(q_primes, ell))
    assert tc._count_by_fold(st.product_primes, q_primes, k, ell) == want, q_primes


def test_quotient_plan_in_slices_matches_reference(monkeypatch):
    # slices of 5 k-products take one first index at a time: 7 slices at
    # (60, 2, 2) and 14 at (150, 3, 3), each passed over every quotient
    monkeypatch.setattr(tc, "_FOLD_CHUNK", 5)
    _run_plan(monkeypatch, "quotient")
    for y, k in ((60, 2), (150, 3)):
        st = interval_stats(y)
        want = sum(
            w * _reference_fold(st.product_primes, k, m)
            for m, _c, w in oracle_multisets(st.modulus_primes, k)
        )
        assert congruence_solutions(st.product_primes, st.modulus_primes, k, k) == want, y
        moduli = list(combinations_with_replacement(st.modulus_primes, k))
        pairs = [(r, m) for *_, r, m in oracle_congruence_pairs(st.product_primes, moduli, k)]
        got = tc.congruence_solutions(st.product_primes, st.modulus_primes, k, k, listing=True)
        assert _listed(st.product_primes, st.modulus_primes, got) == pairs, y


def test_fold_exact_past_int64():
    st = interval_stats(30)
    got = congruence_solutions(st.product_primes, st.modulus_primes, 40, 1)
    assert got == 221636398685820811511780 > 2**63
    assert got == sum(_reference_fold(st.product_primes, 40, q) for q in st.modulus_primes)


@pytest.mark.parametrize(
    "p_primes,q_primes,k,ell",
    [
        ((11, 13), (11,), 2, 1),  # a prime in both lists
        ((11, 23), (11,), 1, 1),
        ((3, 7, 13), (3, 5), 2, 2),
        ((7, 7, 13), (5,), 3, 1),  # a prime listed twice
        ((7, 13, 19), (3, 5, 3), 2, 2),
        ((7, 13, 19), (3, 5), 1, 2),  # ell > k
        ((7, 13, 19), (3, 5), 2, 0),  # ell < 1
        ((), (3,), 1, 2),  # refused before the empty list returns
        ((2**63 + 29,), (2**63 + 29,), 1, 1),  # past int64
    ],
)
def test_engine_refuses_shared_or_repeated_primes_and_ell_past_k(p_primes, q_primes, k, ell, monkeypatch):
    for engine in ("_plan", "_count_by_blocks", "_count_by_fold", "_matches_by_quotient"):
        monkeypatch.setattr(tc, engine, Tripwire())
    for listing in (False, True):
        with pytest.raises(ValidationError):
            congruence_solutions(p_primes, q_primes, k, ell, listing=listing)


def test_engine_checks_its_input_without_a_python_set(monkeypatch):
    st = interval_stats(10**5)
    monkeypatch.setattr(tc, "set", Tripwire(), raising=False)
    assert congruence_solutions(st.product_primes, st.modulus_primes, 2, 1) == 1_311_552
    count = congruence_solutions(st.product_primes, st.modulus_primes, 1, 1)
    r_rows, m_rows, products, moduli = congruence_solutions(st.product_primes, st.modulus_primes, 1, 1, listing=True)
    assert count > 0 and len(r_rows) == len(m_rows) == count
    assert ((products - 1) % moduli == 0).all()


@pytest.mark.parametrize(
    "primes",
    [(2**53 + 5,), (2**60 + 33, 2**60 + 91), (2**63 + 29,)],
    ids=["past-2^53", "one-double", "past-int64"],
)
def test_engine_keeps_large_primes_beside_an_empty_list_exact(primes, monkeypatch):
    # 2^60 + 33 and 2^60 + 91 are primes that round to the same float64
    monkeypatch.setattr(tc, "_plan", Tripwire())
    for p_primes, q_primes in ((primes, ()), ((), primes)):
        assert congruence_solutions(p_primes, q_primes, 1, 1) == 0
        assert all(len(column) == 0 for column in congruence_solutions(p_primes, q_primes, 1, 1, listing=True))


def test_engine_tells_apart_primes_that_share_a_double():
    assert float(2**60 + 33) == float(2**60 + 91)
    assert congruence_solutions((2**60 + 91,), (2**60 + 33,), 1, 1) == 0


def test_a_pass_is_charged_once_whatever_the_width_of_the_count(monkeypatch):
    # y = 12: P = {7, 11}.  The counts pass 64 bits, and the k - 2 passes of
    # the one group of moduli are no longer charged once per word
    monkeypatch.setattr(tc, "_count_by_blocks", Tripwire())
    st = interval_stats(12)
    for k, ell in ((1000, 6), (2371, 5)):
        assert tc._plan(st.product_primes, st.modulus_primes, k, ell, False) == "modulus"
    st = interval_stats(10)  # P = {7}: 9,998 passes alone pass the cap
    with pytest.raises(CapacityError):
        tc._plan(st.product_primes, st.modulus_primes, 10000, 6, False)


@pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (3, 3)])
def test_engine_answers_an_empty_list_without_a_plan(k, ell, monkeypatch):
    # y < 4 leaves (y/4, y/2] without a prime
    monkeypatch.setattr(tc, "_plan", Tripwire())
    assert congruence_solutions((2, 3), (), k, ell) == 0
    r_rows, m_rows, products, moduli = congruence_solutions((2, 3), (), k, ell, listing=True)
    assert (r_rows.shape, m_rows.shape, products.shape, moduli.shape) == ((0, k), (0, ell), (0,), (0,))


def test_fold_capacity(monkeypatch):
    # the count must refuse rather than grind: force a tiny budget.  At
    # (1000, 3, 1) the blocks estimate less than the fold, and the refusal
    # names them: 42 moduli x (1 multiply-mod + 1 pass of gathers) x C(74, 2)
    # pairs of the 73 residues, against the fold's 73 x 15706
    import sunitlab.tuple_census as tc

    monkeypatch.setattr(tc, "FOLD_OP_LIMIT", 10)
    st = interval_stats(1000)
    for engine in ("_multiset_rows", "_count_by_blocks", "_count_by_fold"):
        monkeypatch.setattr(tc, engine, Tripwire())
    with pytest.raises(CapacityError, match="residue products by blocks over the 1-prime moduli: 226884,"):
        congruence_solutions(st.product_primes, st.modulus_primes, 3, 1)


def test_modulus_limit_refused_before_any_fold(monkeypatch):
    # the largest modulus 1499^3 > 2^31 comes last in multiset order
    import sunitlab.tuple_census as tc

    def no_folds(*args):
        raise AssertionError("a residue fold ran before the refusal")

    monkeypatch.setattr(tc, "_count_by_fold", no_folds)
    monkeypatch.setattr(tc, "_count_by_blocks", no_folds)
    st = interval_stats(3000)
    with pytest.raises(CapacityError, match=str(1499**3)):
        congruence_solutions(st.product_primes, st.modulus_primes, 4, 3)  # k != ell: no plan by quotient


# ------------------------------------------------------------ k = 2 by blocks


@pytest.mark.parametrize(
    "moduli",
    [
        [7],  # one modulus
        [7, 11, 13, 17, 19],
        [9, 15, 25, 2 * 3 * 5 * 7, 1024],  # composite moduli
        [2**31 - 1, 2**31 - 19, 2**31 - 2, 2**31 - 9],  # just under MODULUS_LIMIT
        # uint32, the blocks' width for moduli below 2^16, up to the largest
        # prime and the largest integer below it
        pytest.param(np.array([7, 11, 13, 17, 19], dtype=np.uint32), id="uint32-small"),
        pytest.param(np.array([65521, 65519, 2**16 - 1, 2**16 - 2, 2**15 + 3], dtype=np.uint32), id="uint32-top"),
    ],
)
@pytest.mark.parametrize("entries", [1, 2, 3, 5, 8, 13, 33, 64])
def test_tree_inverses_match_pow(moduli, entries):
    dtype = getattr(moduli, "dtype", np.int64)
    moduli = [int(q) for q in moduli]
    rng = random.Random(len(moduli) * 100 + entries)
    rows = [[] for _ in moduli]
    for row, m in zip(rows, moduli):
        while len(row) < entries:
            u = rng.randrange(1, m)
            if math.gcd(u, m) == 1:
                row.append(u)
    r = np.array(rows, dtype=dtype)
    m = np.array(moduli, dtype=dtype)[:, None]
    got = tc._tree_inverses(r, m)
    assert got.dtype == dtype
    assert got.tolist() == [[pow(u, -1, q) for u in row] for row, q in zip(rows, moduli)]
    assert r.tolist() == rows  # the residues are left as they were


@pytest.mark.parametrize("block", [1 << 15, 1, 20])
@pytest.mark.parametrize("y", [12, 30, 60, 150, 300])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_k2_blocks_match_reference_fold(y, ell, block, monkeypatch):
    # block 1 gives one modulus per block; 20 gives 2 to 10 at y <= 60, with a
    # short last block; 2^15 gives one block
    monkeypatch.setattr(tc, "_BLOCK_ELEMENTS", block)
    st = interval_stats(y)
    want = sum(
        w * _reference_fold(st.product_primes, 2, m)
        for m, _c, w in oracle_multisets(st.modulus_primes, ell)
    )
    assert tc._count_by_blocks(st.product_primes, st.modulus_primes, 2, ell) == want


def test_k2_blocks_gather_every_partner_over_a_wide_span(monkeypatch):
    # moduli 2, 3 (ell = 1) and 4, 6, 9 (ell = 2) against P spanning 992:
    # g = 992 // 2 + 1 = 497 gathers, where the CLI intervals need at most 2
    p_primes, q_primes = (5, 7, 11, 13, 17, 101, 103, 997), (2, 3)
    for ell in (1, 2):
        want = sum(
            1 for qs in itertools.product(q_primes, repeat=ell)
            for p1, p2 in itertools.product(p_primes, repeat=2) if p1 * p2 % math.prod(qs) == 1
        )
        assert congruence_solutions(p_primes, q_primes, 2, ell) == want
    # the estimate: 2 moduli x 8 residues x ceil(497 / 2) passes
    monkeypatch.setattr(tc, "FOLD_OP_LIMIT", 10)
    with pytest.raises(CapacityError, match=r"\b3984\b"):
        congruence_solutions(p_primes, q_primes, 2, 1)


def _spy_widths(monkeypatch) -> list:
    """The residue dtype of every _tree_inverses call from here on."""
    widths, tree = [], tc._tree_inverses

    def spied(r, m):
        widths.append(r.dtype)
        return tree(r, m)

    monkeypatch.setattr(tc, "_tree_inverses", spied)
    return widths


@pytest.mark.parametrize(
    "y,k,ell,width",
    [
        (511, 2, 2, np.uint32),  # largest modulus 251^2 = 63,001
        (520, 2, 2, np.int64),  # 257^2 = 66,049
        (511, 3, 2, np.uint32),  # the unreduced last product plus its shift: < 63,001^2 + 63,001
        (1.3e5, 2, 1, np.uint32),  # 64,997
        (1.32e5, 2, 1, np.int64),  # 65,993
    ],
)
def test_blocks_count_and_list_either_side_of_the_uint32_switch(y, k, ell, width, monkeypatch):
    st = interval_stats(y)
    p_primes, q_primes = st.product_primes, st.modulus_primes[-3:]  # the largest moduli set the width
    widths = _spy_widths(monkeypatch)
    want = sum(w * _reference_fold(p_primes, k, m) for m, _c, w in oracle_multisets(q_primes, ell))
    assert tc._count_by_blocks(p_primes, q_primes, k, ell) == want
    _run_plan(monkeypatch, "modulus")
    r_rows, m_rows, *columns = tc.congruence_solutions(p_primes, q_primes, k, ell, listing=True)
    assert set(widths) == {np.dtype(width)}
    listed = _listed(p_primes, q_primes, (r_rows, m_rows, *columns))
    if len(p_primes) < 100:  # the pair loop takes C(|P| + k - 1, k) steps per modulus
        moduli = list(combinations_with_replacement(q_primes, ell))
        assert listed == [(r, m) for *_, r, m in oracle_congruence_pairs(p_primes, moduli, k)]
    else:  # each listed pair solves r == 1 (mod m), once, and they make up the count
        assert all(math.prod(r) % math.prod(m) == 1 for r, m in listed)
        assert len(set(listed)) == len(listed) > 0
        assert tc._ordered_count(r_rows, m_rows, np.int64) == want


def test_census_at_1e5_runs_on_uint32(monkeypatch):
    # the benchmark's largest exact census: every modulus below 2^16
    widths = _spy_widths(monkeypatch)
    st = interval_stats(1e5)
    assert congruence_solutions(st.product_primes, st.modulus_primes, 2, 1) == 1311552
    assert set(widths) == {np.dtype(np.uint32)}


# ------------------------------------------------------------ k >= 3 by blocks


def _brute_census(p_primes, q_primes, k, ell):
    """Every ordered tuple of list entries, a repeated prime once per entry."""
    return sum(
        1 for qs in itertools.product(q_primes, repeat=ell)
        for ps in itertools.product(p_primes, repeat=k) if math.prod(ps) % math.prod(qs) == 1
    )


@pytest.mark.parametrize(
    "k,ell,y",
    [(k, ell, y) for k in (3, 4, 5, 6) for ell in (1, 2, 3) for y in (12, 30, 60, 150, 300)]
    # 4^40 = 2^80 ordered tuples: the blocks count in Python ints
    + [(40, 1, 30), (40, 2, 30)],
)
def test_blocks_match_reference_fold_past_k2(y, k, ell, monkeypatch):
    # at most 3 modulus primes, spread evenly, and 1 where the reference folds
    # reach about 10^5 residues per modulus (k + ell >= 8 at y >= 150); at
    # k = 40 both of y = 30's, whose moduli stay below 13^2
    st = interval_stats(y)
    spread = 3 if k + ell < 8 or k == 40 else 1
    q_primes = st.modulus_primes[:: -(-len(st.modulus_primes) // spread)]
    want = sum(
        w * _reference_fold(st.product_primes, k, m)
        for m, _c, w in oracle_multisets(q_primes, ell)
    )
    if (k, ell) == (40, 1):
        assert want == 221636398685820811511780 > 2**63
    # 2^15: one slice of multisets; 20 and 1: slices by first index, with
    # blocks of a few moduli or of one
    for block in (1 << 15, 20, 1):
        monkeypatch.setattr(tc, "_BLOCK_ELEMENTS", block)
        assert tc._count_by_blocks(st.product_primes, q_primes, k, ell) == want, block


def test_blocks_slice_the_multisets_by_first_index(monkeypatch):
    # y = 60, k = 3: C(8, 2) = 28 pairs of the 7 residues, at most 7 per first
    # index, so a block of 20 takes them 2 first indices at a time, once for
    # each of the 5 groups of 20 // 7 = 2 moduli among the C(5, 2) = 10
    st = interval_stats(60)
    want = sum(
        w * _reference_fold(st.product_primes, 3, m)
        for m, _c, w in oracle_multisets(st.modulus_primes, 2)
    )
    slices = []
    rows = tc._multiset_rows

    def recorded(n, t, lo=0, hi=None):
        if n == len(st.product_primes):  # the slices of P; the moduli's rows come whole
            slices.append((lo, hi))
        return rows(n, t, lo, hi)

    monkeypatch.setattr(tc, "_multiset_rows", recorded)
    monkeypatch.setattr(tc, "_BLOCK_ELEMENTS", 20)
    assert tc._count_by_blocks(st.product_primes, st.modulus_primes, 3, 2) == want
    assert slices == [(0, 2), (2, 4), (4, 6), (6, 7)] * 5


@pytest.mark.parametrize("size", [1 << 12, 5, 1, None])
@pytest.mark.parametrize(
    "primes,t",
    [((), 1), ((), 3), ((3,), 4), ((5, 7, 11, 13), 3), ((3, 5, 3), 2), ((1009, 1013, 2**61 - 1), 1),
     ((1009, 1013, 2**61 - 1), 2), ((3, 5, 7), 22), ((3, 5), 40)],
)
def test_modulus_multisets_weigh_every_multiset(primes, t, size):
    # the builder against the oracle: slices of 5 and 1 multisets take a first
    # index or two at a time, 2^12 and None one slice; an empty list has no
    # multiset; a repeated prime is a second entry; (2^61 - 1)^2 and 5^40 pass
    # int64, so those products are Python ints, and so are the weights past 20!
    slices = list(tc._multisets(primes, t, size))
    want = list(oracle_multisets(primes, t))
    rows = [row for r, _p, _w in slices for row in r.tolist()]
    assert [tuple(primes[i] for i in row) for row in rows] == [combo for _m, combo, _w in want]
    assert [m for _r, p, _w in slices for m in p.tolist()] == [m for m, _c, _w in want]
    assert [w for *_, ws in slices for w in ws.tolist()] == [w for *_, w in want]
    big = max(primes, default=0) ** t >= 2**63
    assert all(p.dtype == (object if big else np.int64) for _r, p, _w in slices)
    assert all(w.dtype == (object if math.factorial(t) >= 2**63 else np.int64) for *_, w in slices)
    if size is None:
        assert len(slices) == 1
    else:  # a slice ends only where a first index does
        assert all(r[-1, 0] != s[0, 0] for (r, *_), (s, *_) in zip(slices, slices[1:]))


@pytest.mark.parametrize(
    "p_primes,q_primes,k,ell",
    [
        ((2, 7, 13), (3, 5), 3, 2),
        ((13, 17, 19), (11,), 3, 1),
        ((7, 11, 13), (5,), 3, 1),
        ((2, 7, 11, 13, 17), (3, 5), 4, 2),
        ((7, 13, 19), (3, 5), 5, 3),
        ((7, 11, 13, 17, 19), (2, 3), 2, 2),  # g = 12 // 2 + 1 = 7 partner gathers at m = 2
    ],
)
def test_blocks_and_fold_count_explicit_lists_as_brute_force(p_primes, q_primes, k, ell, monkeypatch):
    want = _brute_census(p_primes, q_primes, k, ell)
    moduli = list(combinations_with_replacement(q_primes, ell))
    pairs = [(r, m) for *_, r, m in oracle_congruence_pairs(p_primes, moduli, k)]
    _run_plan(monkeypatch, "modulus")
    for block in (1 << 15, 1):
        monkeypatch.setattr(tc, "_BLOCK_ELEMENTS", block)
        assert tc._count_by_blocks(p_primes, q_primes, k, ell) == want, block
        got = tc.congruence_solutions(p_primes, q_primes, k, ell, listing=True)
        assert _listed(p_primes, q_primes, got) == pairs, block
    for plan in ("modulus", "fold"):
        _run_plan(monkeypatch, plan)
        assert congruence_solutions(p_primes, q_primes, k, ell) == want, plan


@pytest.mark.parametrize("k,ell", [(k, ell) for k in range(1, 6) for ell in range(1, min(k, 3) + 1)])
def test_every_plan_counts_and_lists_explicit_lists_as_brute_force(k, ell, monkeypatch):
    # P spans 12 against moduli from 2: up to 7 partner gathers by modulus,
    # and quotients up to 857 at k = ell = 3
    p_primes, q_primes = (7, 11, 13, 17, 19), (2, 3, 5)
    want = _brute_census(p_primes, q_primes, k, ell)
    moduli = list(combinations_with_replacement(q_primes, ell))
    pairs = [(r, m) for *_, r, m in oracle_congruence_pairs(p_primes, moduli, k)]
    for plan in _count_plans(k, ell):
        _run_plan(monkeypatch, plan)
        assert congruence_solutions(p_primes, q_primes, k, ell) == want, plan
    for plan in _plans(k, ell):
        _run_plan(monkeypatch, plan)
        got = tc.congruence_solutions(p_primes, q_primes, k, ell, listing=True)
        assert _listed(p_primes, q_primes, got) == pairs, plan


def test_blocks_count_past_int64_where_they_estimate_less():
    # 95003 divides 3^41 * 5^42 - 1, so the tuples of 41 threes and 42 fives,
    # C(83, 41) > 2^63 of them, all count; the blocks' estimate, 82 x 83 x 2
    # words, is far below the fold's 81 x 2 x 95003 x 2, and they count in
    # Python ints where int64 would wrap
    q = 95003
    want = sum(math.comb(83, a) for a in range(84) if pow(3, a, q) * pow(5, 83 - a, q) % q == 1)
    assert want == math.comb(83, 41) > 2**63
    assert tc._plan((3, 5), (q,), 83, 1, False) == "modulus"
    assert congruence_solutions((3, 5), (q,), 83, 1) == want


# ------------------------------------------------------------ congruence engine


def _listed(p_primes, q_primes, columns):
    """A listing's columns as (r multiset, m multiset) of primes, row by row,
    each row's products checked against its index rows."""
    r_rows, m_rows, products, moduli = columns
    rs = [tuple(p_primes[i] for i in row) for row in r_rows.tolist()]
    ms = [tuple(q_primes[i] for i in row) for row in m_rows.tolist()]
    assert list(map(math.prod, rs)) == products.tolist()
    assert list(map(math.prod, ms)) == moduli.tolist()
    return list(zip(rs, ms))


def _run_plan(monkeypatch, plan):
    """Make the engine run ``plan``, whatever the planner would pick."""
    monkeypatch.setattr(tc, "_plan", lambda *args: plan)


@pytest.mark.parametrize(
    "plan,kernel", [("modulus", "_count_by_blocks"), ("fold", "_count_by_fold"), ("quotient", "_matches_by_quotient")]
)
def test_each_plan_runs_its_kernel_as_the_module_holds_it(plan, kernel, monkeypatch):
    # the engine reads its kernel table at call time: a kernel replaced on the
    # module, as a tripwire is, is the one that runs, under the one contract
    st = interval_stats(60)
    p_primes, q_primes = st.product_primes, st.modulus_primes
    _run_plan(monkeypatch, plan)
    calls = []
    monkeypatch.setattr(tc, kernel, lambda *args, **kwargs: calls.append((args, kwargs)) or 7)
    assert congruence_solutions(p_primes, q_primes, 2, 2) == 7
    assert calls == [((p_primes, q_primes, 2, 2), {})]
    monkeypatch.setattr(tc, kernel, Tripwire())
    for listing in (False, True) if plan != "fold" else (False,):
        with pytest.raises(AssertionError, match="the work started"):
            congruence_solutions(p_primes, q_primes, 2, 2, listing=listing)


def _plans(k, ell):
    """Every plan that can list a (k, ell) cell: the blocks need k >= 2, the quotient k = ell."""
    return ("modulus",) * (k >= 2) + ("quotient",) * (k == ell)


def _count_plans(k, ell):
    """Every plan that can count a (k, ell) cell: the listing plans, and the fold at k >= 2."""
    return ("fold",) * (k >= 2) + _plans(k, ell)


LIST_GRID = [
    (y, k, ell) for y in (12, 30, 60, 150, 300) for k in range(1, 5) for ell in range(1, k + 1)
] + [(1000, 3, 1)]


@pytest.mark.parametrize("y,k,ell", LIST_GRID)
def test_list_plans_match_the_reference_pair_loop(y, k, ell, monkeypatch):
    st = interval_stats(y)
    # all modulus primes up to 3, else 3 spread evenly: the reference is slow at y = 300
    q_primes = st.modulus_primes[:: -(-len(st.modulus_primes) // 3)]
    moduli = list(combinations_with_replacement(q_primes, ell))
    want = [(r, m) for *_, r, m in oracle_congruence_pairs(st.product_primes, moduli, k)]
    for plan in _plans(k, ell):
        _run_plan(monkeypatch, plan)
        got = tc.congruence_solutions(st.product_primes, q_primes, k, ell, listing=True)
        assert _listed(st.product_primes, q_primes, got) == want, plan


@pytest.mark.parametrize("y,k,ell", [(30, 2, 1), (60, 2, 1), (60, 3, 2), (150, 2, 2)])
def test_pair_search_matches_the_reference_pair_loop(y, k, ell):
    st = interval_stats(y)
    moduli = list(combinations_with_replacement(st.modulus_primes, ell))
    want = oracle_congruence_pairs(st.product_primes, moduli, k)
    got = [dataclasses.astuple(pr) for pr in solve_congruence_pairs(y, k, ell)]
    assert got == want


@pytest.mark.parametrize("y", [12, 30, 60, 150, 300])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_quotient_count_matches_reference_fold(y, k):
    # the k = ell cells of the fold grid above, over every modulus: the
    # kernel's own count, and the weights of the rows it lists
    st = interval_stats(y)
    want = sum(
        w * _reference_fold(st.product_primes, k, m)
        for m, _c, w in oracle_multisets(st.modulus_primes, k)
    )
    assert tc._matches_by_quotient(st.product_primes, st.modulus_primes, k, k) == want
    r_rows, m_rows = tc._matches_by_quotient(st.product_primes, st.modulus_primes, k, k, listing=True)
    assert tc._ordered_count(r_rows, m_rows, np.int64) == want


@pytest.mark.parametrize("y,k", [(1000, 1), (3000, 1), (1000, 2), (3000, 2)])
def test_quotient_count_lists_no_rows(y, k, monkeypatch):
    # a count by quotient weighs its hits in place: no listed row is weighed again
    st = interval_stats(y)
    want = sum(
        w * _reference_fold(st.product_primes, k, m)
        for m, _c, w in oracle_multisets(st.modulus_primes, k)
    )
    assert tc._plan(st.product_primes, st.modulus_primes, k, k, False) == "quotient"
    monkeypatch.setattr(tc, "_ordered_count", Tripwire())
    assert congruence_solutions(st.product_primes, st.modulus_primes, k, k) == want


@pytest.mark.parametrize(
    "p_primes,q_primes,k",
    [
        ((11, 13, 17, 19), (3, 5, 7), 2),  # 2! 2! < 2^63: int64 terms
        ((11, 13), (7,), 13),  # 13! 13! >= 2^63: Python-int terms
    ],
)
def test_quotient_count_weighs_in_either_dtype(p_primes, q_primes, k):
    # the count equals the ordered tuples by brute force and the weights of the listing
    want = _brute_census(p_primes, q_primes, k, k)
    assert tc._matches_by_quotient(p_primes, q_primes, k, k) == want
    r_rows, m_rows = tc._matches_by_quotient(p_primes, q_primes, k, k, listing=True)
    dtype = np.int64 if math.factorial(k) ** 2 < 2**63 else object
    assert tc._ordered_count(r_rows, m_rows, dtype) == want


def test_quotient_count_weighs_hits_in_python_ints(monkeypatch):
    # no cell past 13! 13! >= 2^63 small enough to run has a hit, so every
    # factorial is made to read 2^63: the weights and each term w(r) w(m) are
    # then Python ints (object), and the count at (1000, 2, 2) is unchanged
    st = interval_stats(1000)
    want = tc._matches_by_quotient(st.product_primes, st.modulus_primes, 2, 2)
    assert want > 0
    monkeypatch.setattr(math, "factorial", lambda n: 2**63)
    assert tc._row_weights(np.zeros((1, 2), dtype=np.int64)).dtype == object
    assert tc._matches_by_quotient(st.product_primes, st.modulus_primes, 2, 2) == want


@pytest.mark.parametrize("y,k,ell", [(20, 1, 1), (30, 2, 1), (30, 2, 2), (40, 2, 2), (40, 3, 1)])
def test_count_plans_match_count_direct(y, k, ell, monkeypatch):
    want = count_direct(CensusParams(y, k, ell)).count
    for plan in _count_plans(k, ell):
        _run_plan(monkeypatch, plan)
        assert count_exact(CensusParams(y, k, ell)).count == want, plan


@pytest.mark.parametrize("y,k", [(1000, 2), (3000, 2), (300, 3), (600, 3)])
def test_quotient_plan_matches_the_fold(y, k, monkeypatch):
    # no run can fold these cells (k = 2, or fold figures of 2*10^10 and
    # more); the forced fold witnesses (1000, 2) and (300, 3) only, as its
    # dense histograms take seconds at the other two
    st = interval_stats(y)
    counts = {}
    for plan in ("modulus", "quotient") + ("fold",) * (y in (1000, 300)):
        _run_plan(monkeypatch, plan)
        counts[plan] = congruence_solutions(st.product_primes, st.modulus_primes, k, k)
    assert set(counts.values()) == {counts["quotient"]}
    if y == 3000:
        assert counts["quotient"] == 330


@pytest.mark.parametrize(
    "y,k,ell,listing,plan",
    [
        # every cell a benchmark job runs: census, diagnose and construct
        (1e5, 2, 1, False, "modulus"),  # census-1e5
        (1000, 3, 2, False, "modulus"),  # census-1000-k3l2, by blocks
        (30, 2, 1, False, "modulus"),
        (30, 2, 1, True, "modulus"),
        (150, 3, 2, False, "modulus"),
        (1000, 2, 1, False, "modulus"),
        (1000, 3, 1, False, "modulus"),
        (1000, 3, 1, True, "modulus"),
        (2000, 2, 1, False, "modulus"),
        (2000, 2, 1, True, "modulus"),
        (6000, 2, 1, False, "modulus"),
        (6000, 2, 1, True, "modulus"),  # construct-6000
        (1e4, 2, 1, False, "modulus"),
        (1000, 4, 2, False, "modulus"),
        # fold: long tuples whose residue products fill the residues mod m
        (30, 40, 1, False, "fold"),
        (12, 40, 1, False, "fold"),
        (100, 19, 2, False, "fold"),
        # quotient: k = ell = 2, and k = 1 at every y
        (1e4, 2, 2, False, "quotient"),
        (3e4, 2, 2, False, "quotient"),
        (1000, 2, 2, True, "quotient"),
        (4, 1, 1, False, "quotient"),
        (4, 1, 1, True, "quotient"),
        (12, 1, 1, False, "quotient"),
        (1e5, 1, 1, False, "quotient"),
        (1e5, 1, 1, True, "quotient"),
    ],
)
def test_planner_picks_the_cheaper_eligible_plan(y, k, ell, listing, plan):
    st = interval_stats(y)
    assert tc._plan(st.product_primes, st.modulus_primes, k, ell, listing) == plan


def test_quotient_plan_runs_past_the_modulus_limit(monkeypatch):
    st = interval_stats(60)
    want = congruence_solutions(st.product_primes, st.modulus_primes, 2, 2)
    monkeypatch.setattr(tc, "MODULUS_LIMIT", 100)  # below 29^2: no plan by modulus
    assert tc._plan(st.product_primes, st.modulus_primes, 2, 2, False) == "quotient"
    assert congruence_solutions(st.product_primes, st.modulus_primes, 2, 2) == want
    with pytest.raises(CapacityError, match=str(29**2)):
        congruence_solutions(st.product_primes, st.modulus_primes, 3, 2)  # k != ell: no plan by quotient


@pytest.mark.parametrize("y", [3, 12, 30, 30.5, 60, 150, 1000])
@pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (3, 2), (4, 2), (6, 3), (7, 7), (40, 10)])
def test_exact_bits_bound_every_exact_value_of_a_census_record(y, k, ell):
    params = CensusParams(y, k, ell)
    st = interval_stats(y)
    values = [st.recip_sum, main_term(params), error_term(params).exact]
    actual = max(
        max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values if v is not None
    )
    assert actual <= tc._exact_bits(params, st)


@given(n=st.integers(1, 2000), t=st.integers(1, 2000))
@settings(max_examples=300, deadline=None)
def test_multiset_bits_bound_the_binomial_below(n, t):
    assert tc._multiset_bits(n, t) <= math.comb(n + t - 1, t).bit_length() - 1


@given(b=st.integers(1, 10**6), e=st.integers(0, 3000))
@settings(max_examples=300, deadline=None)
def test_power_bits_is_the_bit_length_of_the_power(b, e):
    assert tc._power_bits(b, e) == (b**e).bit_length()


@given(
    primes=st.lists(st.sampled_from([p for p in range(2, 1000) if all(p % d for d in range(2, p))]),
                    unique=True, max_size=8),
    t=st.integers(0, 6),
)
@settings(max_examples=200, deadline=None)
def test_class_sums_are_the_sums_of_the_multiset_products(primes, t):
    sums = tc._class_sums(primes, t)
    assert len(sums) == t + 1 and sums[0] == 1
    for j in range(1, t + 1):
        assert sums[j] == sum(m for _r, products, _w in tc._multisets(primes, j) for m in products.tolist())
