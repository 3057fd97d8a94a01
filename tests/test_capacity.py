"""Every capacity limit refuses before the work, with its estimate in the message.

Each row lowers one limit (a module constant, or the sieve default behind
SUNIT_MAX_SIEVE), replaces the engine that would do the work with a
tripwire, and checks that the call raises CapacityError naming the estimate
that tripped it.
"""

import importlib
import json
import math
import re
from argparse import Namespace
from pathlib import Path

import pytest

import sunitlab.character_lab as cl
import sunitlab.cli_report as cli
import sunitlab.constructor as constructor
import sunitlab.monte_carlo as mc
import sunitlab.prime_tools as pt
import sunitlab.smooth_verifier as sv
import sunitlab.tuple_census as tc
from sunitlab.character_lab import LargeSieveInstance
from sunitlab.errors import CapacityError, check_capacity
from sunitlab.prime_tools import interval_stats
from sunitlab.tuple_census import CensusParams

from oracles import oracle_multisets


class Tripwire:
    """Stands in for an engine; any use of it means the work started."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("the work started before the capacity refusal")

    def __getattr__(self, name):
        self()


def _census(y, k, ell):
    st = interval_stats(y)  # y = 60: 7 product primes, 4 modulus primes up to 29
    return lambda: tc.congruence_solutions(st.product_primes, st.modulus_primes, k, ell)


# y = 1000, k = ell = 2: quotients u in 2..15 over C(74, 2) products, plus
# the C(43, 2) moduli; by modulus, 903 moduli x 73 residues
QUOTIENT_1000 = 14 * 2701 + 903


def _large_sieve(trials, bound):
    args = Namespace(seed=1, trials=trials, q=None, Q=bound)
    return lambda: cli._diag_large_sieve(args, [])


CASES = [
    # (limit's module, limit, lowered value, call, estimate, (engine's module, engine))
    (tc, "MODULUS_LIMIT", 1000, _census(60, 4, 3), 29**3,
     (tc, "_count_by_blocks")),
    # k = 2 has no fold: 4 moduli x 7 residues x 1 pass of partner gathers
    # (g = 28 // 17 + 1 = 2), which is no less than the partner table's span 28
    (tc, "FOLD_OP_LIMIT", 27, _census(60, 2, 1), 4 * 7,
     (tc, "_count_by_blocks")),
    # k = 3 runs by blocks at y = 1000: 42 moduli x (1 multiply-mod + 1 pass
    # of gathers) x C(74, 2) pairs of the 73 residues, below the fold's
    # 1 x 73 x 15706 (the sum of the moduli) and the one group's one block
    (tc, "FOLD_OP_LIMIT", 100, _census(1000, 3, 1), 42 * 2 * 2701,
     (tc, "_count_by_blocks")),
    # the fold counts: 38 folds of 4 residues over the moduli 11 and 13, x 2
    # words per count, as 4^40 passes int64
    (tc, "FOLD_OP_LIMIT", 1000, _census(30, 40, 1), 38 * 4 * (11 + 13) * 2,
     (tc, "_count_products_congruent_one")),
    (tc, "DIRECT_OP_LIMIT", 100, lambda: tc.count_direct(CensusParams(60, 3, 2)), 7**3 * 4**2,
     (tc, "itertools")),
    # 40 samples x (k + ell) = 3 draws each
    (tc, "SAMPLE_DRAW_LIMIT", 100, lambda: tc.count_sampled(CensusParams(60, 2, 1), 40, seed=1), 120,
     (mc, "random")),
    # C(7 + 2, 3) multisets of three product primes
    (tc, "REPRESENTATION_LIMIT", 10, lambda: tc.representation_counts(3, 60), 84,
     (tc, "_multisets")),
    # Q_2 at y = 60 holds C(5, 2) = 10 moduli of 2 prime factors each
    (cl, "QT_LIMIT", 10, lambda: cl.enumerate_Qt(2, 60), 20,
     (cl, "_multisets")),
    # the principal part's Euler product is charged as the same Q_2
    (cl, "QT_LIMIT", 10, lambda: cl.principal_contribution(CensusParams(60, 2, 2)), 20,
     (cl, "Fraction")),
    (cl, "CHARACTER_MODULUS_LIMIT", 100, lambda: cl.character_table(143), 143,
     (cl, "_cached_table")),
    # P^k * Q^ell = 10^2 * 6 ordered tuples at y = 100
    (cl, "CHARACTER_COUNT_LIMIT", 500,
     lambda: cl.census_via_characters(CensusParams(100, 2, 1)), 600,
     (cl, "CharacterTable")),
    # Q_1 at y = 100: sum of phi(q) over the 10 primes in (25, 50]
    (cl, "CHARACTER_WORK_LIMIT", 100,
     lambda: cl.census_via_characters(CensusParams(100, 2, 1)), 222,
     (cl, "CharacterTable")),
    # y = 100: Q_1 holds 6 moduli, and the tables of a_1 and a_2 hold the 10
    # product primes and their 55 pairs
    (tc, "FOLD_OP_LIMIT", 389, lambda: cl.moment_check(1, 100), 6 * (10 + 55),
     (cl, "representation_counts")),
    (cl, "CHARACTER_WORK_LIMIT", 100,
     lambda: cl.large_sieve_check(
         LargeSieveInstance(length=3, coefficients=(1, 1, 1), modulus_bound=20),
         "primitive-family",
     ), 20 * 21 // 2,
     (cl, "character_table")),
    # 10 trials x 210 points each pass the cap; each trial alone does not
    (cl, "CHARACTER_WORK_LIMIT", 1000, _large_sieve(10, 20), 10 * 210,
     (cl, "large_sieve_check")),
    (cl, "SIEVE_TRIALS_LIMIT", 5, _large_sieve(6, 2), 6,
     (cl, "large_sieve_check")),
    (tc, "FOLD_OP_LIMIT", 1000, _census(1000, 2, 2), QUOTIENT_1000,
     (tc, "_matches_by_quotient")),
    # k = 1 runs only by quotient, whose products must fit in int64: no plan
    # is left for a prime past 2^63, whatever the limit
    (tc, "MODULUS_LIMIT", tc.MODULUS_LIMIT, lambda: tc.congruence_solutions((2**63 + 29,), (3,), 1, 1),
     2**63 + 29, (tc, "_matches_by_quotient")),
    # by blocks, as for the fold-k2 row: 4 moduli x 7 residues x 1 pass of gathers
    (tc, "PAIR_OP_LIMIT", 10, lambda: constructor.solve_congruence_pairs(60, 2, 1), 4 * 7,
     (tc, "_count_by_blocks")),
    (tc, "PAIR_OP_LIMIT", 1000, lambda: constructor.solve_congruence_pairs(1000, 2, 2), QUOTIENT_1000,
     (tc, "_matches_by_quotient")),
    # y = 60, k = 2, ell = 1: lambda over 17, 19, 23, 29 (5 bits each), P = 7;
    # the error bound 1^1 * (4 lambda P)^1 * 60^1 has up to 1 + (20 + 5) + 6 bits
    (tc, "EXACT_BITS_LIMIT", 31,
     lambda: tc.count_sampled(CensusParams(60, 2, 1), 40, seed=1), 32,
     (mc, "_sampled_hits")),
    (pt, "DEFAULT_SIEVE_LIMIT", 500, lambda: pt.sieve_interval(10, 2000), 2000,
     (pt, "_sieve")),
    # Psi(1001, {2, 3}) as it grows: 1 and 9 powers of 2, then 9 of those times 3
    (sv, "SMOOTH_COUNT_LIMIT", 10, lambda: sv.enumerate_smooth_pairs((2, 3), 1000), 19,
     (sv, "_build_pair")),
]


@pytest.mark.parametrize(
    "module,limit,value,run,estimate,engine",
    CASES,
    ids=[
        "modulus", "fold-k2", "fold-k3", "fold-past-int64", "direct", "sampled", "representation", "qt", "qt-principal",
        "character-modulus", "character-count", "character-work-census", "moments", "character-work-family",
        "large-sieve-trials-work", "large-sieve-trials", "quotient", "k1-past-int64", "pair", "pair-quotient",
        "exact-bits", "sieve", "smooth-count",
    ],
)
def test_limit_refuses_before_the_work(module, limit, value, run, estimate, engine, monkeypatch):
    monkeypatch.delenv("SUNIT_MAX_SIEVE", raising=False)
    monkeypatch.setattr(module, limit, value)
    monkeypatch.setattr(*engine, Tripwire())
    with pytest.raises(CapacityError) as refusal:
        run()
    assert re.search(rf"\b{estimate}\b", str(refusal.value)), str(refusal.value)


@pytest.mark.parametrize(
    "argv,limit",
    [
        (["census", "--y", "1000", "--k", "2", "--ell", "1"], (tc, "FOLD_OP_LIMIT")),
        (["diagnose", "tails", "--y", "1000", "--k", "4", "--ell", "2"], (cl, "CHARACTER_WORK_LIMIT")),
        (["diagnose", "decomposition", "--y", "1000", "--k", "2", "--ell", "1"], (cl, "CHARACTER_WORK_LIMIT")),
    ],
    ids=["census", "tails", "decomposition"],
)
def test_command_refuses_before_lambda_is_built(argv, limit, monkeypatch, capsys):
    pt._interval_stats.cache_clear()  # a lambda cached by an earlier test would hide a build
    monkeypatch.setattr(*limit, 100)
    monkeypatch.setattr(pt.PrimeInterval, "reciprocal_sum", Tripwire())
    assert cli.main(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "capacity"


def test_census_refuses_the_fold_by_its_histogram_figure(capsys):
    # k - 2 scatters of the |P| residues over the histogram of each 3-prime
    # modulus m: (k - 2) * |P| * sum m, one word per count as 10^15 < 2^63
    assert cli.main(["census", "--y", "100", "--k", "15", "--ell", "3"]) == 3
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    st = interval_stats(100)
    figure = 13 * len(st.product_primes) * sum(m for m, _c, _w in oracle_multisets(st.modulus_primes, 3))
    assert figure == 404320800
    assert message == f"residue fold products over the 3-prime moduli: {figure}, over the cap {tc.FOLD_OP_LIMIT}"


def test_census_refuses_the_blocks_by_their_own_figure(capsys):
    # at k = 14 the blocks estimate less than the fold, so the refusal names
    # them: per 3-prime modulus, k - 2 multiply-mods and one pass of partner
    # gathers (g = 44 // 29^3 + 1 = 1) for each 13-multiset of the |P| residues
    assert cli.main(["census", "--y", "100", "--k", "14", "--ell", "3"]) == 3
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    st = interval_stats(100)
    moduli = sum(1 for _ in oracle_multisets(st.modulus_primes, 3))
    figure = moduli * (12 + 1) * math.comb(len(st.product_primes) + 12, 13)
    assert figure == 362121760
    assert message == f"residue products by blocks over the 3-prime moduli: {figure}, over the cap {tc.FOLD_OP_LIMIT}"


def test_character_table_limit_holds_for_a_cached_table(monkeypatch):
    assert cl.character_table(143).totient == 120  # now in the cache
    monkeypatch.setattr(cl, "CHARACTER_MODULUS_LIMIT", 100)
    with pytest.raises(CapacityError, match="143"):
        cl.character_table(143)


@pytest.mark.parametrize(
    "run",
    [
        lambda: cl.moment_check(100_000, 30),
        lambda: cl.tail_shape(CensusParams(30, 400, 200)),
        # the low range, Q_1..Q_7 = 7, ..., 7^7 at y = 20, is admitted; the
        # high range, t in 8..28, is refused before the low one walks
        lambda: cl.tail_shape(CensusParams(20, 31, 28)),
    ],
    ids=["moment", "tail", "tail-high"],
)
def test_character_work_refused_for_a_huge_t_without_expanding(run, monkeypatch):
    # phi(q) >= 2^(t-1) on Q_t: past the cap's bit length no sum is formed
    monkeypatch.setattr(cl, "CharacterTable", Tripwire())
    with pytest.raises(CapacityError, match=r"at least 2\^\d+ points"):
        run()


def test_character_count_refused_for_a_huge_k_without_expanding(monkeypatch):
    # P = 4 and Q = 2 at y = 30: 4^k * 2 >= 2^(2k + 1), not formed past the cap
    monkeypatch.setattr(cl, "character_table", Tripwire())
    with pytest.raises(CapacityError, match=r"at least 2\^200001 ordered tuples"):
        cl.census_via_characters(CensusParams(30, 100_000, 1))


def test_direct_count_refused_for_a_huge_k_without_expanding(monkeypatch):
    # P = 4 and Q = 2 at y = 30: 4^k * 2 >= 2^(2k + 1), not formed past the cap
    monkeypatch.setattr(tc, "_census_result", Tripwire())
    with pytest.raises(CapacityError, match=r"at least 2\^20000001 tuples"):
        tc.count_direct(CensusParams(30, 10_000_000, 1))


_comb = math.comb


def _big_comb(n, t):
    """math.comb for the small binomials a refusal may form; a tripwire past 64 factors."""
    if min(t, n - t) > 64:
        raise AssertionError(f"C({n}, {t}) was formed before the capacity refusal")
    return _comb(n, t)


HUGE_ROWS = {
    "qt": (lambda: cl.enumerate_Qt(10**6, 10**6), r"prime factors over Q_1000000: at least 2\^\d+,"),
    "pairs": (lambda: tc.congruence_solutions(*_intervals(100), 10**8, 1, listing=True),
              r"pair search residues over the 1-prime moduli: at least 2\^\d+,"),
    "modulus": (lambda: tc.congruence_solutions(*_intervals(10**5), 10**6, 10**6), r"modulus at least 2\^\d+,"),
    "u0": (lambda: constructor.run_construction(100, 10**1000, 10**1000),
           r"bits of the least possible quotient u0: at least 2\^\d+,"),
    "tails": (lambda: cl.tail_shape(CensusParams(100, 4 * 10**9, 10**9)),
              r"t in \[1, \.\.\., 1000000000\], hold at least 2\^\d+ points"),
}


def _intervals(y):
    st = interval_stats(y)
    return st.product_primes, st.modulus_primes


@pytest.mark.parametrize("row", sorted(HUGE_ROWS))
def test_huge_figures_refused_without_expanding(row, monkeypatch):
    # every binomial and power is bounded below first; past 2^64 none is formed
    run, message = HUGE_ROWS[row]
    for y in (100, 10**5):
        interval_stats(y)  # sieved before the tripwires
    monkeypatch.setattr(math, "comb", _big_comb)
    for engine in ("_multiset_rows", "_count_by_blocks", "_count_products_congruent_one", "_matches_by_quotient"):
        monkeypatch.setattr(tc, engine, Tripwire())
    monkeypatch.setattr(cl, "CharacterTable", Tripwire())
    with pytest.raises(CapacityError, match=message) as refusal:
        run()
    assert len(str(refusal.value)) < 200


def test_fold_figure_past_a_huge_k_is_exact(monkeypatch):
    # (100, 10^8, 1): the blocks' figure is bounded past 2^64 and not formed;
    # the fold's, below 2^64, is exact, its words read off without 10^(10^8)
    monkeypatch.setattr(math, "comb", _big_comb)
    p_primes, q_primes = _intervals(100)
    assert len(p_primes) == 10
    words = 332_192_810 // 64 + 1  # 10^(10^8) has floor(10^8 log2 10) + 1 bits
    figure = (10**8 - 2) * len(p_primes) * sum(q_primes) * words
    assert figure < 2**64
    with pytest.raises(CapacityError, match=f"residue fold products over the 1-prime moduli: {figure},"):
        tc.congruence_solutions(p_primes, q_primes, 10**8, 1)


@pytest.mark.parametrize("ell,moduli", [(1, 3 + 5), (2, 9 + 15 + 25)])
def test_one_product_prime_and_a_huge_k_refused_before_any_kernel(ell, moduli, monkeypatch):
    # y = 10: P = {7}, Q = {3, 5}.  By blocks the one group of moduli would
    # run k - 2 Python passes, each charged as a block of _BLOCK_ELEMENTS, so
    # the fold's (k - 2) * |P| * sum m is the smaller figure, and over the cap
    k = 10**8
    p_primes, q_primes = _intervals(10)
    for engine in ("_multiset_rows", "_count_by_blocks", "_count_products_congruent_one"):
        monkeypatch.setattr(tc, engine, Tripwire())
    figure = (k - 2) * len(p_primes) * moduli
    with pytest.raises(CapacityError, match=f"^residue fold products over the {ell}-prime moduli: {figure},"):
        tc.congruence_solutions(p_primes, q_primes, k, ell)


def test_check_capacity_forms_no_estimate_past_its_bound():
    cap = 10**6
    with pytest.raises(CapacityError, match=r"^work at least 2\^65, over the cap 1000000$"):
        check_capacity("work {}", Tripwire(), cap, low=65)
    # at the bound the estimate is formed, and decides alone
    check_capacity("work {}", lambda: cap, cap, low=64)
    with pytest.raises(CapacityError, match=r"^work 1000001, over the cap 1000000$"):
        check_capacity("work {}", lambda: cap + 1, cap, low=64)
    # past 64 bits the cap's own bit length is the bar
    check_capacity("work {}", lambda: 2**80, 2**90, low=80)


def _capacity_table():
    """(first cell, value cell) of each row of README's "Capacity limits" table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Capacity limits", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return [(cells[0], cells[3]) for cells in rows]


def test_readme_capacity_table_shows_every_limit_and_its_value():
    named = set()
    for limit, value in _capacity_table():
        refs = re.findall(r"`(\w+)\.(\w+)`", limit)
        assert refs, limit
        module, name = refs[-1]  # the SUNIT_MAX_SIEVE row names its default last
        constant = getattr(importlib.import_module(f"sunitlab.{module}"), name)
        base, _, power = value.strip("`").partition("^")
        assert constant == int(base) ** int(power or 1), (limit, value)
        named.add((module, name))
    for module in ("prime_tools", "tuple_census", "character_lab", "constructor", "smooth_verifier"):
        mod = importlib.import_module(f"sunitlab.{module}")
        for name in vars(mod):
            if name.endswith("_LIMIT"):
                assert (module, name) in named, f"{module}.{name} has no README row"
