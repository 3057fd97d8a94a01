"""Every capacity limit refuses before the work, with its estimate in the message.

Each row lowers one limit (a module constant, or the sieve default behind
SUNIT_MAX_SIEVE), replaces the engine that would do the work with a
tripwire, and checks that the call raises CapacityError naming the estimate
that tripped it.
"""

import re

import pytest

import sunitlab.character_lab as cl
import sunitlab.constructor as constructor
import sunitlab.prime_tools as pt
import sunitlab.smooth_verifier as sv
import sunitlab.tuple_census as tc
from sunitlab.character_lab import LargeSieveInstance
from sunitlab.errors import CapacityError
from sunitlab.prime_tools import interval_stats
from sunitlab.tuple_census import CensusParams


class Tripwire:
    """Stands in for an engine; any use of it means the work started."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("the work started before the capacity refusal")

    def __getattr__(self, name):
        self()


def _census_60(k, ell):
    st = interval_stats(60)  # 7 product primes, 4 modulus primes up to 29
    return lambda: tc.census_over(st.product_primes, st.modulus_primes, k, ell)


CASES = [
    # (limit's module, limit, lowered value, call, estimate, (engine's module, engine))
    (tc, "MODULUS_LIMIT", 1000, _census_60(2, 3), 29**3,
     (tc, "_count_products_congruent_one")),
    # k = 2 has no fold, yet its 4 moduli x 7 residues are counted
    (tc, "FOLD_OP_LIMIT", 27, _census_60(2, 1), 4 * 7,
     (tc, "_count_products_congruent_one")),
    (tc, "FOLD_OP_LIMIT", 100, _census_60(3, 1), 4 * (7 + 7 * 7),
     (tc, "_count_products_congruent_one")),
    (tc, "DIRECT_OP_LIMIT", 100, lambda: tc.count_direct(CensusParams(60, 3, 2)), 7**3 * 4**2,
     (tc, "itertools")),
    # C(7 + 2, 3) multisets of three product primes
    (tc, "REPRESENTATION_LIMIT", 10, lambda: tc.representation_counts(3, 60), 84,
     (tc, "_modulus_multisets")),
    # Q_2 at y = 60 holds C(5, 2) = 10 moduli of 2 prime factors each
    (cl, "QT_LIMIT", 10, lambda: cl.enumerate_Qt(2, 60), 20,
     (cl, "_modulus_multisets")),
    (cl, "CHARACTER_MODULUS_LIMIT", 100, lambda: cl.character_table(143), 143,
     (cl, "_cached_table")),
    # Q_1 at y = 100: sum of phi(q) over the 10 primes in (25, 50]
    (cl, "CHARACTER_WORK_LIMIT", 100,
     lambda: cl.census_via_characters(CensusParams(100, 2, 1)), 222,
     (cl, "character_table")),
    (cl, "CHARACTER_WORK_LIMIT", 100,
     lambda: cl.large_sieve_check(
         LargeSieveInstance(length=3, coefficients=(1, 1, 1), modulus_bound=20),
         "primitive-family",
     ), 20 * 21 // 2,
     (cl, "character_table")),
    # C(8, 2) product multisets x 4 moduli
    (constructor, "PAIR_OP_LIMIT", 100, lambda: constructor.solve_congruence_pairs(60, 2, 1), 112,
     (constructor, "_modulus_multisets")),
    (pt, "DEFAULT_SIEVE_LIMIT", 500, lambda: pt.sieve_interval(10, 2000), 2000,
     (pt, "_simple_sieve")),
    # a <= 1000 needs c = a + 1 sieved too
    (pt, "DEFAULT_SIEVE_LIMIT", 500, lambda: sv.enumerate_smooth_pairs((2, 3), 1000), 1001,
     (sv, "np")),
]


@pytest.mark.parametrize(
    "module,limit,value,run,estimate,engine",
    CASES,
    ids=[
        "modulus", "fold-k2", "fold-k3", "direct", "representation", "qt",
        "character-modulus", "character-work-census", "character-work-family",
        "pair", "sieve", "smooth-sieve",
    ],
)
def test_limit_refuses_before_the_work(module, limit, value, run, estimate, engine, monkeypatch):
    monkeypatch.delenv("SUNIT_MAX_SIEVE", raising=False)
    monkeypatch.setattr(module, limit, value)
    monkeypatch.setattr(*engine, Tripwire())
    with pytest.raises(CapacityError) as refusal:
        run()
    assert re.search(rf"\b{estimate}\b", str(refusal.value)), str(refusal.value)


def test_character_table_limit_holds_for_a_cached_table(monkeypatch):
    assert cl.character_table(143).totient == 120  # now in the cache
    monkeypatch.setattr(cl, "CHARACTER_MODULUS_LIMIT", 100)
    with pytest.raises(CapacityError, match="143"):
        cl.character_table(143)


@pytest.mark.parametrize(
    "run",
    [
        lambda: cl.moment_check(100_000, 30, "2t"),
        lambda: cl.tail_shape(CensusParams(30, 400, 200), "low"),
    ],
    ids=["moment", "tail"],
)
def test_character_work_refused_for_a_huge_t_without_expanding(run, monkeypatch):
    # phi(q) >= 2^(t-1) on Q_t: past the cap's bit length no sum is formed
    monkeypatch.setattr(cl, "character_table", Tripwire())
    with pytest.raises(CapacityError, match=r"at least 2\^\d+ points"):
        run()
