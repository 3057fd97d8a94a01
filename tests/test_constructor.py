import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import sunitlab.constructor as constructor
import sunitlab.prime_tools as pt
import sunitlab.smooth_verifier as sv
from sunitlab.constructor import (
    CongruencePair,
    assemble_set,
    count_solutions_for_u0,
    lower_bound_estimate,
    plan_parameters,
    popular_residue,
    run_construction,
    solution_count_benchmarks,
    solve_congruence_pairs,
)
from sunitlab.errors import ValidationError, VerificationError
from sunitlab.prime_tools import interval_stats
from sunitlab.tuple_census import CensusParams, count_exact

from oracles import oracle_primes_in


def test_plan_defaults_y30():
    plan = plan_parameters(30)
    assert (plan.alpha, plan.beta) == (Fraction(1, 3), Fraction(1, 4))
    assert plan.constraints.product_value == Fraction(1, 2)
    assert plan.constraints.exponent_value == Fraction(1, 4)
    assert plan.constraints.ok
    # raw k = 30^(1/4) / (10 log 30) is tiny; floors kick in and say so
    assert plan.raw_k < 1
    assert (plan.k, plan.ell) == (2, 1)
    assert plan.k_clamped and plan.ell_clamped


def test_plan_explicit_overrides():
    plan = plan_parameters(30, k=3, ell=2)
    assert (plan.k, plan.ell) == (3, 2)
    assert not plan.k_clamped and not plan.ell_clamped


def test_plan_constraint_violation_needs_overrides():
    # alpha = 9/20: (1 - a)(1 - b) = 33/80 < 1/2
    with pytest.raises(ValidationError):
        plan_parameters(30, alpha=Fraction(9, 20))
    plan = plan_parameters(30, alpha=Fraction(9, 20), k=2, ell=1)
    assert not plan.constraints.ok  # carried, visibly


def test_plan_validation():
    with pytest.raises(ValidationError):
        plan_parameters(8)  # below supported y
    with pytest.raises(ValidationError):
        plan_parameters(30, alpha=Fraction(3, 5))  # alpha > 1/2
    with pytest.raises(ValidationError):
        plan_parameters(30, beta=0)
    # the strict exponent window is empty at desk scale
    with pytest.raises(ValidationError):
        plan_parameters(30, enforce_range=True)


def test_plan_accepts_string_fractions():
    plan = plan_parameters(30, alpha="1/3", beta="1/4")
    assert plan.constraints.ok


@pytest.mark.parametrize("y,k,ell", [(20, 2, 1), (30, 2, 1), (30, 2, 2), (40, 3, 1)])
def test_pairs_expand_to_ordered_census(y, k, ell):
    pairs = solve_congruence_pairs(y, k, ell)
    census = count_exact(CensusParams(y, k, ell)).count

    def perms(multiset):
        counts = {}
        for x in multiset:
            counts[x] = counts.get(x, 0) + 1
        n = math.factorial(len(multiset))
        for c in counts.values():
            n //= math.factorial(c)
        return n

    expanded = sum(perms(p.product_factors) * perms(p.modulus_factors) for p in pairs)
    assert expanded == census
    # unordered conversion bound, exactly as stated
    assert len(pairs) * math.factorial(k) * math.factorial(ell) >= census


def test_pairs_against_direct_enumeration_y30():
    got = {
        (p.product, p.modulus, p.quotient) for p in solve_congruence_pairs(30, 2, 1)
    }
    want = set()
    ps = oracle_primes_in(15, 30)
    for q in oracle_primes_in(7.5, 15):
        for a, b in combinations_with_replacement(ps, 2):
            if (a * b) % q == 1:
                want.add((a * b, q, (a * b - 1) // q))
    assert got == want
    assert len(got) == 3  # 5 ordered solutions collapse to 3 unordered pairs


def test_pair_internal_consistency():
    for pr in solve_congruence_pairs(40, 3, 2):
        assert math.prod(pr.product_factors) == pr.product
        assert math.prod(pr.modulus_factors) == pr.modulus
        assert pr.product % pr.modulus == 1
        assert pr.quotient * pr.modulus == pr.product - 1
        # quotient range bound checked on every emitted pair
        assert pr.quotient < 4**2 * Fraction(40) ** 1
        assert pr.product_factors == tuple(sorted(pr.product_factors))


@pytest.mark.parametrize(
    "match",
    [(11, 323, (17, 19), (11,)), (13, 841, (29, 29), (13,))],  # 322/11, 840/13: no integers
)
def test_pair_search_rechecks_every_listed_pair(match, monkeypatch):
    monkeypatch.setattr(constructor, "congruence_solutions", lambda *args, **kw: [match])
    with pytest.raises(VerificationError, match="enumeration bug"):
        solve_congruence_pairs(30, 2, 1)


def test_pair_search_rechecks_the_quotient_range(monkeypatch):
    # 29 * 29 = 841 = 1 + 2 * 420, but a quotient of 420 is past 4 * 30
    match = (2, 841, (29, 29), (2,))
    monkeypatch.setattr(constructor, "congruence_solutions", lambda *args, **kw: [match])
    with pytest.raises(VerificationError, match="range bound 120"):
        solve_congruence_pairs(30, 2, 1)


def test_pairs_validation():
    with pytest.raises(ValidationError):
        solve_congruence_pairs(30, 0, 1)


def _fake_pairs(quotients):
    # synthetic pairs: only the quotient matters to the histogram
    out = []
    for u in quotients:
        out.append(
            CongruencePair(
                product=3 * u + 1,
                modulus=3,
                quotient=u,
                product_factors=(3 * u + 1,),
                modulus_factors=(3,),
            )
        )
    return out


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=120))
@settings(max_examples=80, deadline=None)
def test_pigeonhole_exact_on_histogram(quotients):
    hist = popular_residue(_fake_pairs(quotients))
    assert hist.total == len(quotients)
    assert hist.distinct == len(set(quotients))
    assert hist.pigeonhole_floor == math.ceil(hist.total / hist.distinct)
    assert hist.multiplicity >= hist.pigeonhole_floor
    assert hist.counts[hist.popular] == hist.multiplicity
    # smallest quotient among the maximally popular ones
    best = max(hist.counts.values())
    assert hist.popular == min(u for u, c in hist.counts.items() if c == best)


@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=40),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_popular_residue_invariant_under_replication(quotients, copies):
    base = popular_residue(_fake_pairs(quotients))
    scaled = popular_residue(_fake_pairs(quotients * copies))
    assert scaled.popular == base.popular
    assert scaled.multiplicity == base.multiplicity * copies


def test_popular_residue_empty():
    with pytest.raises(ValidationError):
        popular_residue([])


def test_histogram_top_ordering():
    hist = popular_residue(_fake_pairs([4, 4, 9, 9, 2]))
    assert hist.top(2) == [(4, 2), (9, 2)]
    assert hist.popular == 4


def test_lower_bound_goldens():
    stats = interval_stats(100)
    expected = float(
        stats.recip_sum * Fraction(stats.prime_count) ** 2 / (2 * 2 * 4 * 100)
    )
    got = lower_bound_estimate(100, 2, 1)
    assert got == pytest.approx(expected)
    assert got == pytest.approx(0.0101682, rel=1e-4)


def test_assemble_set_y30():
    s = assemble_set(30, 30)
    assert s.primes == (2, 3, 5, 11, 13, 17, 19, 23, 29)
    assert s.size == 9
    assert s.u0_factors == {2: 1, 3: 1, 5: 1}
    assert s.size_reference == pytest.approx(30 / math.log(30))
    assert s.factor_count_reference == pytest.approx(
        math.log(30) / math.log(math.log(30))
    )


def test_assemble_set_tiny_u0():
    s = assemble_set(30, 1)
    assert s.u0_factors == {}
    assert s.primes == (11, 13, 17, 19, 23, 29)
    assert s.factor_count_reference is None
    with pytest.raises(ValidationError):
        assemble_set(30, 0)


def test_solution_count_benchmarks():
    assert solution_count_benchmarks(1) == (None, None)
    cons, head = solution_count_benchmarks(100)
    root, log_s = 100**0.25, math.log(100)
    assert cons == pytest.approx(math.exp(root / (10 * log_s**0.75)))
    assert head == pytest.approx(math.exp(root / log_s))
    assert head > cons  # headline always dominates


def test_full_construction_y30():
    run = run_construction(30, 2, 1)
    pairs, hist, result = run.pairs, run.histogram, run.result
    assert (run.k, run.ell, run.plan, run.census) == (2, 1, None, 5)
    assert run.assembled.u0 == 30 and run.assembled.primes == result.prime_set
    assert len(pairs) == 3
    assert hist.popular == 30
    assert hist.multiplicity == 1
    assert result.u0 == 30
    assert result.size == 9
    assert [(sp.a, sp.c) for sp in result.solutions] == [(390, 391)]
    sp = result.solutions[0]
    assert sp.factorization_a == {2: 1, 3: 1, 5: 1, 13: 1}
    assert sp.factorization_c == {17: 1, 23: 1}
    assert result.multiplicity == 1


def test_construction_checks_each_prime_of_s_once(monkeypatch):
    tested = []

    def counted(n):
        tested.append(n)
        return pt.is_prime(n)

    monkeypatch.setattr(sv, "is_prime", counted)
    sv._validated.cache_clear()
    result = run_construction(1000, 2, 1).result
    assert result.multiplicity == 5  # five solutions verified against one S
    assert sorted(tested) == list(result.prime_set)


def test_construction_empty_pairs():
    # (11, 22] products never land on 1 modulo the (5.5, 11] primes
    run = run_construction(22, 1, 1)
    assert run.pairs == [] and run.census == 0
    assert run.histogram is None and run.assembled is None and run.result is None


def test_construction_refuses_ell_above_k():
    # k = 1, ell = 2 lists no pairs, so only the length check can refuse it
    with pytest.raises(ValidationError, match="1 <= ell <= k"):
        run_construction(30, 1, 2)


@pytest.mark.parametrize(
    "plan", [{"alpha": Fraction(2)}, {"beta": Fraction(1, 5)}, {"alpha": 0, "beta": 1}]
)
def test_construction_refuses_plan_arguments_with_both_lengths(plan):
    with pytest.raises(ValidationError, match="nothing reads"):
        run_construction(30, 2, 1, **plan)
    # enforce_range is not refused but read, against the census range:
    # k = 2 is past y^(1/3)/(log y)^2 = 0.269 at y = 30
    assert run_construction(30, 2, 1, enforce_range=False).plan is None
    with pytest.raises(ValidationError, match="outside supported range"):
        run_construction(30, 2, 1, enforce_range=True)


def test_count_solutions_rejects_inconsistent_pair():
    bad = CongruencePair(
        product=10, modulus=3, quotient=2, product_factors=(10,), modulus_factors=(3,)
    )
    assembled = assemble_set(30, 2)
    with pytest.raises(VerificationError):
        count_solutions_for_u0([bad], assembled)


def test_count_solutions_filters_by_quotient():
    # quotients at y = 30 are {50, 48, 30}; ask for 48 and only 48
    pairs = solve_congruence_pairs(30, 2, 1)
    result = count_solutions_for_u0(pairs, assemble_set(30, 48))
    assert [(sp.a, sp.c) for sp in result.solutions] == [(528, 529)]
    assert result.solutions[0].factorization_c == {23: 2}
    assert result.multiplicity == 1

    other = count_solutions_for_u0(pairs, assemble_set(30, 50))
    assert [(sp.a, sp.c) for sp in other.solutions] == [(550, 551)]

    none = count_solutions_for_u0(pairs, assemble_set(30, 49))
    assert none.solutions == () and none.multiplicity == 0
