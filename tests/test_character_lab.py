import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunitlab.character_lab import (
    LargeSieveInstance,
    census_via_characters,
    character_table,
    enumerate_Qt,
    large_sieve_check,
    moment_check,
    moment_primitive_sum_exact,
    nonprincipal_contribution,
    phi_slack,
    principal_contribution,
    random_sieve_instances,
    tail_shape,
)
from sunitlab.errors import CapacityError, ValidationError
import sunitlab.character_lab as cl
from sunitlab.prime_tools import _phi_of_multiset, factorize, interval_stats
from sunitlab.tuple_census import (
    CensusParams,
    _modulus_multisets,
    count_exact,
    representation_counts,
)

from oracles import (
    oracle_character_values,
    oracle_conductors,
    oracle_phi,
    oracle_prime_sums,
)


def _mobius_oracle(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@given(m=st.integers(min_value=1, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_character_count_is_totient(m):
    table = character_table(m)
    conductors = oracle_conductors(table)
    assert len(conductors) == oracle_phi(m)
    assert table.totient == oracle_phi(m)
    assert conductors[0] == 1  # character 0 is the principal one


@given(m=st.integers(min_value=1, max_value=300))
@settings(max_examples=30, deadline=None)
def test_primitive_count_matches_moebius_formula(m):
    expected = sum(
        _mobius_oracle(m // d) * oracle_phi(d) for d in range(1, m + 1) if m % d == 0
    )
    assert np.count_nonzero(character_table(m).primitive_mask) == expected


@pytest.mark.parametrize("m", [1, 2, 8, 12, 15, 45, 97])
def test_character_values_unit_circle_and_support(m):
    table = character_table(m)
    values = oracle_character_values(table, range(3 * m + 1))
    for chi in values:
        for n in range(0, 2 * m + 1):
            v = chi[n]
            if math.gcd(n, m) == 1:
                assert abs(abs(v) - 1) < 1e-12
                assert chi[n + m] == v  # periodicity
            else:
                assert v == 0
    # the principal character is exactly 1 on units
    for n in range(m):
        if math.gcd(n, m) == 1:
            assert values[0, n] == 1


@given(
    m=st.integers(min_value=1, max_value=120),
    a=st.integers(min_value=0, max_value=400),
    b=st.integers(min_value=0, max_value=400),
)
@settings(max_examples=50, deadline=None)
def test_multiplicativity(m, a, b):
    for chi_a, chi_b, chi_ab in oracle_character_values(character_table(m), [a, b, a * b]):
        assert abs(chi_ab - chi_a * chi_b) < 1e-12


@pytest.mark.parametrize("m", [8, 12, 15, 45, 61])
def test_orthogonality_both_ways(m):
    table = character_table(m)
    phi = table.totient
    tol = 1e-9 * phi
    values = oracle_character_values(table, range(m))
    # row sums: sum over n mod m of chi(n)
    for chi, conductor in zip(values, oracle_conductors(table)):
        s = sum(chi)
        if conductor == 1:  # principal
            assert abs(s - phi) < tol
        else:
            assert abs(s) < tol
    # column sums: sum over chi of chi(a)
    for a in range(m):
        s = sum(values[:, a])
        if a % m == 1 % m:
            assert abs(s - phi) < tol
        else:
            assert abs(s) < tol


def test_conductor_goldens():
    t12 = character_table(12)
    assert sorted(oracle_conductors(t12)) == [1, 3, 4, 12]
    assert np.count_nonzero(t12.primitive_mask) == 1
    t9 = character_table(9)
    assert sorted(oracle_conductors(t9)) == [1, 3, 9, 9, 9, 9]
    assert np.count_nonzero(t9.primitive_mask) == 4
    # prime modulus: everything except the principal character is primitive
    t11 = character_table(11)
    assert np.count_nonzero(t11.primitive_mask) == 10 - 1
    assert oracle_conductors(t11)[0] == 1


@pytest.mark.parametrize("m", [4, 9, 12, 16, 24, 36, 40])
def test_conductor_is_minimal_induced_modulus(m):
    table = character_table(m)
    values = oracle_character_values(table, range(m))
    for row, f in zip(values, oracle_conductors(table)):
        def chi(n):
            return row[n % m]

        assert m % f == 0
        # chi factors through residues mod f on arguments coprime to m
        for a in range(1, 3 * m, 1):
            if math.gcd(a, m) != 1:
                continue
            b = a + f
            while math.gcd(b, m) != 1:
                b += f
            assert abs(chi(a) - chi(b)) < 1e-12
        # and through no proper divisor of f
        for d in range(1, f):
            if f % d != 0:
                continue
            witnesses = [
                (a, b)
                for a in range(1, m + 1)
                for b in range(a + d, a + 2 * m, d)
                if math.gcd(a, m) == 1
                and math.gcd(b, m) == 1
                and abs(chi(a) - chi(b)) > 1e-9
            ]
            assert witnesses, (m, f, d)


# the primitive mask comes from the local rule on exponent vectors; the
# restriction-test conductor is the independent route it must agree with
MASK_MODULI = (
    list(range(1, 401))
    + [2**e for e in range(9, 11)]  # 2^e up to 2^10
    + [2 * 211, 2 * 3 * 5 * 17, 2 * 27 * 11]  # 2 * odd
    + [29**2, 31**2]  # p^2
    + [11**3, 3**6]  # p^3 and beyond
)


def test_primitive_mask_matches_restriction_test():
    for m in MASK_MODULI:
        table = character_table(m)
        by_conductor = (oracle_conductors(table) == m).tolist()
        assert table.primitive_mask.tolist() == by_conductor, m


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 12, 45, 2310, 41 * 43, 73**2])
def test_sums_kernel_matches_character_values(m):
    rng = random.Random(m)
    ns = [rng.randrange(0, 3 * m + 2) for _ in range(24)]
    ns += [p * rng.randrange(1, 40) for p in factorize(m)]  # non-units mod m
    ns += [0, 1, m, m + 1]
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in ns]
    table = character_table(m)
    sums = table.sums(ns, coeffs)
    assert sums.shape == (table.totient,)
    tol = 1e-12 * sum(abs(a) for a in coeffs)
    for i, (chi, s) in enumerate(zip(oracle_character_values(table, ns), sums)):
        assert abs(s - sum(a * v for v, a in zip(chi, coeffs))) <= tol, (m, i)


@pytest.mark.parametrize("y", [20, 30])
@pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (2, 2)])
def test_census_via_characters_matches_exact(y, k, ell):
    params = CensusParams(y, k, ell)
    assert census_via_characters(params).count == count_exact(params).count


def test_principal_contribution_golden():
    assert principal_contribution(CensusParams(30, 2, 1)) == Fraction(44, 15)


def test_phi_slack_golden_y30():
    rep = phi_slack(CensusParams(30, 2, 1))
    assert rep.delta == Fraction(1440, 1573) - 1
    assert rep.delta <= 0
    assert rep.constant2_bound == Fraction(1, 15)
    # the aggressive small-y bound genuinely fails here; recorded, not hidden
    assert not rep.within_constant2
    assert rep.hard_bound == Fraction(1, 11)
    assert rep.within_hard


@pytest.mark.parametrize("y", [20, 30, 40, 60, 100])
@pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_phi_slack_hard_bound_always_holds(y, k, ell):
    rep = phi_slack(CensusParams(y, k, ell))
    assert rep.delta <= 0
    assert rep.within_hard


def test_nonprincipal_decomposition_golden_y30():
    params = CensusParams(30, 2, 1)
    rep = nonprincipal_contribution(params)
    assert rep.census == 5
    assert rep.principal == Fraction(44, 15)
    assert rep.value == 5 - Fraction(44, 15)
    # termwise bound: 48/11 + 64/13
    assert rep.direct_bound == pytest.approx(float(Fraction(1328, 143)))
    assert rep.direct_bound_holds
    assert set(rep.class_bounds) == {1}
    assert rep.class_bound_holds


@pytest.mark.parametrize("y,k,ell", [(20, 2, 1), (40, 2, 1), (40, 2, 2), (60, 3, 1)])
def test_nonprincipal_decomposition_consistency(y, k, ell):
    params = CensusParams(y, k, ell)
    rep = nonprincipal_contribution(params)
    assert rep.census == count_exact(params).count
    assert rep.value == rep.census - rep.principal
    assert abs(rep.value) <= rep.direct_bound * (1 + 1e-9)


def test_enumerate_Qt_structure():
    c1 = enumerate_Qt(1, 30)
    assert c1.moduli == (11, 13)
    assert c1.size == 2
    c2 = enumerate_Qt(2, 30)
    assert c2.moduli == (121, 143, 169)
    assert c2.size == 3
    assert c2.size_reference == pytest.approx(4**2 / 2)
    assert c2.within_reference
    # every modulus exceeds the range floor (y/4)^t
    for t, cls in ((1, c1), (2, c2)):
        assert all(m > (30 / 4) ** t for m in cls.moduli)


def test_enumerate_Qt_empty_modulus_interval():
    # y = 3: no prime in (y/4, y/2], so no modulus of any length
    assert [enumerate_Qt(t, 3).moduli for t in (1, 2, 3)] == [(), (), ()]


def test_enumerate_Qt_capacity_and_validation(monkeypatch):
    monkeypatch.setattr(cl, "QT_LIMIT", 10)
    with pytest.raises(CapacityError):
        enumerate_Qt(4, 400)
    with pytest.raises(ValidationError):
        enumerate_Qt(0, 30)


def test_large_sieve_known_single_modulus():
    # constant coefficients over one full period mod 7: orthogonality gives
    # phi(7) * 6 exactly on the left
    inst = LargeSieveInstance(length=6, coefficients=(1,) * 6, modulus=7)
    chk = large_sieve_check(inst, "single-modulus")
    assert chk.lhs == pytest.approx(36.0)
    assert chk.rhs == pytest.approx((6 + 7) * 6)
    assert chk.passed


def test_large_sieve_known_family():
    inst = LargeSieveInstance(length=10, coefficients=(1,) * 10, modulus_bound=5)
    chk = large_sieve_check(inst, "primitive-family")
    assert chk.lhs == pytest.approx(103.5)
    assert chk.rhs == pytest.approx((10 + 25 - 1) * 10)
    assert chk.passed


def test_large_sieve_validation():
    with pytest.raises(ValidationError):
        LargeSieveInstance(length=3, coefficients=(1, 2))
    inst = LargeSieveInstance(length=2, coefficients=(1, 1))
    with pytest.raises(ValidationError):
        large_sieve_check(inst, "single-modulus")  # no modulus attached
    with pytest.raises(ValidationError):
        large_sieve_check(inst, "primitive-family")  # no bound attached
    inst2 = LargeSieveInstance(length=2, coefficients=(1, 1), modulus=5)
    with pytest.raises(ValidationError):
        large_sieve_check(inst2, "between")


@pytest.mark.parametrize("mode", ["single-modulus", "primitive-family"])
def test_large_sieve_random_instances_all_pass(mode):
    for inst in random_sieve_instances(100, seed=20240517, mode=mode):
        chk = large_sieve_check(inst, mode)
        assert chk.passed, (mode, inst)


def test_random_instances_deterministic():
    a = list(random_sieve_instances(5, seed=3, mode="single-modulus"))
    b = list(random_sieve_instances(5, seed=3, mode="single-modulus"))
    assert a == b


def test_moment_goldens_y20():
    m2 = moment_check(1, 20, "2t")
    assert m2.lhs_exact == 8
    assert m2.reference == pytest.approx(20 * 4**2)
    m4 = moment_check(1, 20, "4t")
    assert m4.lhs_exact == 20
    assert m4.reference == pytest.approx((1 * 20 * 4) ** 2)


def test_moment_golden_y30_t2():
    assert moment_check(2, 30, "2t").lhs_exact == 9624


@pytest.mark.parametrize("t,y", [(1, 30), (2, 30), (1, 60), (2, 40)])
@pytest.mark.parametrize("which", ["2t", "4t"])
def test_moment_two_ways_agree(t, y, which):
    rep = moment_check(t, y, which)
    # float character enumeration vs exact integer identity
    assert abs(rep.lhs - rep.lhs_exact) <= 1e-6 * max(1.0, abs(rep.lhs_exact))


def test_moment_exact_brute_force_cross_check():
    # third route: evaluate |sum a(n) chi(n)|^2 directly from table values
    y = 30
    rep = representation_counts(1, y)
    for q in (11, 13, 143):
        table = character_table(q)
        values = oracle_character_values(table, list(rep.counts))
        brute = sum(
            abs(sum(a * v for v, a in zip(chi, rep.counts.values()))) ** 2
            for chi in values[oracle_conductors(table) == q]
        )
        assert abs(brute - moment_primitive_sum_exact(q, rep)) < 1e-6


def test_moment_validation():
    with pytest.raises(ValidationError):
        moment_check(1, 30, "6t")
    # shared prime between modulus and support must be refused
    rep = representation_counts(1, 30)  # support {17, 19, 23, 29}
    with pytest.raises(ValidationError):
        moment_primitive_sum_exact(17, rep)


def test_tail_shape_structure_y60():
    params = CensusParams(60, 4, 2)
    low = tail_shape(params, "low")
    high = tail_shape(params, "high")
    assert set(low.terms) == {1}  # t <= k/4 = 1
    assert set(high.terms) == {2}  # k/4 < t <= l
    assert low.lhs == pytest.approx(sum(low.terms.values()))
    assert high.lhs == pytest.approx(sum(high.terms.values()))
    assert low.ratio > 0 and high.ratio > 0

    # terms recomputed from public pieces, including the differing weights
    stats = interval_stats(60)
    lam = float(stats.recip_sum)

    def kth_moment(t):
        acc = 0.0
        for q in enumerate_Qt(t, 60).moduli:
            table = character_table(q)
            sums = oracle_prime_sums(table, stats.product_primes)
            acc += sum(abs(s) ** 4 for s in sums[oracle_conductors(table) == q])
        return acc

    assert low.terms[1] == pytest.approx((4 * 2 / 60) * lam * kth_moment(1))
    assert high.terms[2] == pytest.approx((4 / 60) ** 2 * kth_moment(2))


def test_tail_shape_empty_range():
    rep = tail_shape(CensusParams(30, 2, 1), "low")  # t <= 1/2: nothing
    assert rep.terms == {}
    assert rep.lhs == 0.0
    with pytest.raises(ValidationError):
        tail_shape(CensusParams(30, 2, 1), "sideways")


@pytest.mark.parametrize("y", [30, 100, 300])
def test_character_work_estimate_is_the_phi_sum(y, monkeypatch):
    st = interval_stats(y)
    for t in (1, 2, 3):
        phi_sum = sum(
            _phi_of_multiset(combo)
            for _m, combo, _w in _modulus_multisets(st.modulus_primes, t)
        )
        monkeypatch.setattr(cl, "CHARACTER_WORK_LIMIT", phi_sum)
        cl._check_character_work(st, [t])  # exactly at the cap: allowed
        monkeypatch.setattr(cl, "CHARACTER_WORK_LIMIT", phi_sum - 1)
        with pytest.raises(CapacityError, match=str(phi_sum)):
            cl._check_character_work(st, [t])


@pytest.mark.parametrize(
    "run,points",
    [
        (lambda: census_via_characters(CensusParams(100, 2, 1)), 222),
        # the direct bound and the class bound each walk Q_1
        (lambda: nonprincipal_contribution(CensusParams(100, 2, 1)), 444),
        (lambda: moment_check(1, 100, "2t"), 222),
        (lambda: tail_shape(CensusParams(100, 4, 1), "low"), 222),
    ],
    ids=["census", "nonprincipal", "moment", "tail"],
)
def test_character_work_refused_before_any_table(run, points, monkeypatch):
    # Q_1 at y = 100 holds 222 grid points (sum of phi(q)); allow 100
    def no_tables(*args, **kwargs):
        raise AssertionError("a character table was built before the refusal")

    monkeypatch.setattr(cl, "CHARACTER_WORK_LIMIT", 100)
    monkeypatch.setattr(cl, "character_table", no_tables)
    with pytest.raises(CapacityError, match=f"hold {points} points"):
        run()
