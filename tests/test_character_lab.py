import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

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
from sunitlab.prime_tools import factorize, interval_stats
from sunitlab.tuple_census import (
    CensusParams,
    count_exact,
    representation_counts,
)

from oracles import (
    oracle_character_values,
    oracle_conductors,
    oracle_factorize,
    oracle_multisets,
    oracle_phi,
    oracle_prime_sums,
    oracle_root_exponents,
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


@pytest.mark.parametrize("y,k,ell", [(30, 2, 1), (60, 2, 2), (100, 3, 3), (150, 4, 2)])
def test_principal_contribution_is_the_oracle_phi_sum(y, k, ell):
    # phi read off the index rows, against units counted one by one; from
    # ell = 2 on a modulus can repeat a prime
    st = interval_stats(y)
    pk = Fraction(st.prime_count) ** k
    multisets = oracle_multisets(st.modulus_primes, ell)
    want = sum((w * pk / oracle_phi(m) for m, _c, w in multisets), Fraction(0))
    assert principal_contribution(CensusParams(y, k, ell)) == want


def _phi_by_inclusion_exclusion(m):
    """The a in [1, m] that no prime factor of m divides, counted by inclusion-exclusion."""
    primes = list(oracle_factorize(m))
    return sum(
        (-1) ** len(ps) * (m // math.prod(ps))
        for r in range(len(primes) + 1)
        for ps in combinations(primes, r)
    )


@pytest.mark.parametrize(
    "y,k,ell", [(30, 2, 1), (300, 3, 2), (200, 6, 3), (60, 9, 5), (1000, 4, 3), (30, 20, 20)],
)
def test_principal_contribution_is_the_multiset_sum(y, k, ell):
    # the Euler product against the sum over Q_ell of w(m) P^k / phi(m),
    # multiset by multiset; at y = 30, ell = 20 the moduli pass int64
    st = interval_stats(y)
    pk = Fraction(st.prime_count) ** k
    multisets = oracle_multisets(st.modulus_primes, ell)
    want = sum((Fraction(w) * pk / _phi_by_inclusion_exclusion(m) for m, _c, w in multisets), Fraction(0))
    assert principal_contribution(CensusParams(y, k, ell)) == want


def test_phi_slack_golden_y30():
    params = CensusParams(30, 2, 1)
    assert principal_contribution(params) == Fraction(44, 15)
    rep = phi_slack(params, principal_contribution(params))
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
    params = CensusParams(y, k, ell)
    rep = phi_slack(params, principal_contribution(params))
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
    assert tuple(c1.moduli) == (11, 13)
    assert c1.size == 2
    c2 = enumerate_Qt(2, 30)
    assert tuple(c2.moduli) == (121, 143, 169)
    assert c2.size == 3
    assert c2.size_reference == pytest.approx(4**2 / 2)
    assert c2.within_reference
    # every modulus exceeds the range floor (y/4)^t
    for t, cls in ((1, c1), (2, c2)):
        assert all(m > (30 / 4) ** t for m in cls.moduli)


@pytest.mark.parametrize("y,t", [(1000, 1), (1000, 2), (100, 3), (12, 5), (30, 40), (3, 2)])
def test_enumerate_Qt_matches_the_multiset_products(y, t):
    # (30, 40) passes int64 (13^40), so its moduli are Python ints; (3, 2) is empty
    q_primes = interval_stats(y).modulus_primes
    moduli = enumerate_Qt(t, y).moduli
    assert list(moduli) == sorted(math.prod(c) for c in combinations_with_replacement(q_primes, t))
    assert all(type(m) is int for m in moduli)


def test_enumerate_Qt_empty_modulus_interval():
    # y = 3: no prime in (y/4, y/2], so no modulus of any length
    assert [tuple(enumerate_Qt(t, 3).moduli) for t in (1, 2, 3)] == [(), (), ()]


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
    m2, m4 = moment_check(1, 20)
    assert (m2.which, m4.which) == ("2t", "4t")
    assert m2.lhs_exact == 8
    assert m2.reference == pytest.approx(20 * 4**2)
    assert m4.lhs_exact == 20
    assert m4.reference == pytest.approx((1 * 20 * 4) ** 2)


def test_moment_golden_y30_t2():
    assert moment_check(2, 30)[0].lhs_exact == 9624


@pytest.mark.parametrize("t,y", [(1, 30), (2, 30), (1, 60), (2, 40)])
@pytest.mark.parametrize("which", ["2t", "4t"])
def test_moment_two_ways_agree(t, y, which):
    rep = {r.which: r for r in moment_check(t, y)}[which]
    # float character enumeration vs exact integer identity
    assert abs(rep.lhs - rep.lhs_exact) <= 1e-6 * max(1.0, abs(rep.lhs_exact))


def test_moment_exact_brute_force_cross_check():
    # third route: evaluate |sum a(n) chi(n)|^2 directly from table values
    y = 30
    rep = representation_counts(1, y)
    for q in (11, 13, 143):
        table = character_table(q)
        values = oracle_character_values(table, rep.products.tolist())
        brute = sum(
            abs(sum(a * v for v, a in zip(chi, rep.counts.tolist()))) ** 2
            for chi in values[oracle_conductors(table) == q]
        )
        assert abs(brute - moment_primitive_sum_exact(q, rep)) < 1e-6


def _exact_primitive_moment(q, products, counts):
    """sum over primitive chi mod q of |sum a(n) chi(n)|^2 in integers, character
    by character.  With chi = z^e for z a root of unity of order E, S_chi is a
    polynomial in z and |S_chi|^2 its cyclic autocorrelation r[d]; the total
    is rational, so it is its trace over phi(E), and z^d traces to the
    Ramanujan sum mu(E/g) phi(E)/phi(E/g), g = gcd(d, E)."""
    table = character_table(q)
    by_residue = {}
    for n, a in zip(products, counts):
        by_residue[n % q] = by_residue.get(n % q, 0) + a
    exponents, order = oracle_root_exponents(table, list(by_residue))
    r = [0] * order
    for row in exponents[oracle_conductors(table) == q]:
        c = [0] * order
        for e, a in zip(row.tolist(), by_residue.values()):
            if e >= 0:
                c[e] += a
        for d in range(order):
            r[d] += sum(c[e] * c[(e + d) % order] for e in range(order))
    phi = oracle_phi(order)
    trace = 0
    for d in range(order):
        g = math.gcd(d, order)
        trace += r[d] * _mobius_oracle(order // g) * phi // oracle_phi(order // g)
    assert trace % phi == 0
    return trace // phi


@pytest.mark.parametrize(
    "q,t",
    [(q, t) for t in (40, 15, 16) for q in (11, 13, 143)],
    ids=[f"{q}" if t == 40 else f"{q}-t{t}" for t in (40, 15, 16) for q in (11, 13, 143)],
)
def test_moment_exact_past_int64(q, t):
    # P^t = 4^t ordered tuples.  At t = 40 the counts are Python ints; at
    # t = 15 and 16 they are int64, and the sums of squared tallies, up to
    # total^2 = 2^60 and 2^64, are exact in an int64 tally only at t = 15
    rep = representation_counts(t, 30)
    assert rep.counts.dtype == (object if t == 40 else np.int64) and rep.total == 4**t
    want = _exact_primitive_moment(q, rep.products.tolist(), rep.counts.tolist())
    assert moment_primitive_sum_exact(q, rep) == want


def test_each_modulus_is_transformed_once(monkeypatch):
    calls = []
    sums = cl.CharacterTable.sums

    def counted(table, *args):
        calls.append(table.modulus)
        return sums(table, *args)

    monkeypatch.setattr(cl.CharacterTable, "sums", counted)
    for y, k, ell in ((100, 3, 2), (40, 4, 3)):
        calls.clear()
        nonprincipal_contribution(CensusParams(y, k, ell))
        classes = [enumerate_Qt(t, y).size for t in range(1, ell + 1)]
        assert len(calls) == len(set(calls)) == sum(classes)
    for t, y in ((1, 100), (2, 60)):
        calls.clear()
        assert moment_check(t, y)[0].class_size == len(calls) == len(set(calls)) == enumerate_Qt(t, y).size


def test_moment_validation():
    # shared prime between modulus and support must be refused
    rep = representation_counts(1, 30)  # support {17, 19, 23, 29}
    with pytest.raises(ValidationError):
        moment_primitive_sum_exact(17, rep)


def test_tail_shape_structure_y60():
    params = CensusParams(60, 4, 2)
    low, high = tail_shape(params)
    assert (low.which, high.which) == ("low", "high")
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
    rep, _high = tail_shape(CensusParams(30, 2, 1))  # t <= 1/2: nothing
    assert rep.terms == {}
    assert rep.lhs == 0.0 and isinstance(rep.lhs, float)


@pytest.mark.parametrize("y", [30, 100, 300])
def test_character_work_estimate_is_the_phi_sum(y, monkeypatch):
    st = interval_stats(y)
    monkeypatch.setattr(cl, "CHARACTER_MODULUS_LIMIT", 150**3)  # Q_3 at y = 300 holds 149^3
    for t in (1, 2, 3):
        phi_sum = sum(oracle_phi(m) for m, _c, _w in oracle_multisets(st.modulus_primes, t))
        monkeypatch.setattr(cl, "CHARACTER_WORK_LIMIT", phi_sum)
        cl._check_character_work(st, [t])  # exactly at the cap: allowed
        monkeypatch.setattr(cl, "CHARACTER_WORK_LIMIT", phi_sum - 1)
        with pytest.raises(CapacityError, match=str(phi_sum)):
            cl._check_character_work(st, [t])


def test_character_work_refused_by_its_lower_bound():
    # y = 10^6, t in 1..27: sum_t |Q_t| (min q - 1)^t has 776 bits, so the
    # refusal names 2^775 without expanding the product over the modulus primes
    st = interval_stats(10**6)
    ts = range(1, 28)
    with pytest.raises(CapacityError) as refusal:
        cl._check_character_work(st, ts)
    assert f"t in {list(ts)}, hold at least 2^775 points (sum of phi(q))" in str(refusal.value)
    # the exact sum: prod_p (1 - x)/(1 - px) = (1 - x)^|Q| * sum_t h_t x^t,
    # h_t the complete homogeneous sums of the modulus primes
    h = [1] + [0] * 27
    for p in st.modulus_primes:
        for d in range(1, 28):
            h[d] += p * h[d - 1]
    n = len(st.modulus_primes)
    exact = sum((-1) ** j * math.comb(n, j) * h[t - j] for t in ts for j in range(t + 1))
    assert 2**775 <= exact


@pytest.mark.parametrize(
    "run,points",
    [
        (lambda: census_via_characters(CensusParams(100, 2, 1)), 222),
        # one walk over Q_1 gives both the direct and the class bound
        (lambda: nonprincipal_contribution(CensusParams(100, 2, 1)), 222),
        (lambda: moment_check(1, 100), 222),
        (lambda: tail_shape(CensusParams(100, 4, 1)), 222),
    ],
    ids=["census", "nonprincipal", "moment", "tail"],
)
def test_character_work_refused_before_any_table(run, points, monkeypatch):
    # Q_1 at y = 100 holds 222 grid points (sum of phi(q)); allow 100
    def no_tables(*args, **kwargs):
        raise AssertionError("a character table was built before the refusal")

    monkeypatch.setattr(cl, "CHARACTER_WORK_LIMIT", 100)
    monkeypatch.setattr(cl, "CharacterTable", no_tables)
    with pytest.raises(CapacityError, match=f"hold {points} points"):
        run()


def test_moment_check_refuses_the_4t_table_before_any_character_table(monkeypatch):
    # y = 100: 10 product primes, so 10 multisets of one and 55 of two
    import sunitlab.tuple_census as tc

    def no_tables(*args, **kwargs):
        raise AssertionError("a character table was built before the refusal")

    monkeypatch.setattr(tc, "REPRESENTATION_LIMIT", 20)
    monkeypatch.setattr(cl, "CharacterTable", no_tables)
    with pytest.raises(CapacityError, match="multisets of 2 product primes: 55"):
        moment_check(1, 100)


@pytest.mark.parametrize(
    "run",
    [
        lambda: moment_check(5, 40),
        lambda: tail_shape(CensusParams(40, 20, 5)),
        lambda: census_via_characters(CensusParams(40, 6, 5)),
        lambda: nonprincipal_contribution(CensusParams(40, 6, 5)),
    ],
    ids=["moments", "tails", "census", "decomposition"],
)
def test_character_routes_refuse_before_any_table(run, monkeypatch):
    # Q_5 at y = 40 is admitted by its 2.2e7 grid points but holds moduli
    # past 10^6, the least 11 * 17^3 * 19 = 1026817: refused before the
    # census, the representation tables or any character table
    def started(*args, **kwargs):
        raise AssertionError("the work started before the refusal")

    for name in ("CharacterTable", "congruence_solutions", "representation_counts"):
        monkeypatch.setattr(cl, name, started)
    with pytest.raises(CapacityError, match=r"character table modulus 1026817, over the cap 1000000"):
        run()


def test_walks_build_their_tables_outside_the_cache():
    cl._cached_table.cache_clear()
    census_via_characters(CensusParams(100, 2, 1))
    nonprincipal_contribution(CensusParams(60, 3, 2))
    moment_check(1, 60)
    tail_shape(CensusParams(60, 4, 2))
    assert cl._cached_table.cache_info().currsize == 0
    assert character_table(7) is character_table(7)  # the large sieve's repeats still hit
    info = cl._cached_table.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
