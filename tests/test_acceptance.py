"""Acceptance gate.

Ten numbered criteria, each printing exactly one verdict line of the form

    ACCEPTANCE <nn> <label>: PASS|FAIL  [detail]

to the real stdout (past pytest's capture) before asserting.  The verdict
lines are the human-readable summary; the asserts are the gate.

Criterion 03 is known to fail at these scales: the middle grid point
y = 10^4 sits marginally farther from the main term than y = 10^3
(|ratio - 1| = 0.016643 vs 0.016379), so the required nonincreasing trend
breaks at the first step even though the y = 10^5 endpoint lands within
1.3e-4 of the main term.  The counts behind the ratios were triple-checked
against independent counters; the criterion fails on correct data and is
left failing rather than weakened.  See README.
"""

import itertools
import json
import math
import time
from fractions import Fraction

from sunitlab.character_lab import (
    census_via_characters,
    character_table,
    large_sieve_check,
    moment_check,
    nonprincipal_contribution,
    principal_contribution,
    random_sieve_instances,
)
from sunitlab.cli_report import main as cli_main
from sunitlab.prime_tools import interval_stats
from sunitlab.smooth_verifier import enumerate_smooth_pairs, verify_solution
from sunitlab.tuple_census import (
    CensusParams,
    count_exact,
    main_term,
    representation_counts,
)

from oracles import oracle_census, oracle_conductors, oracle_prime_sums, oracle_smooth_pairs

GRID_Y = (20, 30, 40, 60)
GRID_KL = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))


# every verdict line lands here; conftest prints the list as a dedicated
# terminal section at the end of the run, past any output capture
VERDICTS: list[str] = []


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    VERDICTS.append(line)
    print(line, flush=True)


def test_criterion_01_census_three_route_equivalence():
    start = time.perf_counter()
    mismatches = []
    for y in GRID_Y:
        for k, ell in GRID_KL:
            params = CensusParams(y, k, ell)
            exact = count_exact(params).count
            brute = oracle_census(y, k, ell)
            chars = census_via_characters(params).count
            if not (exact == brute == chars):
                mismatches.append((y, k, ell, exact, brute, chars))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300
    _verdict(
        "01 census-three-route-equivalence",
        ok,
        f"{len(GRID_Y) * len(GRID_KL)} cells, {elapsed:.1f}s"
        + (f", mismatches={mismatches}" if mismatches else ""),
    )
    assert not mismatches, mismatches
    assert elapsed < 300, f"grid took {elapsed:.1f}s"


def test_criterion_02_census_golden_values():
    got = (
        count_exact(CensusParams(30, 1, 1)).count,
        count_exact(CensusParams(30, 2, 1)).count,
        count_exact(CensusParams(20, 1, 1)).count,
    )
    want = (1, 5, 0)
    ok = got == want
    _verdict("02 census-golden-values", ok, f"got {got}, want {want}")
    assert got == want


def test_criterion_03_main_term_trend():
    ratios = []
    for y in (10**3, 10**4, 10**5):
        params = CensusParams(y, 2, 1)
        n = count_exact(params).count
        ratios.append(Fraction(n) / main_term(params))
    gaps = [abs(r - 1) for r in ratios]
    nonincreasing = all(a >= b for a, b in zip(gaps, gaps[1:]))
    final_in_band = Fraction(1, 2) <= ratios[-1] <= 2
    ok = nonincreasing and final_in_band
    _verdict(
        "03 main-term-trend",
        ok,
        "ratios=" + ",".join(f"{float(r):.6f}" for r in ratios)
        + " gaps=" + ",".join(f"{float(g):.6f}" for g in gaps)
        + f" nonincreasing={nonincreasing} final_in_band={final_in_band}",
    )
    assert final_in_band, f"final ratio {float(ratios[-1]):.6f} outside [0.5, 2.0]"
    assert nonincreasing, (
        "distance to the main term must shrink along the grid, got "
        + ", ".join(f"{float(g):.6f}" for g in gaps)
    )


def _nonprincipal_by_characters(params: CensusParams, stats) -> float:
    """Independent float route: weighted non-principal character sums."""
    k, ell = params.k, params.ell
    total = 0.0
    for combo in itertools.combinations_with_replacement(stats.modulus_primes, ell):
        weight = math.factorial(ell)
        for mult in (combo.count(q) for q in set(combo)):
            weight //= math.factorial(mult)
        m = math.prod(combo)
        table = character_table(m)
        sums = oracle_prime_sums(table, stats.product_primes)
        acc = sum(complex(s) ** k for s in sums[oracle_conductors(table) != 1])
        total += weight * acc.real / table.totient
    return total


def test_criterion_04_orthogonality_decomposition():
    worst = 0.0
    failures = []
    for y in GRID_Y:
        stats = interval_stats(y)
        for k, ell in GRID_KL:
            params = CensusParams(y, k, ell)
            n = count_exact(params).count
            principal = principal_contribution(params)
            nonprincipal = _nonprincipal_by_characters(params, stats)
            gap = abs(float(principal) + nonprincipal - n)
            worst = max(worst, gap)
            if gap > 1e-6:
                failures.append((y, k, ell, gap))
    golden = principal_contribution(CensusParams(30, 2, 1))
    golden_ok = golden == Fraction(44, 15)
    ok = not failures and golden_ok
    _verdict(
        "04 orthogonality-decomposition",
        ok,
        f"worst |principal + nonprincipal - N| = {worst:.2e}, "
        f"principal(30,2,1) = {golden}",
    )
    assert golden_ok, f"principal(30,2,1) = {golden}, want 44/15"
    assert not failures, failures


def test_criterion_05_mean_square_inequalities():
    counts = {}
    failures = []
    for mode, seed in (("single-modulus", 1001), ("primitive-family", 1002)):
        checks = [
            large_sieve_check(inst, mode)
            for inst in random_sieve_instances(100, seed=seed, mode=mode)
        ]
        counts[mode] = sum(c.passed for c in checks)
        failures += [(mode, c) for c in checks if not c.passed]
    ok = not failures
    _verdict(
        "05 mean-square-inequalities",
        ok,
        f"single-modulus {counts['single-modulus']}/100, "
        f"primitive-family {counts['primitive-family']}/100",
    )
    assert not failures, failures


def test_criterion_06_moment_golden_values():
    two_t, four_t = moment_check(1, 20)
    ok = (
        two_t.lhs_exact == 8
        and four_t.lhs_exact == 20
        and abs(two_t.lhs - 8) < 1e-9
        and abs(four_t.lhs - 20) < 1e-9
    )
    _verdict(
        "06 moment-golden-values",
        ok,
        f"2t: exact {two_t.lhs_exact} float {two_t.lhs:.9f}; "
        f"4t: exact {four_t.lhs_exact} float {four_t.lhs:.9f}",
    )
    assert two_t.lhs_exact == 8
    assert four_t.lhs_exact == 20
    assert abs(two_t.lhs - 8) < 1e-9
    assert abs(four_t.lhs - 20) < 1e-9


def test_criterion_07_representation_identities():
    checked = 0
    failures = []
    for y in (12, 20, 30, 45, 60):
        stats = interval_stats(y)
        for t in (1, 2, 3):
            table = representation_counts(t, y)
            checked += 1
            if table.total != stats.prime_count**t:
                failures.append(("sum", t, y, table.total))
            if table.max_count > math.factorial(t):
                failures.append(("max", t, y, table.max_count))
    ok = not failures
    _verdict(
        "07 representation-identities",
        ok,
        f"{checked} (t, y) cells, exact" + (f", failures={failures}" if failures else ""),
    )
    assert not failures, failures


def test_criterion_08_end_to_end_construction(capsys):
    status = cli_main(["construct", "--y", "30", "--k", "2", "--ell", "1"])
    report = json.loads(capsys.readouterr().out)
    res = report["results"]

    u0 = res["construction"]["u0"]
    primes = tuple(int(p) for p in res["construction"]["prime_set"])
    size = int(res["construction"]["size"])
    sols = [(int(s["a"]), int(s["c"])) for s in res["construction"]["solutions"]]

    reverified = all(verify_solution(a, primes).ok for a, _ in sols)
    hist = res["histogram"]
    pigeonhole = int(hist["multiplicity"]) >= math.ceil(
        int(hist["total"]) / int(hist["distinct"])
    )
    census = count_exact(CensusParams(30, 2, 1)).count
    conversion = int(res["pair_count"]) * math.factorial(2) * math.factorial(1) >= census

    ok = (
        status == 0
        and u0 == "30"
        and primes == (2, 3, 5, 11, 13, 17, 19, 23, 29)
        and size == 9
        and (390, 391) in sols
        and reverified
        and pigeonhole
        and conversion
    )
    _verdict(
        "08 end-to-end-construction",
        ok,
        f"u0={u0}, |S|={size}, solutions={sols}, reverified={reverified}, "
        f"pigeonhole={pigeonhole}, conversion={conversion}",
    )
    assert status == 0
    assert u0 == "30"
    assert primes == (2, 3, 5, 11, 13, 17, 19, 23, 29)
    assert size == 9
    assert (390, 391) in sols
    assert reverified
    assert pigeonhole and conversion


def test_criterion_09_smooth_pair_oracle():
    small = [p.a for p in enumerate_smooth_pairs((2, 3), 100)]
    medium = [p.a for p in enumerate_smooth_pairs((2, 3, 5), 10**4)]
    want_small = [1, 2, 3, 8]
    want_medium = [1, 2, 3, 4, 5, 8, 9, 15, 24, 80]

    # independent per-integer oracle agrees with the enumeration
    oracle_ok = (
        [a for a, _ in oracle_smooth_pairs([2, 3], 101)] == want_small
        and [a for a, _ in oracle_smooth_pairs([2, 3, 5], 10**4 + 1)] == want_medium
    )

    # every constructor solution inside the scan limit appears in the list
    s9 = (2, 3, 5, 11, 13, 17, 19, 23, 29)
    oracle_as = {p.a for p in enumerate_smooth_pairs(s9, 1000)}
    from sunitlab.constructor import run_construction

    outcome = run_construction(30, 2, 1).result
    covered = all(s.a in oracle_as for s in outcome.solutions if s.c <= 1000)

    ok = small == want_small and medium == want_medium and oracle_ok and covered
    _verdict(
        "09 smooth-pair-oracle",
        ok,
        f"{{2,3}}<=100: {small}; {{2,3,5}}<=10^4: {medium}; "
        f"construction covered={covered}",
    )
    assert small == want_small
    assert medium == want_medium
    assert oracle_ok
    assert covered


def test_criterion_10_report_determinism(capsys, tmp_path):
    commands = [
        ["census", "--y", "30", "--k", "2", "--ell", "1",
         "--method", "exact,direct,characters,sampled",
         "--samples", "3000", "--seed", "42"],
        ["construct", "--y", "30", "--k", "2", "--ell", "1", "--limit", "600"],
        ["verify", "--s-primes", "2,3,5", "--limit", "500"],
        ["diagnose", "moments", "--y", "30", "--t", "1"],
        ["diagnose", "large-sieve", "--seed", "7", "--trials", "25"],
    ]
    unstable = []
    for argv in commands:
        blocks = []
        for _ in range(2):
            status = cli_main(argv)
            out = capsys.readouterr().out
            assert status == 0
            blocks.append(
                json.dumps(json.loads(out)["results"], sort_keys=True).encode()
            )
        if blocks[0] != blocks[1]:
            unstable.append(argv[0])
    ok = not unstable
    _verdict(
        "10 report-determinism",
        ok,
        f"{len(commands)} commands x 2 runs, byte-identical results"
        + (f"; unstable: {unstable}" if unstable else ""),
    )
    assert not unstable, unstable
