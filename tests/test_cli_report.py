import argparse
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sunitlab
import sunitlab.constructor as constructor
from sunitlab.cli_report import build_parser, encode, main, solutions_csv
from sunitlab.errors import VerificationError
from sunitlab.prime_tools import interval_stats, is_prime
from sunitlab.smooth_verifier import SmoothPair
from sunitlab.tuple_census import census_over


def run_cli(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(argv, capsys):
    status, out, err = run_cli(argv, capsys)
    assert status == 0, err
    return json.loads(out)


def error_of(argv, capsys):
    status, out, err = run_cli(argv, capsys)
    assert status != 0
    return status, json.loads(err)["error"]


# ---------------------------------------------------------------- encoding

def test_encode_scalars():
    from fractions import Fraction

    assert encode(5) == "5"
    assert encode(True) is True
    assert encode(2.5) == 2.5
    assert encode(Fraction(24, 143)) == {"num": "24", "den": "143"}
    assert encode(complex(1, -2)) == {"re": 1.0, "im": -2.0}
    assert encode([1, (2, 3)]) == ["1", ["2", "3"]]
    assert encode({11: 2}) == {"11": "2"}
    with pytest.raises(TypeError):
        encode(object())


def test_solutions_csv_format():
    pair = SmoothPair(
        a=390, c=391,
        factorization_a={2: 1, 3: 1, 5: 1, 13: 1},
        factorization_c={17: 1, 23: 1},
    )
    text = solutions_csv([pair])
    assert text.splitlines() == [
        "a,c,factorization_a,factorization_c",
        "390,391,2^1*3^1*5^1*13^1,17^1*23^1",
    ]


# ------------------------------------------------------------------ census

def test_census_three_methods_agree(capsys):
    report = run_json(
        ["census", "--y", "30", "--k", "2", "--ell", "1",
         "--method", "exact,direct,characters"],
        capsys,
    )
    assert set(report) == {"config", "results", "timing", "version"}
    res = report["results"]
    counts = {r["method"]: r["count"] for r in res["census"]}
    assert counts == {"residue-dp": "5", "direct": "5", "characters": "5"}
    assert res["interval"]["recip_sum"] == {"num": "24", "den": "143"}
    assert res["interval"]["prime_count"] == "4"
    assert res["warnings"] == []
    for r in res["census"]:
        assert r["main_term"] == {"num": "384", "den": "143"}
        assert r["error_bound"]["applicable"] is True


def test_census_sampled_record(capsys):
    report = run_json(
        ["census", "--y", "30", "--k", "2", "--ell", "1",
         "--method", "sampled", "--samples", "5000", "--seed", "11"],
        capsys,
    )
    (rec,) = report["results"]["census"]
    assert rec["method"] == "sampled"
    assert isinstance(rec["count"], float)
    assert isinstance(rec["std_error"], float) and rec["std_error"] > 0


def test_census_argument_errors(capsys):
    status, err = error_of(["census", "--y", "30"], capsys)
    assert status == 2 and err["code"] == "validation"
    status, err = error_of(
        ["census", "--y", "30", "--k", "1", "--ell", "2"], capsys
    )
    assert status == 2
    status, err = error_of(
        ["census", "--y", "30", "--k", "2", "--ell", "1", "--method", "sampled"],
        capsys,
    )
    assert status == 2 and "samples" in err["message"]
    status, err = error_of(
        ["census", "--y", "30", "--k", "2", "--ell", "1", "--method", "psychic"],
        capsys,
    )
    assert status == 2


def test_census_empty_interval_warns(capsys):
    report = run_json(
        ["census", "--y", "3", "--k", "1", "--ell", "1", "--method", "exact"],
        capsys,
    )
    res = report["results"]
    assert res["warnings"] != []
    assert res["census"][0]["count"] == "0"
    assert res["census"][0]["empty_interval"] is True


def test_sieve_limit_holds_after_a_cached_success(capsys, monkeypatch):
    run_json(CENSUS_30, capsys)  # the statistics at y = 30 are now cached
    monkeypatch.setenv("SUNIT_MAX_SIEVE", "abc")
    status, err = error_of(CENSUS_30, capsys)
    assert status == 2 and err["code"] == "validation"
    monkeypatch.setenv("SUNIT_MAX_SIEVE", "20")
    status, err = error_of(CENSUS_30, capsys)
    assert status == 3 and err["code"] == "capacity" and "30" in err["message"]


def test_census_capacity_exit(capsys, monkeypatch):
    monkeypatch.setenv("SUNIT_MAX_SIEVE", "1000")
    status, err = error_of(
        ["census", "--y", "5000", "--k", "1", "--ell", "1", "--method", "exact"],
        capsys,
    )
    assert status == 3 and err["code"] == "capacity"


# --------------------------------------------------------------- construct

def test_construct_end_to_end(tmp_path, capsys):
    out = tmp_path / "run.json"
    report = run_json(
        ["construct", "--y", "30", "--k", "2", "--ell", "1",
         "--limit", "1000", "--out", str(out)],
        capsys,
    )
    res = report["results"]
    assert res["plan"] == {"k": "2", "ell": "1", "method": "explicit"}
    assert res["pair_count"] == "3"
    assert res["conversion"]["census"] == "5"
    assert res["conversion"]["ordered_per_pair"] == "2"
    assert res["conversion"]["lower_bound"] == {"num": "5", "den": "2"}
    assert res["conversion"]["holds"] is True
    assert res["histogram"]["popular"] == "30"
    assert res["histogram"]["pigeonhole_holds"] is True
    assert res["construction"]["u0"] == "30"
    assert res["construction"]["size"] == "9"
    sols = res["construction"]["solutions"]
    assert [s["a"] for s in sols] == ["390"]
    assert res["oracle_cross_check"]["all_found"] is True

    # artifacts: primary report, prime set, solution list
    assert json.loads(out.read_text()) == report
    s_payload = json.loads((tmp_path / "run.json.S.json").read_text())
    assert s_payload["u0"] == "30"
    assert s_payload["primes"] == ["2", "3", "5", "11", "13", "17", "19", "23", "29"]
    csv_text = (tmp_path / "run.json.solutions.csv").read_text()
    assert "390,391" in csv_text


def test_construct_planned_parameters_warn(capsys):
    report = run_json(["construct", "--y", "30"], capsys)
    res = report["results"]
    assert res["plan"]["method"] == "exponent-plan"
    assert res["plan"]["k"] == "2" and res["plan"]["ell"] == "1"
    assert any("clamped" in w for w in res["warnings"])


def test_construct_no_pairs_is_clean_exit(capsys):
    report = run_json(["construct", "--y", "22", "--k", "1", "--ell", "1"], capsys)
    res = report["results"]
    assert res["pairs"] == []
    assert res["histogram"] is None
    assert res["construction"] is None
    assert any("nothing to construct" in w for w in res["warnings"])


def test_construct_refuses_pairs_the_census_does_not_count(monkeypatch, capsys):
    # an engine that loses one pair: the listed pairs no longer weigh the census
    engine = constructor.congruence_solutions
    monkeypatch.setattr(
        constructor, "congruence_solutions", lambda *args, **kw: engine(*args, **kw)[:-1]
    )
    message = "2 listed pairs stand for 3 ordered tuples, the census counts 5"
    with pytest.raises(VerificationError, match=message):
        constructor.run_construction(30, 2, 1)
    status, out, err = run_cli(["construct", "--y", "30", "--k", "2", "--ell", "1"], capsys)
    assert status == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "verification"
    assert message in error["message"]


@pytest.mark.parametrize("k", [500, 1000])
def test_census_past_the_double_range_reports_null_floats(k, capsys):
    report = run_json(["census", "--y", "30", "--k", str(k), "--ell", "1"], capsys)
    (rec,) = report["results"]["census"]
    st = interval_stats(30)
    count = census_over(st.product_primes, st.modulus_primes, k, 1)
    assert int(rec["count"]) == count
    # the bound 4 lambda P * 30^(k/2) is past any double at both k; its exact copy is kept
    assert rec["error_bound"]["value"] is None
    bound = Fraction(int(rec["error_bound"]["exact"]["num"]), int(rec["error_bound"]["exact"]["den"]))
    assert bound > 10**308
    main = Fraction(int(rec["main_term"]["num"]), int(rec["main_term"]["den"]))
    if k == 500:  # P^k lambda = 4^500 * 24/143 still fits a double
        assert rec["ratio"] == count / float(main)
    else:
        assert main > 10**308 and rec["ratio"] is None


def test_qt_past_the_double_range_reports_null_floats(capsys):
    report = run_json(["diagnose", "qt", "--y", "30", "--t", "1000"], capsys)
    qt = report["results"]["qt"]
    assert qt["size"] == "1001"  # t-multisets of {11, 13}
    assert qt["min_modulus"] == str(11**1000)
    assert qt["range_floor"] is None


def test_construct_csv_artifact(tmp_path, capsys):
    out = tmp_path / "sols.csv"
    run_json(
        ["construct", "--y", "30", "--k", "2", "--ell", "1",
         "--format", "csv", "--out", str(out)],
        capsys,
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "a,c,factorization_a,factorization_c"
    assert lines[1].startswith("390,391,")


def test_format_rules(capsys):
    status, err = error_of(
        ["construct", "--y", "30", "--k", "2", "--ell", "1", "--format", "csv"],
        capsys,
    )
    assert status == 2 and "--out" in err["message"]
    status, err = error_of(
        ["census", "--y", "30", "--k", "2", "--ell", "1", "--format", "csv",
         "--out", "x.csv"],
        capsys,
    )
    assert status == 2


# ------------------------------------------------------------------ verify

def test_verify_inline_primes(capsys):
    report = run_json(
        ["verify", "--s-primes", "2,3", "--limit", "100", "--check-a", "8"],
        capsys,
    )
    res = report["results"]
    assert res["pair_count"] == "4"
    assert [p["a"] for p in res["pairs"]] == ["1", "2", "3", "8"]
    assert res["certificate"]["ok"] is True
    assert res["certificate"]["factorization_a"] == {"2": "3"}


def test_verify_round_trip_from_construct_artifact(tmp_path, capsys):
    out = tmp_path / "run.json"
    run_json(
        ["construct", "--y", "30", "--k", "2", "--ell", "1", "--out", str(out)],
        capsys,
    )
    report = run_json(
        ["verify", "--s-file", str(tmp_path / "run.json.S.json"),
         "--limit", "500"],
        capsys,
    )
    res = report["results"]
    assert res["pair_count"] == "70"
    assert res["s_primes"] == ["2", "3", "5", "11", "13", "17", "19", "23", "29"]
    # the constructed solution is inside the oracle list
    assert ["390", "391"] in [[p["a"], p["c"]] for p in res["pairs"]]


def test_verify_validation(capsys):
    status, err = error_of(["verify", "--s-primes", "2,3"], capsys)
    assert status == 2 and "limit" in err["message"]
    status, err = error_of(["verify", "--limit", "50"], capsys)
    assert status == 2
    status, err = error_of(
        ["verify", "--s-primes", "2,4", "--limit", "50"], capsys
    )
    assert status == 2 and "prime" in err["message"]


# ---------------------------------------------------------------- boundary

def test_census_encodes_lambda_past_the_int_digit_limit(capsys):
    # lambda's denominator at y = 5e4 has 5,414 digits, past the
    # interpreter's 4,300-digit int-to-str conversion limit
    report = run_json(
        ["census", "--y", "50000", "--k", "2", "--ell", "1",
         "--method", "sampled", "--samples", "10", "--seed", "1"],
        capsys,
    )
    got = report["results"]["interval"]["recip_sum"]
    want = interval_stats(50000).recip_sum
    assert len(got["den"]) > sys.get_int_max_str_digits()
    # Decimal reads the digits without int(str), which trips the same limit
    assert Decimal(got["num"]) == want.numerator
    assert Decimal(got["den"]) == want.denominator


CENSUS_30 = ["census", "--y", "30", "--k", "2", "--ell", "1"]


@pytest.mark.parametrize(
    "argv,env",
    [
        (["census", "--y", "nan", "--k", "2", "--ell", "1"], {}),
        (["diagnose", "large-sieve", "--seed", "1", "--trials", "0"], {}),
        (["diagnose", "large-sieve", "--seed", "1", "--trials", "-4"], {}),
        (["verify", "--s-file", "{missing}", "--limit", "10"], {}),
        (["verify", "--s-file", "{malformed}", "--limit", "10"], {}),
        (["verify", "--s-file", "{floats}", "--limit", "10"], {}),
        (["verify", "--s-file", "{overflowing}", "--limit", "10"], {}),
        (["verify", "--s-file", "{boolean}", "--limit", "10"], {}),
        (CENSUS_30, {"SUNIT_MAX_SIEVE": "abc"}),
        (CENSUS_30, {"SUNIT_MAX_SIEVE": "-5"}),
        (["diagnose", "large-sieve", "--seed", "31", "--Q", "0", "--trials", "1"], {}),
        (["diagnose", "large-sieve", "--seed", "31", "--q", "-2", "--trials", "1"], {}),
        (["construct", "--y", "inf"], {}),
        (CENSUS_30 + ["--out", "{missing_dir}/run.json"], {}),
        (["construct", "--y", "30", "--k", "2", "--ell", "1", "--alpha", "2"], {}),
        (["construct", "--y", "30", "--k", "2", "--ell", "1", "--beta", "1/5"], {}),
        # k = 2 is past y^(1/3)/(log y)^2 = 0.269, as census --enforce-range says
        (["construct", "--y", "30", "--k", "2", "--ell", "1", "--enforce-range"], {}),
    ],
    ids=[
        "y-nan", "trials-zero", "trials-negative", "s-file-missing",
        "s-file-malformed", "s-file-floats", "s-file-overflowing-float", "s-file-bool",
        "max-sieve-text", "max-sieve-negative",
        "family-bound-zero", "modulus-negative", "plan-y-inf", "out-missing-dir",
        "alpha-unread", "beta-unread", "explicit-k-out-of-range",
    ],
)
def test_boundary_input_gives_one_validation_error_line(
    argv, env, tmp_path, monkeypatch, capsys
):
    # s-files: not JSON, floats (int() would truncate 2.9 to 2), a float past
    # the double range (int(inf) raises OverflowError), a bool
    s_files = {
        "malformed": "{not json",
        "floats": '{"primes": [2.9, 3.5, 5]}',
        "overflowing": '{"primes": [2, 3, 1e400]}',
        "boolean": "[2, true, 5]",
    }
    for name, text in s_files.items():
        (tmp_path / f"{name}.json").write_text(text)
    paths = {name: tmp_path / f"{name}.json" for name in s_files}
    argv = [
        a.format(missing=tmp_path / "missing.json", missing_dir=tmp_path / "nodir", **paths)
        for a in argv
    ]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    status, out, err = run_cli(argv, capsys)
    assert status == 2
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["code"] == "validation"


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--y", "30", "--k", "abc", "--ell", "1"],
        ["census", "--y", "thirty", "--k", "2", "--ell", "1"],
        ["construct", "--y", "30", "--alpha", "1/0"],
        CENSUS_30 + ["--format", "xml"],
        ["diagnose", "everything", "--y", "30"],
        CENSUS_30 + ["--bogus"],
        ["fly"],
        [],
    ],
    ids=[
        "int-type", "float-type", "rational-type", "flag-choice", "topic-choice",
        "unknown-flag", "unknown-command", "no-command",
    ],
)
def test_usage_error_gives_one_validation_error_line(argv, capsys):
    status, out, err = run_cli(argv, capsys)
    assert status == 2
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["code"] == "validation"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,estimate",
    [
        # Q_1 at y = 1e6 holds about 19,000 primes near 3.75e5: about 7e9
        # character-table points, which would take minutes to transform
        (["diagnose", "tails", "--y", "1e6", "--k", "4", "--ell", "2"], 7291185550),
        # k = ell: 14 quotient passes over C(8,393, 2) products, plus the
        # 9,943,570 moduli (y = 9e4 now runs by quotient in about 2 s)
        (["census", "--y", "2e5", "--k", "2", "--ell", "2"], 502981962),
        # 2,160 moduli x (4,038 residues + one 4,038 x 4,038 fold)
        (["census", "--y", "9e4", "--k", "3", "--ell", "1"], 35228481120),
        # the family tables for q <= 1e5 hold up to Q(Q+1)/2 points
        (["diagnose", "large-sieve", "--seed", "1", "--Q", "100000", "--trials", "100"], 5000050000),
        # 27^12 * 14 ordered tuples: past 2^53 the float census rounded to a
        # wrong count (19693721087596276 against the exact 19693721087596270)
        (["census", "--method", "characters", "--y", "300", "--k", "12", "--ell", "1"], 27**12 * 14),
        # 4^k * 2 tuples: writing the exact count took minutes
        (["census", "--method", "direct", "--y", "30", "--k", "10000000", "--ell", "1"], "2^20000001"),
        # 10^12 samples x 3 draws, which no limit bounded before
        (["census", "--method", "sampled", "--y", "30", "--k", "2", "--ell", "1",
          "--samples", "1000000000000", "--seed", "1"], 3 * 10**12),
        # exact values past 2^20 bits: the main term and error bound at k = 10^6,
        # and lambda at y = 4e6 (1,442,845 bits); writing either report took 10 s
        (["census", "--method", "sampled", "--y", "30", "--k", "1000000", "--ell", "1",
          "--samples", "1", "--seed", "1"], 3500012),
        (["census", "--method", "sampled", "--y", "4e6", "--k", "1", "--ell", "1",
          "--samples", "1", "--seed", "1"], 1475626),
        # Psi(10^11 + 1, primes <= 100) passes 10^7 while the smooth integers
        # are generated (10^10 lists 12,149 pairs)
        (["verify", "--s-primes", ",".join(str(p) for p in range(2, 101) if is_prime(p)),
          "--limit", str(10**11)], "at least 11600235"),
        # c = a + 1 must fit int64
        (["verify", "--s-primes", "2,3", "--limit", str(2**63 - 1)], 2**63),
        # every u0 is at least (3^1000 - 1)/2: trial division took 3 s on it
        # before the primality test refused the cofactor it left
        (["construct", "--y", "5", "--k", "1000", "--ell", "1"], 1584),
    ],
    ids=[
        "tails-1e6", "census-k2-ell2", "census-k3-ell1", "large-sieve-family", "census-characters-2^53",
        "census-direct-huge-k", "census-sampled-draws", "census-exact-bits-k", "census-exact-bits-y",
        "verify-smooth-count", "verify-int64", "construct-hopeless-u0",
    ],
)
def test_runaway_command_refused_up_front(argv, estimate):
    proc = _run_module(argv, capture_output=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == "capacity"
    assert str(estimate) in error["message"]


def _readme_flag_table():
    """{command: (required cell, optional cell)} of README's flags-per-command
    table, each cell as its list of backticked names."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Flags per command", 1)[1].split("\n#", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return {
        cells[0].strip("|` "): tuple(re.findall(r"`([^`]+)`", cell) for cell in cells[1:])
        for cells in rows
    }


def test_readme_flag_table_lists_each_commands_flags():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    table = _readme_flag_table()
    assert set(table) == set(commands)
    for name, sp in commands.items():
        actions = [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        in_required_group = {
            a for group in sp._mutually_exclusive_groups if group.required for a in group._group_actions
        }
        required = [a for a in actions if a.required or a in in_required_group]
        optional = [a for a in actions if a not in required]
        required_cell, optional_cell = table[name]
        for cell, group in ((required_cell, required), (optional_cell, optional)):
            names = [a.option_strings[0] if a.option_strings else a.dest for a in group]
            assert sorted(cell) == sorted(names), name


def _run_module(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(sunitlab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "sunitlab", *argv], text=True, env=env, timeout=30, **kwargs
    )


def test_closed_stdout_exits_1_with_one_io_line():
    read, write = os.pipe()
    os.close(read)  # every write to stdout now fails with a broken pipe
    try:
        proc = _run_module(CENSUS_30, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["code"] == "io"


def test_write_failure_after_the_report_exits_1(tmp_path, capsys):
    # the directory exists, so the run goes ahead; writing onto it then fails
    status, out, err = run_cli(CENSUS_30 + ["--out", str(tmp_path)], capsys)
    assert status == 1
    assert json.loads(out)["results"]["census"]
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["code"] == "io"


# ---------------------------------------------------------------- diagnose


def test_diagnose_moments_goldens(capsys):
    report = run_json(["diagnose", "moments", "--y", "20", "--t", "1"], capsys)
    res = report["results"]["moments"]
    assert res["2t"]["lhs_exact"] == "8"
    assert res["4t"]["lhs_exact"] == "20"
    assert res["2t"]["class_size"] == "1"


def test_diagnose_large_sieve_all_pass(capsys):
    report = run_json(
        ["diagnose", "large-sieve", "--seed", "5", "--trials", "40"], capsys
    )
    res = report["results"]["large_sieve"]
    for mode in ("single-modulus", "primitive-family"):
        assert res[mode]["trials"] == "40"
        assert res[mode]["passed"] == "40"
        assert res[mode]["failures"] == []
        assert res[mode]["max_lhs_over_rhs"] <= 1.0


def test_diagnose_qt_and_decomposition(capsys):
    report = run_json(["diagnose", "qt", "--y", "30", "--t", "2"], capsys)
    qt = report["results"]["qt"]
    assert qt["size"] == "3"
    assert qt["moduli"] == ["121", "143", "169"]
    assert qt["min_modulus"] == "121"
    assert qt["within_reference"] is True

    report = run_json(
        ["diagnose", "decomposition", "--y", "30", "--k", "2", "--ell", "1"],
        capsys,
    )
    dec = report["results"]["decomposition"]
    assert dec["principal"] == {"num": "44", "den": "15"}
    assert dec["phi_slack"]["within_hard"] is True
    assert dec["nonprincipal"]["census"] == "5"


def test_diagnose_all_skips_gracefully(capsys):
    report = run_json(["diagnose", "all"], capsys)
    res = report["results"]
    assert any("seed" in w for w in res["warnings"])
    assert any("--y" in w or "y" in w for w in res["warnings"])


def test_diagnose_tails_defaults_plan(capsys):
    report = run_json(["diagnose", "tails", "--y", "30"], capsys)
    res = report["results"]["tails"]
    assert set(res) == {"low", "high"}
    assert any("defaulted" in w for w in report["results"]["warnings"])


def test_diagnose_empty_interval(capsys):
    report = run_json(["diagnose", "moments", "--y", "3"], capsys)
    assert report["results"]["moments"] == {}
    assert report["results"]["warnings"] != []


def test_diagnose_all_computes_interval_stats_once(capsys, monkeypatch):
    import sunitlab.prime_tools as pt

    calls = []
    sieve = pt.sieve_interval

    def counted(lo, hi):
        calls.append((lo, hi))
        return sieve(lo, hi)

    pt._interval_stats.cache_clear()
    monkeypatch.setattr(pt, "sieve_interval", counted)
    run_json(["diagnose", "all", "--y", "30", "--seed", "7", "--trials", "2"], capsys)
    assert calls == [(7.5, 15.0), (15.0, 30.0)]

    report = run_json(["diagnose", "all", "--y", "3"], capsys)
    res = report["results"]
    empty = [w for w in res["warnings"] if "empty" in w]
    assert len(empty) == 1 and "moments, tails, qt, decomposition" in empty[0]
    assert [res[t] for t in ("moments", "tails", "qt", "decomposition")] == [{}] * 4


# ------------------------------------------------------------- determinism

def test_reports_are_deterministic_modulo_timing(capsys):
    argv = ["census", "--y", "30", "--k", "2", "--ell", "1",
            "--method", "exact,characters,sampled",
            "--samples", "4000", "--seed", "9"]
    a = run_json(argv, capsys)
    b = run_json(argv, capsys)
    assert json.dumps(a["results"], sort_keys=True) == json.dumps(
        b["results"], sort_keys=True
    )
    assert a["config"] == b["config"]


# ------------------------------------------------------- contract, any input

# A bounded grammar.  Each command starts from a mostly valid base of its
# required flags; up to three more flags follow, drawn from every flag with
# valid, boundary and junk values (a later flag overrides an earlier one),
# and at most one rare token.  k, ell and t reach 1000, where exact values
# outgrow the double range; --trials and --Q reach 10^5, past their caps.
Y = ["2", "5", "10", "30", "60", "nan", "inf", "-1", "1e300"]
BASE = {
    "census": {"--y": Y, "--k": ["1", "2", "3", "1000"], "--ell": ["1", "2"]},
    "construct": {"--y": Y},
    "verify": {"--s-primes": ["2,3,5", "2,3,5,7"], "--limit": ["100", "1000"]},
    "diagnose": {"--y": Y, "--seed": ["1", "7"], "--trials": ["1", "3"], "--t": ["1", "2", "1000"]},
}
COMMON_FLAGS = {
    "--y": Y,
    "--k": ["1", "2", "3", "0", "-1", "x", "1000"],
    "--ell": ["1", "2", "0", "x", "1000"],
    "--alpha": ["1/3", "1/2", "2", "1/0"],
    "--beta": ["1/4", "1/5", "0"],
    "--limit": ["100", "1000", "0", "-5", "9223372036854775806", "9223372036854775807"],
    "--samples": ["10", "0"],
    "--seed": ["1", "7", "-3"],
    "--format": ["json", "csv", "xml"],
}
COMMAND_FLAGS = {
    "census": {"--method": ["exact", "direct", "characters", "sampled", "exact,characters", "psychic"]},
    "construct": {},
    "verify": {"--s-primes": ["2,3,5", "2,4", "", "x"], "--check-a": ["390", "0"]},
    "diagnose": {"--t": ["1", "2", "0", "-1", "1000"], "--q": ["1", "7", "0"],
                 "--Q": ["1", "5", "0", "100000"], "--trials": ["1", "3", "0", "100000"]},
}
TOPICS = ["all", "large-sieve", "moments", "tails", "qt", "decomposition", "bogus"]
# the paths under {missing} are never created, so no run writes a file
RARE = [[]] * 8 + [
    ["--out", "{missing}/run.json"], ["--s-file", "{missing}/S.json"], ["--enforce-range"],
    ["--bogus"], ["-"], ["--"], ["%"], ["fly"],
]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    argv = [command] + ([draw(st.sampled_from(TOPICS))] if command == "diagnose" else [])
    for flag, values in BASE[command].items():
        argv += [flag, draw(st.sampled_from(values))]
    flags = {**COMMON_FLAGS, **COMMAND_FLAGS[command]}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    return argv + draw(st.sampled_from(RARE))


@given(argv=_argv(), max_sieve=st.sampled_from([None, "1000", "20", "0", "abc"]))
@settings(max_examples=600, derandomize=True, database=None, deadline=None)
def test_any_argv_and_env_keep_the_cli_contract(argv, max_sieve):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [tok.format(missing=Path(tmp) / "missing") for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop("SUNIT_MAX_SIEVE", None)
            if max_sieve is not None:
                os.environ["SUNIT_MAX_SIEVE"] = max_sieve
            status = main(argv)
    if status == 0:
        assert set(json.loads(out.getvalue())) == {"config", "version", "results", "timing"}
        assert err.getvalue() == "", argv
    else:
        assert status in (2, 3, 4), (argv, status)
        assert out.getvalue() == "", argv
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)["error"]) == {"code", "message"}
