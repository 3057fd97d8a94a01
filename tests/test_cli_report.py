import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import sunitlab
from sunitlab.cli_report import encode, main, solutions_csv
from sunitlab.prime_tools import interval_stats
from sunitlab.smooth_verifier import SmoothPair


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
        (CENSUS_30, {"SUNIT_MAX_SIEVE": "abc"}),
        (CENSUS_30, {"SUNIT_MAX_SIEVE": "-5"}),
    ],
    ids=[
        "y-nan", "trials-zero", "trials-negative", "s-file-missing",
        "s-file-malformed", "max-sieve-text", "max-sieve-negative",
    ],
)
def test_boundary_input_gives_one_validation_error_line(
    argv, env, tmp_path, monkeypatch, capsys
):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    argv = [a.format(missing=tmp_path / "missing.json", malformed=malformed) for a in argv]
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


def test_character_work_refused_up_front():
    # Q_1 at y = 1e6 holds about 19,000 primes near 3.75e5: about 7e9 grid
    # points, which would take minutes to transform
    env = dict(os.environ, PYTHONPATH=str(Path(sunitlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "sunitlab", "diagnose", "tails",
         "--y", "1e6", "--k", "4", "--ell", "2"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["code"] == "capacity"


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
    import sunitlab.character_lab as cl
    import sunitlab.cli_report as cli
    import sunitlab.tuple_census as tc

    calls = []

    def counted(y, limit=None):
        calls.append(y)
        return interval_stats(y, limit)

    for module in (cli, cl, tc):
        monkeypatch.setattr(module, "interval_stats", counted)
    run_json(["diagnose", "all", "--y", "30", "--seed", "7", "--trials", "2"], capsys)
    assert calls == [30]

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
