"""Smoke runs of the experiment scripts in scripts/, each as its own process."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "argv,line",
    [(["--y", "30"], "verified consecutive smooth pairs for u0 = 30"),
     (["--y", "22", "--k", "1", "--ell", "1"], "nothing to construct")],
)
def test_construction_demo_runs(argv, line):
    proc = run_script("construction_demo.py", *argv)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


def test_census_trend_runs():
    proc = run_script("census_trend.py", "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4  # title, header, one row per step


def test_census_trend_runs_by_blocks_past_k2():
    # y = 100 and 200 at k = 3, ell = 2: the census by blocks of moduli
    proc = run_script("census_trend.py", "--k", "3", "--ell", "2", "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


def test_results_digest_prints_and_compares(tmp_path):
    cmd = "verify --s-primes 2,3,5 --limit 500"
    proc = run_script("results_digest.py", "--no-jobs", "--cmd", cmd, "--compare", str(ROOT))
    assert proc.returncode == 0, proc.stderr
    sha, name = proc.stdout.rstrip("\n").split("  ")
    assert len(sha) == 64 and int(sha, 16) >= 0 and name == cmd

    # a checkout whose results differ: the line is marked and the exit status is 1
    pkg = tmp_path / "src" / "sunitlab"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text('print(\'{"results": {}}\')\n')
    proc = run_script("results_digest.py", "--no-jobs", "--cmd", cmd, "--compare", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stdout.startswith(sha) and "DIFFERS" in proc.stdout


def test_results_digest_compares_a_refusal():
    # a refused command is digested by its exit code and stderr line, the same on both sides
    cmd = "diagnose moments --y 30 --t 40"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "sunitlab", *cmd.split()],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 3 and '"capacity"' in run.stderr
    block = json.dumps({"exit": 3, "stderr": run.stderr}, sort_keys=True).encode()
    proc = run_script("results_digest.py", "--no-jobs", "--cmd", cmd, "--compare", str(ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{hashlib.sha256(block).hexdigest()}  {cmd}\n"


def test_results_digest_kills_a_command_past_its_timeout(tmp_path):
    # a checkout whose command never ends: it is killed, digested as a timeout, and reaped
    pkg, pid_file = tmp_path / "src" / "sunitlab", tmp_path / "pid"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text(
        f"import os, time\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\ntime.sleep(600)\n"
    )
    cmd = "census --y 30 --k 2 --ell 1"
    proc = run_script("results_digest.py", "--no-jobs", "--cmd", cmd, "--src", str(tmp_path), "--timeout", "2")
    assert proc.returncode == 0, proc.stderr
    block = json.dumps({"timeout": 2.0}, sort_keys=True).encode()
    assert proc.stdout == f"{hashlib.sha256(block).hexdigest()}  {cmd}\n"
    assert re.fullmatch(rf"\d+\.\d\d s \(timeout\)  {re.escape(cmd)}\n", proc.stderr), proc.stderr
    with pytest.raises(ProcessLookupError):  # no child is left running, nor as a zombie
        os.kill(int(pid_file.read_text()), 0)


def test_results_digest_times_each_command():
    # stdout keeps its digest lines; stderr carries one timing line per command
    cmds = ["verify --s-primes 2,3 --limit 100", "census --y 30 --k 2 --ell 1"]
    argv = [arg for cmd in cmds for arg in ("--cmd", cmd)]
    for extra, timing in (([], r"\d+\.\d\d s"), (["--compare", str(ROOT)], r"\d+\.\d\d s, \d+\.\d\d s compared")):
        proc = run_script("results_digest.py", "--no-jobs", *argv, *extra)
        assert proc.returncode == 0, proc.stderr
        assert [line.split("  ")[1] for line in proc.stdout.splitlines()] == cmds
        lines = proc.stderr.splitlines()
        assert len(lines) == len(cmds)
        for line, cmd in zip(lines, cmds):
            assert re.fullmatch(rf"{timing}  {re.escape(cmd)}", line), line
