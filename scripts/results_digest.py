#!/usr/bin/env python3
"""Print the sha256 of each command's parsed `results` block, one `sha256  name` line.

The commands are the benchmark's jobs (bench/workloads.py, at seed 1), the
STANDING commands below, and any extra `sunitlab` command line given with
--cmd (--no-jobs leaves only these).  Each runs as `python -m sunitlab` in a
fresh process, from a scratch directory, with the `src/` of --src on its
path.  The digest is taken over the results
block dumped with sorted keys, as the report-determinism criterion compares
it; a command that exits non-zero is digested by its exit code and stderr
line instead, so refusals compare too.  With --compare the same commands
also run from a second checkout; a differing digest is marked and the exit
status is 1.  Each command's wall seconds, from launch to exit, go to stderr
as one `seconds  name` line (with --compare, the second checkout's after a
comma); this script imports no numpy, so they are timings from a small parent.
With --timeout SECONDS a command still running after that many seconds is
killed and digested as {"timeout": SECONDS}, and its timing says "timeout".

    python3 scripts/results_digest.py
    python3 scripts/results_digest.py --compare ../parent --cmd "census --y 9e4 --k 2 --ell 2"
    python3 scripts/results_digest.py --compare ../parent --timeout 60 --cmd "diagnose qt --y 1e8 --t 2"
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/

from workloads import WORKLOADS, job_argv  # noqa: E402

# What no benchmark job runs: the report-determinism criterion's five
# commands, each census plan (quotient, k = 1, the fold, Monte Carlo), the
# listing plans, a tail range with no t, the decomposition, four refusals
# and a count by blocks past 64 bits over two product primes
STANDING = [
    "census --y 30 --k 2 --ell 1 --method exact,direct,characters,sampled --samples 3000 --seed 42",
    "construct --y 30 --k 2 --ell 1 --limit 600",
    "verify --s-primes 2,3,5 --limit 500",
    "diagnose moments --y 30 --t 1",
    "diagnose large-sieve --seed 7 --trials 25",
    "census --y 3e4 --k 2 --ell 2",
    "census --y 1e5 --k 1 --ell 1",
    "construct --y 1000 --k 2 --ell 2",
    "construct --y 150 --k 3 --ell 3",
    "census --y 100 --k 19 --ell 2",
    "census --y 30 --k 70 --ell 1 --method sampled --samples 3000 --seed 1",
    "diagnose tails --y 60 --k 2 --ell 1",
    "diagnose decomposition --y 300 --k 4 --ell 2",
    "census --y 1e6 --k 2 --ell 1",
    "census --y 100 --k 15 --ell 3",
    "diagnose decomposition --y 1e8 --k 27 --ell 1",
    "construct --y 1e8 --k 2 --ell 1",
    "census --y 12 --k 2371 --ell 5",
]


def digest(src: Path, argv: list[str], workdir: Path, timeout: float | None) -> tuple[str, str]:
    """The sha256 of the command's results block, and its wall time as text."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:  # past the timeout, run() kills the child and waits for it
        proc = subprocess.run(
            [sys.executable, "-m", "sunitlab", *argv],
            capture_output=True, text=True, cwd=workdir, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        proc = None
    seconds = f"{time.perf_counter() - start:.2f} s"
    if proc is None:
        block, seconds = {"timeout": timeout}, seconds + " (timeout)"
    elif proc.returncode:
        block = {"exit": proc.returncode, "stderr": proc.stderr}
    else:
        block = json.loads(proc.stdout)["results"]
    return hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest(), seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT, help="checkout to run (default: this one)")
    ap.add_argument("--compare", type=Path, help="second checkout; exit 1 on any differing digest")
    ap.add_argument("--no-jobs", action="store_true", help="skip the benchmark jobs and STANDING; digest only --cmd")
    ap.add_argument("--cmd", action="append", default=[], help="extra sunitlab command line (repeatable)")
    ap.add_argument("--timeout", type=float, metavar="SECONDS", help="kill a command running this long")
    args = ap.parse_args()

    jobs = [] if args.no_jobs else [job for workload in WORKLOADS.values() for job in workload]
    commands = [(job.name, job_argv(job, 1)) for job in jobs]
    commands += [(cmd, shlex.split(cmd)) for cmd in ([] if args.no_jobs else STANDING) + args.cmd]

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands:
            sha, timing = digest(args.src.resolve(), argv, Path(tmp), args.timeout)
            line = f"{sha}  {name}"
            if args.compare is not None:
                other, other_timing = digest(args.compare.resolve(), argv, Path(tmp), args.timeout)
                timing += f", {other_timing} compared"
                if other != sha:
                    differ += 1
                    line += f"  DIFFERS from {other}"
            print(line, flush=True)
            print(f"{timing}  {name}", file=sys.stderr, flush=True)
    if differ:
        print(f"{differ} of {len(commands)} results blocks differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
