#!/usr/bin/env python3
"""Print the sha256 of each command's parsed `results` block, one `sha256  name` line.

The commands are the benchmark's jobs (bench/workloads.py, at seed 1), the
STANDING commands below, the plan table, and any extra `sunitlab` command
line given with --cmd (--no-jobs leaves only these).  Each runs as
`python -m sunitlab` in a fresh process, from a scratch directory, with the
`src/` of --src on its path; the plan table (PLAN_TABLE) runs the same way,
as `python -c`, and its lines are its results block.  The digest is taken
over the results block dumped with sorted keys, as the report-determinism
criterion compares it; a command that exits non-zero is digested by its
exit code and stderr line instead, so refusals compare too.  With --compare
the same commands also run from a second checkout; a differing digest is
marked, the plan table's moved lines follow its line, and the exit status
is 1.  Each command's wall seconds, from launch to exit, go to stderr
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
# listing plans, a tail range with no t, the decomposition, five refusals
# (one a character census past its rounding bound) and a count by blocks
# past 64 bits over two product primes
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
    "census --y 60 --k 18 --ell 1 --method characters",
]


# One line per cell: the census planner's plan or "refused" for each y, k up
# to 60 and on a quarter-decade grid to 10^8, ell up to 6, counting and
# listing; then the character census's admission for ell <= 3 and k <= 60.
# It reads only figures: a character table asked for means admitted
PLAN_TABLE = """
import json
import sunitlab.character_lab as cl
from sunitlab.errors import CapacityError
from sunitlab.prime_tools import interval_stats
from sunitlab.tuple_census import CensusParams, _plan

class Admitted(Exception):
    pass

def table(*args):
    raise Admitted

cl.CharacterTable, lines = table, []
for y in (5, 10, 12, 20, 30, 60, 100, 300, 1000):
    st = interval_stats(y)
    for k in [*range(1, 61), *(round(10 ** (j / 4)) for j in range(8, 33))]:
        for ell in range(1, min(k, 6) + 1):
            for mode in ("count", "list"):
                try:
                    plan = _plan(st.product_primes, st.modulus_primes, k, ell, mode == "list")
                except CapacityError:
                    plan = "refused"
                lines.append(f"plan {y} {k} {ell} {mode}: {plan}")
for y in (12, 20, 30, 40, 60, 100, 150, 200, 300, 500):
    for ell in (1, 2, 3):
        for k in range(ell, 61):
            try:
                cl.census_via_characters(CensusParams(y, k, ell))
                admission = "admitted"
            except Admitted:
                admission = "admitted"
            except CapacityError:
                admission = "refused"
            lines.append(f"characters {y} {k} {ell}: {admission}")
print(json.dumps({"results": lines}))
"""


def digest(src: Path, argv: list[str], workdir: Path, timeout: float | None) -> tuple[object, str]:
    """The results block of `python *argv` in a fresh process, and its wall time as text."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:  # past the timeout, run() kills the child and waits for it
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, cwd=workdir, env=env, timeout=timeout,
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
    return block, seconds


def sha256(block) -> str:
    return hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest()


def moved(theirs, ours) -> list[str]:
    """`moved  cell: theirs -> ours` for each plan-table line that changed."""
    if not (isinstance(theirs, list) and isinstance(ours, list)):
        return []
    lines = []
    for was, now in zip(theirs, ours):
        if was != now:
            cell, was = was.split(": ")
            lines.append(f"moved  {cell}: {was} -> {now.split(': ')[1]}")
    return lines


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
    commands = [(name, ["-m", "sunitlab", *argv]) for name, argv in commands]
    if not args.no_jobs:
        commands.insert(len(jobs) + len(STANDING), ("plan-table", ["-c", PLAN_TABLE]))

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands:
            block, timing = digest(args.src.resolve(), argv, Path(tmp), args.timeout)
            line, lines = f"{sha256(block)}  {name}", []
            if args.compare is not None:
                other, other_timing = digest(args.compare.resolve(), argv, Path(tmp), args.timeout)
                timing += f", {other_timing} compared"
                if other != block:
                    differ += 1
                    line += f"  DIFFERS from {sha256(other)}"
                    lines = moved(other, block)
            print("\n".join([line, *lines]), flush=True)
            print(f"{timing}  {name}", file=sys.stderr, flush=True)
    if differ:
        print(f"{differ} of {len(commands)} results blocks differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
