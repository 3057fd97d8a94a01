"""sunitlab benchmark: timed CLI workloads with answer checks, and a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload {scale,composite,construct} --seed N \
        --seconds S --trace {0,1}

A workload is a fixed list of `sunitlab` command lines.  Jobs run back to
back, each in a fresh interpreter (a closed loop with one client: a researcher
who waits for each answer).  A pass runs the whole list; passes repeat while
the next one still fits in --seconds, and at least one pass runs.  Every
job's answer is checked after its pass, outside the timed region.

--trace 0 reports the end-to-end metrics:
  wall_s         median pass time: the sum of the pass's job times, each from
                 launch to exit
  setup_s        median of SETUP_LAUNCHES `sunitlab --version` launches taken
                 between jobs after one untimed warm-up: interpreter start,
                 package import, parser build
  peak_rss_mb    largest max-RSS of any job process in a pass (median over passes)
  success_ratio  jobs that exited 0 with a correct answer over jobs attempted
--trace 1 runs one untraced pass and one traced pass (see trace_job.py) and
reports per-module self time, calls, errors and work counters, plus
trace.overhead_ratio.

The last stdout line is one JSON object {correct, attempted, failed, metrics}.
`failed` counts crashes, documented errors and wrong answers; `correct` is
false only when a job answered wrongly or a trace invariant broke.  A full
record (environment, every job) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from trace_job import MODULES
from workloads import WORKLOADS, Context, job_argv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 9
RUN_LIMIT_S = 170.0  # jobs still running past this are killed, so a run ends within 180 s


@dataclass
class Launch:
    seconds: float
    exit_code: int
    max_rss_mb: float
    stdout: Path
    stderr: Path


@dataclass
class Outcome:
    job: str
    seconds: float
    exit_code: int
    max_rss_mb: float
    report_bytes: int
    status: str  # ok, crash, error (documented {"error"} exit 2/3/4) or wrong
    detail: str


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]

    @property
    def peak_rss_mb(self) -> float:
        return max(o.max_rss_mb for o in self.outcomes)


def program_env() -> dict[str, str]:
    """The caller's environment with the package on the path and no capacity overrides.

    PYTHONINTMAXSTRDIGITS and SUNIT_MAX_SIEVE are removed so every run sees
    the interpreter's and the program's defaults, as a user would.
    """
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.pop("SUNIT_MAX_SIEVE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(cmd: list[str], workdir: Path, stem: str, env: dict, deadline: float) -> Launch:
    out, err = workdir / f"{stem}.out", workdir / f"{stem}.err"
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, cwd=workdir, env=env)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    return Launch(seconds, proc.returncode, usage.ru_maxrss / 1024, out, err)


def report_size(report: dict) -> int:
    """Bytes of the report as the CLI renders it, without the run-dependent timing block."""
    steady = {key: value for key, value in report.items() if key != "timing"}
    return len(json.dumps(steady, sort_keys=True, indent=2).encode()) + 1


def classify(job, ctx: Context, run: Launch) -> tuple[str, str, int]:
    """Status, detail and steady report size of one finished job."""
    if run.exit_code == 0:
        size = 0
        try:
            report = json.loads(run.stdout.read_text())
            size = report_size(report)
            problems = job.check(report, ctx)
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        return ("wrong", "; ".join(problems[:5]), size) if problems else ("ok", "", size)
    lines = run.stderr.read_text(errors="replace").strip().splitlines()
    last = lines[-1] if lines else f"exit code {run.exit_code}"
    if run.exit_code in (2, 3, 4):
        try:
            if "error" in json.loads(last):
                return "error", last, 0
        except (ValueError, TypeError):
            pass
    return "crash", last[:300], 0


def run_pass(workload: str, ctx: Context, env: dict, deadline: float, spans_dir: Path | None = None, after_job=None) -> Pass:
    """Run every job of the workload once, then check every answer.

    The pass time is the sum of the job times, so work done between jobs
    (``after_job``) is not counted in it.
    """
    jobs = WORKLOADS[workload]
    runs = []
    for idx, job in enumerate(jobs):
        if time.monotonic() >= deadline:
            break
        argv = job_argv(job, ctx.seed)
        if spans_dir is None:
            cmd = [sys.executable, "-m", "sunitlab", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "trace_job.py"), str(spans_dir / f"{idx}.npz"), str(idx), "--", *argv]
        runs.append(launch(cmd, ctx.workdir, job.name, env, deadline))
        if after_job is not None:
            after_job()
    outcomes = []
    for job, run in zip(jobs, runs):
        status, detail, size = classify(job, ctx, run)
        outcomes.append(Outcome(job.name, run.seconds, run.exit_code, run.max_rss_mb, size, status, detail))
    return Pass(sum(run.seconds for run in runs), outcomes)


class SetupTimer:
    """Times `sunitlab --version` launches spread over the run, between jobs.

    One untimed warm-up launch comes first.  The machine's speed drifts over
    seconds, so launches taken at different moments give a median that moves
    less from run to run than the median of one burst of launches.
    """

    def __init__(self, ctx: Context, env: dict, deadline: float) -> None:
        self.args = ([sys.executable, "-m", "sunitlab", "--version"], ctx.workdir, "version", env, deadline)
        self.seconds: list[float] = []
        self.problems: list[str] = []
        self._launch()

    def _launch(self) -> float:
        run = launch(*self.args)
        if run.exit_code != 0:
            self.problems.append(f"--version exited {run.exit_code}")
        return run.seconds

    def sample(self) -> None:
        if len(self.seconds) < SETUP_LAUNCHES:
            self.seconds.append(self._launch())

    def median(self) -> float:
        while len(self.seconds) < SETUP_LAUNCHES:
            self.sample()
        return statistics.median(self.seconds)


def layer_metrics(spans_dir: Path, n_jobs: int) -> tuple[dict[str, float], list[str]]:
    """Per-module self time, calls and errors from the span files, plus work counters."""
    self_s = np.zeros(len(MODULES))
    calls = np.zeros(len(MODULES), dtype=np.int64)
    errors = np.zeros(len(MODULES), dtype=np.int64)
    counters: dict[str, int] = {}
    problems = []
    for idx in range(n_jobs):
        path = spans_dir / f"{idx}.npz"
        if not path.exists():
            problems.append(f"job {idx} wrote no spans")
            continue
        with np.load(path) as z:
            names, name, parent, error = z["names"], z["name"], z["parent"], z["error"]
            dur = z["end"] - z["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        module = np.array([MODULES.index(str(n).partition(".")[0]) for n in names], dtype=np.int64)[name]
        job_self = np.bincount(module, weights=dur - child, minlength=len(MODULES))
        in_process = dur[~nested].sum()
        if (~nested).sum() != 1 or abs(job_self.sum() - in_process) > 1e-6:
            problems.append(f"job {idx}: module self times {job_self.sum()} do not sum to in-process time {in_process}")
        self_s += job_self
        calls += np.bincount(module, minlength=len(MODULES))
        errors += np.bincount(module, weights=error, minlength=len(MODULES)).astype(np.int64)
        for key, value in json.loads(Path(str(path) + ".json").read_text()).items():
            counters[key] = counters.get(key, 0) + value
    metrics: dict[str, float] = {}
    for i, mod in enumerate(MODULES):
        metrics[f"{mod}.self_s"] = float(self_s[i])
        metrics[f"{mod}.calls"] = int(calls[i])
        metrics[f"{mod}.errors"] = int(errors[i])
    metrics.update(counters)
    tests = counters.get("constructor.pair_tests", 0)
    metrics["constructor.hit_ratio"] = counters.get("constructor.pairs", 0) / tests if tests else 0.0
    return metrics, problems


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sunitlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counters_repeat(workload: str, seed: int, metrics: dict) -> list[str]:
    """Work counters must repeat exactly for the same program, workload and seed."""
    counted = {k: v for k, v in metrics.items() if not k.endswith((".self_s", "overhead_ratio"))}
    path = OUT / f"counters-{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [f"{k} was {before.get(k)}, now {v}" for k, v in counted.items() if before.get(k) != v]
    path.write_text(json.dumps(counted, sort_keys=True))
    return []


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bit"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "sunitlab" / "cli_report.py").is_file():
        print(f"no sunitlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    env_record = environment(args)
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, workdir)
    env = program_env()
    problems: list[str] = []

    if args.trace:
        spans_dir = OUT / f"spans-{args.workload}-seed{args.seed}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for stale in spans_dir.glob("*"):
            stale.unlink()
        plain = run_pass(args.workload, ctx, env, deadline)
        traced = run_pass(args.workload, ctx, env, deadline, spans_dir)
        passes = [plain, traced]
        metrics, trace_problems = layer_metrics(spans_dir, len(traced.outcomes))
        metrics["cli_report.report_bytes"] = sum(o.report_bytes for o in traced.outcomes)
        metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1
        problems += trace_problems + check_counters_repeat(args.workload, args.seed, metrics)
    else:
        start = time.monotonic()
        setup = SetupTimer(ctx, env, deadline)
        passes = [run_pass(args.workload, ctx, env, deadline, after_job=setup.sample)]
        while time.monotonic() - start + passes[-1].wall_s <= args.seconds and time.monotonic() < deadline:
            passes.append(run_pass(args.workload, ctx, env, deadline, after_job=setup.sample))
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": setup.median(),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        }
        problems += setup.problems

    outcomes = [o for p in passes for o in p.outcomes]
    failures = {s: sum(o.status == s for o in outcomes) for s in ("crash", "error", "wrong")}
    attempted, failed = len(outcomes), sum(failures.values())
    if not args.trace:
        metrics["success_ratio"] = (attempted - failed) / attempted
    correct = failures["wrong"] == 0 and not problems

    for n, p in enumerate(passes):
        print(f"pass {n}: {p.wall_s:.3f} s")
        for o in p.outcomes:
            note = f"  {o.detail}" if o.detail else ""
            print(f"  {o.job:28s} {o.seconds:8.3f} s {o.max_rss_mb:7.1f} MB  exit {o.exit_code}  {o.status}{note}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {unit(name)}")
    print(f"{'fail_ratio':34s} {failed / attempted:.6g} ratio ({failed}/{attempted}: {failures})")
    for problem in problems:
        print(f"problem: {problem}")
    print("environment: " + json.dumps(env_record, sort_keys=True))

    record = {
        "environment": env_record,
        "passes": [{"wall_s": p.wall_s, "outcomes": [asdict(o) for o in p.outcomes]} for p in passes],
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
