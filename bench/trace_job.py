"""Run one sunitlab CLI job in this process with a span around every module boundary.

Usage: python3 bench/trace_job.py SPANS_FILE JOB_ID -- CLI_ARGS...

sunitlab's modules import each other's functions with `from .x import y`, so
a call crosses a module boundary through the consuming module's own binding
(e.g. `smooth_verifier.is_prime`).  Every such binding of a public function is
replaced by a wrapper that records a span named `<defining module>.<function>`;
calls inside one module stay unwrapped, so their time counts to that module.
The whole `cli_report.main(argv)` call is the root span.  Spans are kept in
flat arrays while the job runs and written to SPANS_FILE (.npz) at exit,
together with the work counters (see counters.py) in SPANS_FILE.json.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

from counters import COUNTED, tally

MODULES = ("prime_tools", "tuple_census", "character_lab", "constructor", "smooth_verifier", "cli_report")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.stack: list[int] = []
        self.calls: list[tuple] = []

    def wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        names, parents, starts, ends, errors = self.name, self.parent, self.start, self.end, self.error
        stack, calls, clock = self.stack, self.calls, time.perf_counter
        counted = qualname in COUNTED

        def open_span() -> int:
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            errors.append(0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i: int, failed: bool) -> None:
            ends[i] = clock()
            errors[i] = failed
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per item: the generator body runs on each next()
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        close_span(i, False)
                        return
                    except BaseException:
                        close_span(i, True)
                        raise
                    close_span(i, False)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            i = open_span()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close_span(i, True)
                raise
            close_span(i, False)
            if counted:
                calls.append((qualname, fn, args, kwargs, result))
            return result

        return traced

    def save(self, path: str, job_id: int) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            error=np.frombuffer(self.error, dtype=np.int8).astype(bool),
            job=np.full(len(self.name), job_id, dtype=np.int32),
        )
        with open(path + ".json", "w") as fh:
            json.dump(tally(self.calls), fh)


def instrument(recorder: Recorder):
    """Wrap every cross-module binding of a public sunitlab function; return cli_report."""
    mods = {name: importlib.import_module(f"sunitlab.{name}") for name in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = obj.__module__.rpartition(".")[2]
            if owner == short or owner not in mods:
                continue
            if obj not in wrappers:
                wrappers[obj] = recorder.wrap(obj, f"{owner}.{obj.__name__}")
            setattr(mod, attr, wrappers[obj])
    return mods["cli_report"]


def main() -> None:
    spans_file, job_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_job.py SPANS_FILE JOB_ID -- CLI_ARGS...")
    recorder = Recorder()
    cli_report = instrument(recorder)
    root = recorder.wrap(cli_report.main, "cli_report.main")
    try:
        code = root(argv)
    finally:
        recorder.save(spans_file, int(job_id))
    sys.exit(code)


if __name__ == "__main__":
    main()
