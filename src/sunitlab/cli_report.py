"""Command-line front end: argument parsing, run reports, artifact files.

Report contract: a JSON object {config, version, results, timing}, printed
on one line of compact JSON on stdout.
The results block is deterministic for a fixed config (sorted keys, integers
as decimal strings, rationals as {num, den} string pairs); timing sits in its
own block outside the determinism contract.  A float copy of an exact value
that leaves the double range is null (errors.finite_float).  Every record in
results carries a method tag naming the operation that produced it.

Exit codes: 0 success, 2 validation error, 3 capacity exceeded, 4 internal
verification failure, 1 printing the report or a file write after it failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import __version__
from .errors import SUnitError, ValidationError, VerificationError, digits, finite_float

# Each command handler imports the engines it runs, so a process loads only
# the modules of its command (and --version or a usage error loads none).

PAIR_LIST_THRESHOLD = 50
QT_LIST_THRESHOLD = 200


# ---------------------------------------------------------------------------
# serialization

def encode(obj):
    """Render a result object as JSON-safe data with lossless integers.

    Every integer becomes its decimal string, written by errors.digits (no
    int-to-str digit limit; subquadratic in the digits), and a Fraction a
    {num, den} pair of them, so no consumer ever sees a rounded big integer.
    Dataclasses become dicts of their fields, dict keys strings, lists and
    tuples lists.  The exact types int, dict, list and tuple are tested
    first, and an int inside a dict, list or dataclass is written in place;
    the rest keep the order bool (an int subclass), float, str, int
    subclass, Fraction, complex, dataclass, dict, list.  Anything else is a
    TypeError.
    """
    kind = type(obj)
    if kind is int:
        return digits(obj)
    if kind is dict:
        return {
            digits(k) if type(k) is int else str(k): digits(v) if type(v) is int else encode(v)
            for k, v in obj.items()
        }
    if kind is list or kind is tuple:
        return [digits(x) if type(x) is int else encode(x) for x in obj]
    if obj is None or isinstance(obj, (bool, float, str)):
        return obj
    if isinstance(obj, int):
        return digits(obj)
    if isinstance(obj, Fraction):
        return {"num": digits(obj.numerator), "den": digits(obj.denominator)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(kind, "__dataclass_fields__"):
        return {
            name: digits(v) if type(v := getattr(obj, name)) is int else encode(v)
            for name in _field_names(kind)
        }
    if isinstance(obj, dict):
        return encode(dict(obj))
    if isinstance(obj, (list, tuple)):
        return encode(list(obj))
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")


@lru_cache(maxsize=None)
def _field_names(cls) -> tuple[str, ...]:
    """A dataclass's field names, read once per class from its
    __dataclass_fields__ (dataclasses.fields drops ClassVar and InitVar)."""
    return tuple(f.name for f in dataclasses.fields(cls))


def solutions_csv(solutions) -> str:
    """CSV export of a solution list: a, c, factorization_a, factorization_c."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "c", "factorization_a", "factorization_c"])
    for sol in solutions:
        writer.writerow(
            [sol.a, sol.c, _fact_str(sol.factorization_a), _fact_str(sol.factorization_c)]
        )
    return buf.getvalue()


def _fact_str(factors: dict[int, int]) -> str:
    if not factors:
        return "1"
    return "*".join(f"{p}^{e}" for p, e in sorted(factors.items()))


# ---------------------------------------------------------------------------
# command implementations; each returns (results, artifacts) where artifacts
# is a list of (path, text) files to write

def run_census(args):
    from .prime_tools import interval_stats
    from .tuple_census import CensusParams, count_direct, count_exact, count_sampled

    params = CensusParams(args.y, args.k, args.ell, enforce_range=args.enforce_range)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    known = {"exact", "direct", "characters", "sampled"}
    bad = set(methods) - known
    if bad or not methods:
        raise ValidationError(f"unknown census methods {sorted(bad)}; pick from {sorted(known)}")

    records = []
    for method in methods:
        if method == "exact":
            records.append(count_exact(params))
        elif method == "direct":
            records.append(count_direct(params))
        elif method == "characters":
            from .character_lab import census_via_characters

            records.append(census_via_characters(params))
        else:
            if args.samples is None or args.seed is None:
                raise ValidationError("sampled census requires --samples and --seed")
            records.append(count_sampled(params, args.samples, args.seed))

    integer_counts = {r.method: r.count for r in records if r.method != "sampled"}
    if len(set(integer_counts.values())) > 1:
        raise VerificationError(f"census methods disagree: {integer_counts}")

    stats = interval_stats(args.y)
    results = {
        "census": [encode(r) for r in records],
        "interval": {
            "method": "interval-stats",
            "y": args.y,
            "recip_sum": encode(stats.recip_sum),
            "prime_count": encode(stats.prime_count),
            "recip_sum_asymptotic": stats.recip_sum_asymptotic,
            "prime_count_asymptotic": stats.prime_count_asymptotic,
        },
        "warnings": [] if stats.modulus_primes else ["modulus prime interval is empty"],
    }
    return results, []


def run_construct(args):
    from .constructor import lower_bound_estimate, run_construction
    from .smooth_verifier import enumerate_smooth_pairs

    plan_args = {n: getattr(args, n) for n in ("alpha", "beta") if getattr(args, n) is not None}
    run = run_construction(args.y, args.k, args.ell, enforce_range=args.enforce_range, **plan_args)
    k, ell, plan, pairs = run.k, run.ell, run.plan, run.pairs
    warnings = []
    if plan and (plan.k_clamped or plan.ell_clamped):
        warnings.append(
            f"parameter plan clamped to k={k}, ell={ell} "
            f"(raw k = {plan.raw_k:.6f} at y = {args.y})"
        )
    kl = math.factorial(k) * math.factorial(ell)
    results = {
        "plan": encode(plan) | {"method": "exponent-plan"} if plan
        else {"k": encode(k), "ell": encode(ell), "method": "explicit"},
        "pair_count": encode(len(pairs)),
        "conversion": {
            "method": "ordered-to-unordered",
            "census": encode(run.census),
            "ordered_per_pair": encode(kl),
            "lower_bound": encode(Fraction(run.census, kl)),
            "holds": len(pairs) * kl >= run.census,
        },
        "pairs": [encode(p) for p in pairs] if len(pairs) <= PAIR_LIST_THRESHOLD
        else {"suppressed": True, "count": encode(len(pairs))},
        "warnings": warnings,
    }
    if not pairs:
        warnings.append("no congruence solutions at these parameters; nothing to construct")
        return results | {"histogram": None, "construction": None}, []

    hist, assembled, outcome = run.histogram, run.assembled, run.result
    results["histogram"] = {
        "method": "pigeonhole",
        "total": encode(hist.total),
        "distinct": encode(hist.distinct),
        "pigeonhole_floor": encode(hist.pigeonhole_floor),
        "popular": encode(hist.popular),
        "multiplicity": encode(hist.multiplicity),
        "top": [[encode(u), encode(n)] for u, n in hist.top(10)],
        "pigeonhole_holds": hist.multiplicity >= hist.pigeonhole_floor,
    }
    results["analytic_multiplicity_bound"] = {
        "method": "closed-form",
        "value": lower_bound_estimate(args.y, k, ell),
        "actual_multiplicity": encode(hist.multiplicity),
    }
    results["construction"] = encode(outcome) | {"method": "verified-construction"}
    results["set_diagnostics"] = {
        "method": "assemble-set",
        "u0_factors": encode(assembled.u0_factors),
        "factor_count_reference": assembled.factor_count_reference,
        "size_reference": assembled.size_reference,
    }

    if args.limit is not None:
        oracle = enumerate_smooth_pairs(assembled.primes, args.limit)
        oracle_as = {p.a for p in oracle}
        covered = [s for s in outcome.solutions if s.c <= args.limit]
        results["oracle_cross_check"] = {
            "method": "smoothness-sieve",
            "limit": encode(args.limit),
            "oracle_pairs": encode(len(oracle)),
            "solutions_within_limit": encode(len(covered)),
            "all_found": all(s.a in oracle_as for s in covered),
        }

    artifacts = []
    if args.out:
        s_payload = {
            "y": args.y,
            "u0": str(outcome.u0),
            "primes": [str(p) for p in outcome.prime_set],
        }
        artifacts.append((args.out + ".S.json", json.dumps(s_payload, sort_keys=True, indent=2) + "\n"))
        artifacts.append((args.out + ".solutions.csv", solutions_csv(outcome.solutions)))
        if args.format == "csv":
            artifacts.append((args.out, solutions_csv(outcome.solutions)))
    return results, artifacts


def _parse_s_primes(args) -> tuple[int, ...]:
    if args.s_primes is not None:
        try:
            return tuple(int(tok) for tok in args.s_primes.split(",") if tok.strip())
        except ValueError as exc:
            raise ValidationError(f"cannot parse --s-primes: {exc}") from exc
    try:
        payload = json.loads(Path(args.s_file).read_text())
        if isinstance(payload, dict):
            payload = payload.get("primes")
        if not isinstance(payload, list):
            raise ValidationError(f"{args.s_file} holds no prime list")
        # JSON integers, or the decimal strings construct --out writes; never bools or floats
        bad = [p for p in payload
               if type(p) is not int and not (isinstance(p, str) and p.isascii() and p.isdigit())]
        if bad:
            raise ValidationError(f"{args.s_file} lists entries that are not integers: {bad[:3]}")
        return tuple(int(p) for p in payload)
    except (OSError, ValueError, TypeError) as exc:
        raise ValidationError(f"cannot read --s-file {args.s_file}: {exc}") from exc


def run_verify(args):
    from .smooth_verifier import enumerate_smooth_pairs, verify_solution

    primes = _parse_s_primes(args)
    pairs = enumerate_smooth_pairs(primes, args.limit)
    results = {
        "s_primes": [encode(p) for p in primes],
        "limit": encode(args.limit),
        "pair_count": encode(len(pairs)),
        "pairs": [encode(p) for p in pairs],
        "method": "smoothness-sieve",
        "warnings": [],
    }
    if args.check_a is not None:
        cert = verify_solution(args.check_a, primes)
        results["certificate"] = encode(cert)
        results["certificate"]["method"] = "trial-division"
    artifacts = []
    if args.out and args.format == "csv":
        artifacts.append((args.out, solutions_csv(pairs)))
    return results, artifacts


def _diag_large_sieve(args, warnings):
    from .character_lab import large_sieve_check, random_sieve_instances

    if args.seed is None:
        raise ValidationError("large-sieve diagnostics draw random instances; --seed is required")
    for flag in ("trials", "q", "Q"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValidationError(f"need --{flag} >= 1, got {value}")
    # both streams are drawn (and their capacity checked) before either runs
    streams = {
        mode: random_sieve_instances(args.trials, args.seed, mode, **fixed)
        for mode, fixed in (
            ("single-modulus", {"fixed_modulus": args.q}),
            ("primitive-family", {"fixed_bound": args.Q}),
        )
    }
    records = {}
    for mode, instances in streams.items():
        checks = [large_sieve_check(inst, mode) for inst in instances]
        failures = [c for c in checks if not c.passed]
        records[mode] = {
            "method": "large-sieve-check",
            "trials": encode(args.trials),
            "passed": encode(sum(c.passed for c in checks)),
            "failures": [encode(c) for c in failures],
            "max_lhs_over_rhs": max((c.lhs / c.rhs) for c in checks if c.rhs > 0),
        }
    return records


def _diag_moments(args, warnings):
    from .character_lab import moment_check

    t = args.t if args.t is not None else 1
    return {
        which: encode(moment_check(t, args.y, which))
        | {"method": "character-enumeration+representation-identity"}
        for which in ("2t", "4t")
    }


def _diag_tails(args, warnings):
    from .character_lab import tail_shape
    from .tuple_census import CensusParams

    if args.k is not None and args.ell is not None:
        k, ell = args.k, args.ell
    else:
        from .constructor import plan_parameters

        plan = plan_parameters(args.y, k=args.k, ell=args.ell)
        k, ell = plan.k, plan.ell
        warnings.append(f"tail shapes defaulted to planned k={k}, ell={ell}")
    params = CensusParams(args.y, k, ell)
    return {
        which: encode(tail_shape(params, which)) | {"method": "tail-shape"}
        for which in ("low", "high")
    }


def _diag_qt(args, warnings):
    from .character_lab import enumerate_Qt

    t = args.t if args.t is not None else 1
    cls = enumerate_Qt(t, args.y)
    record = {
        "method": "multiset-enumeration",
        "t": encode(t),
        "size": encode(cls.size),
        "size_reference": cls.size_reference,
        "within_reference": cls.within_reference,
        "min_modulus": encode(min(cls.moduli)),
        "range_floor": finite_float(lambda: float(args.y / 4) ** t),
    }
    if cls.size <= QT_LIST_THRESHOLD:
        record["moduli"] = [encode(m) for m in cls.moduli]
    return record


def _diag_decomposition(args, warnings):
    from .character_lab import nonprincipal_contribution, phi_slack
    from .tuple_census import CensusParams

    k = args.k if args.k is not None else 2
    ell = args.ell if args.ell is not None else 1
    params = CensusParams(args.y, k, ell)
    report = nonprincipal_contribution(params)  # its character work is checked first
    return {
        "method": "character-decomposition",
        "principal": encode(report.principal),
        "phi_slack": encode(phi_slack(params)),
        "nonprincipal": encode(report),
    }


def run_diagnose(args):
    from .prime_tools import interval_stats

    topic = args.topic
    warnings: list[str] = []
    results: dict = {"warnings": warnings}
    if topic not in ("all", "large-sieve") and args.y is None:
        raise ValidationError("command 'diagnose' requires --y")
    if topic in ("all", "large-sieve"):
        if topic == "all" and args.seed is None:
            warnings.append("skipping large-sieve diagnostics: no --seed given")
        else:
            results["large_sieve"] = _diag_large_sieve(args, warnings)
    topics = {
        name: fn
        for name, fn in (
            ("moments", _diag_moments),
            ("tails", _diag_tails),
            ("qt", _diag_qt),
            ("decomposition", _diag_decomposition),
        )
        if topic == name or (topic == "all" and args.y is not None)
    }
    if topics:
        stats = interval_stats(args.y)
        if not stats.modulus_primes:
            warnings.append(
                f"empty modulus prime interval at y = {args.y}; skipped {', '.join(topics)}"
            )
        for name, fn in topics.items():
            results[name] = fn(args, warnings) if stats.modulus_primes else {}
    if topic == "all" and args.y is None:
        warnings.append("no --y given; skipped moments, tails, qt, decomposition")
    return results, []


# ---------------------------------------------------------------------------
# argument parsing and entry point

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


# every flag, defined once; each command takes the ones its handler reads
_FLAGS = {
    "--y": dict(type=float, help="interval scale; prime ranges are (y/4, y/2] and (y/2, y]"),
    "--k": dict(type=int, help="number of product-range primes per tuple"),
    "--ell": dict(type=int, help="number of modulus-range primes per tuple"),
    "--alpha": dict(type=_fraction, help="tuple-length ratio ell/k (rational, e.g. 1/3)"),
    "--beta": dict(type=_fraction, help="growth exponent for k (rational, e.g. 1/4)"),
    "--limit": dict(type=int, help="bound for smooth pair enumeration"),
    "--method": dict(default="exact", help="comma list from exact, direct, characters, sampled"),
    "--samples": dict(type=int, help="sample count for the Monte Carlo census"),
    "--seed": dict(type=int, help="random seed; mandatory whenever sampling is involved"),
    "--enforce-range": dict(action="store_true", help="fail when parameters leave the proven regime"),
    "--out": dict(type=str, help="write the report (and artifacts) to this path"),
    "--format": dict(choices=("json", "csv"), default="json", help="primary artifact format"),
    "--s-primes": dict(type=str, help="comma-separated prime set S"),
    "--s-file": dict(type=str, help="JSON file holding S (as from construct)"),
    "--check-a": dict(type=int, help="verify one candidate a against S"),
    "--t": dict(type=int, help="modulus class parameter for moments/qt"),
    "--q": dict(type=int, help="pin the single-modulus sieve checks to this modulus"),
    "--Q": dict(type=int, help="pin the family sieve checks to this modulus bound"),
    "--trials": dict(type=int, default=100, help="number of random sieve instances"),
}

# command: (help, required flags, optional flags)
_COMMANDS = {
    "census": ("count congruent prime tuples", ("--y", "--k", "--ell"),
               ("--method", "--samples", "--seed", "--enforce-range", "--out")),
    "construct": ("run the full construction pipeline", ("--y",),
                  ("--k", "--ell", "--alpha", "--beta", "--limit", "--enforce-range", "--out", "--format")),
    "verify": ("enumerate/check consecutive smooth pairs", ("--limit",), ("--check-a", "--out", "--format")),
    "diagnose": ("analytic cross-checks and diagnostics", (),
                 ("--y", "--k", "--ell", "--t", "--seed", "--q", "--Q", "--trials", "--out")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValidationError, so it leaves as one JSON line."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sunitlab",
        description=(
            "Census of prime-product congruences and pigeonhole construction "
            "of prime sets with many consecutive smooth pairs"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help_text, required, optional) in _COMMANDS.items():
        sp = commands[name] = sub.add_parser(name, help=help_text)
        for flag in required:
            sp.add_argument(flag, required=True, **_FLAGS[flag])
        for flag in optional:
            sp.add_argument(flag, **_FLAGS[flag])
    s_set = commands["verify"].add_mutually_exclusive_group(required=True)
    for flag in ("--s-primes", "--s-file"):
        s_set.add_argument(flag, **_FLAGS[flag])
    commands["diagnose"].add_argument(
        "topic",
        nargs="?",
        default="all",
        choices=("all", "large-sieve", "moments", "tails", "qt", "decomposition"),
    )
    return parser


_DISPATCH = {
    "census": run_census,
    "construct": run_construct,
    "verify": run_verify,
    "diagnose": run_diagnose,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        fmt = getattr(args, "format", "json")  # only construct and verify write csv
        if fmt == "csv" and not args.out:
            raise ValidationError("--format csv requires --out")
        if args.out and not Path(args.out).parent.is_dir():
            raise ValidationError(f"--out directory {Path(args.out).parent} does not exist")
        start = time.perf_counter()
        results, artifacts = _DISPATCH[args.command](args)
    except SUnitError as exc:
        _error_line(exc.code, str(exc))
        return exc.exit_status
    elapsed = time.perf_counter() - start

    report = {
        "config": encode(vars(args)),
        "version": __version__,
        "results": results,
        "timing": {"seconds": round(elapsed, 6)},
    }
    text = json.dumps(report, sort_keys=True)  # one line, by json's C encoder
    try:
        _print_report(text)
        if args.out and fmt == "json":
            Path(args.out).write_text(text + "\n")
        for path, content in artifacts:
            Path(path).write_text(content)
    except OSError as exc:
        _error_line("io", str(exc))
        return 1
    return 0


def _print_report(text: str) -> None:
    """Print the report.  When stdout is gone (a closed pipe), point it at
    os.devnull before re-raising, so the interpreter's exit flush stays silent."""
    try:
        print(text, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _error_line(code: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}), file=sys.stderr)


def console_main() -> None:
    """The `sunitlab` command and `python -m sunitlab`: main(), then exit
    without interpreter teardown, which with numpy loaded took 35-50 ms per
    run on a 2-core VM after the report was out.  os._exit flushes nothing, so
    stdout and stderr are flushed first; every file main writes is closed by
    then.  --version and --help leave through argparse's SystemExit instead."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
