#!/usr/bin/env python3
"""Walk one construction run end to end and narrate every stage.

Congruence pairs, quotient histogram, chosen u0, assembled prime set S,
verified consecutive smooth pairs, and the asymptotic benchmarks for |S|.

    python3 scripts/construction_demo.py --y 30
    python3 scripts/construction_demo.py --y 60 --k 2 --ell 1 --scan 5000
"""

import argparse
import sys

from sunitlab.constructor import run_construction
from sunitlab.smooth_verifier import enumerate_smooth_pairs


def fmt_factors(factors: dict) -> str:
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(factors.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--y", type=float, default=30.0)
    ap.add_argument("--k", type=int)
    ap.add_argument("--ell", type=int)
    ap.add_argument("--scan", type=int, default=0,
                    help="also list all smooth pairs up to this bound for context")
    args = ap.parse_args()

    run = run_construction(args.y, args.k, args.ell)
    pairs, hist, outcome = run.pairs, run.histogram, run.result
    if run.plan is None:
        print(f"y = {args.y}, explicit k = {run.k}, ell = {run.ell}")
    else:
        clamp = " (clamped)" if run.plan.k_clamped or run.plan.ell_clamped else ""
        print(f"y = {args.y}, planned k = {run.k}, ell = {run.ell}{clamp}, raw k = {run.plan.raw_k:.4f}")

    print(f"\ncongruence pairs ({len(pairs)}):")
    for pr in pairs:
        print(
            f"  {fmt_factors(dict((p, pr.product_factors.count(p)) for p in set(pr.product_factors)))}"
            f" = {pr.product} == 1  mod {pr.modulus},  quotient u = {pr.quotient}"
        )
    if hist is None:
        print("no pairs; nothing to construct at this scale")
        return 0

    print(f"\nquotient histogram: {hist.distinct} distinct over {hist.total} pairs, "
          f"pigeonhole floor {hist.pigeonhole_floor}")
    for u, n in hist.top[:5]:
        marker = "  <- u0" if u == hist.popular else ""
        print(f"  u = {u:>8}  x{n}{marker}")

    print(f"\nassembled S ({outcome.size} primes): {outcome.prime_set}")
    print(f"verified consecutive smooth pairs for u0 = {outcome.u0}:")
    for sp in outcome.solutions:
        print(f"  {sp.a} = {fmt_factors(sp.factorization_a)}")
        print(f"  {sp.c} = {fmt_factors(sp.factorization_c)}")
    print(f"multiplicity {outcome.multiplicity}; benchmarks at s = {outcome.size}: "
          f"conservative {outcome.benchmark_conservative:.4f}, "
          f"headline {outcome.benchmark_headline:.4f}")

    if args.scan:
        everything = enumerate_smooth_pairs(outcome.prime_set, args.scan)
        print(f"\nall smooth pairs over S up to {args.scan}: {len(everything)}; last 3:")
        for sp in everything[-3:]:
            print(f"  ({sp.a}, {sp.c})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
