#!/usr/bin/env python3
"""Print the headline table: known schemes vs the single-group baseline.

For each curated design this builds the scheme, re-derives its split vector
and subpacketization through the analysis pipeline (nothing is read off a
stored table), and prints the comparison against the baseline operating at
the same cache level.  With --check, every row is additionally simulated on
one random demand and must decode bit-exactly.
"""

import argparse
import random
import sys

from ptcache.designs import (
    dpda_specials,
    special_designs,
    theorem1_design,
    theorem2_design,
    theorem3_design,
)
from ptcache.engine import build_plan, decode_and_verify, simulate
from ptcache.fscalc import jcm_baseline


def rows():
    """(label, design, (N, M)) for the headline comparison."""
    yield "pairs, K=4", theorem2_design(4, 2), (2, 1)
    yield "half split, K=8", special_designs("t3_halfsplit", 8), (8, 3)
    yield "three threes, K=9", special_designs("tbar3", 9), (3, 2)
    yield "staggered pairs, K=6", theorem1_design(6, 2), (3, 2)
    yield "3+2 split, K=5", special_designs("k5_t3", 5), (5, 3)
    yield "grid 3x3, t=2", theorem3_design(3, 3, 2), (9, 2)
    yield "low-cache, K=8", dpda_specials("t2", 8), (8, 2)
    yield "high-cache, K=7", dpda_specials("t_km2", 7), (7, 5)
    yield "high-cache, K=10", dpda_specials("t_km2", 10), (5, 4)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--check",
        action="store_true",
        help="also simulate one random demand per scheme and verify decoding",
    )
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    header = f"{'scheme':<22} {'K':>3} {'t':>3} {'grouping':<14} {'F':>6} {'F_base':>7} {'ratio':>8} {'rate':>6}"
    print(header)
    print("-" * len(header))
    failures = 0
    for label, ds, (N, M) in rows():
        f_base, _ = jcm_baseline(ds.K, ds.t)
        plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
        status = ""
        if args.check:
            files = tuple(rng.randbytes(plan.f_pt) for _ in range(N))
            demand = tuple(rng.randrange(1, N + 1) for _ in range(ds.K))
            ok = decode_and_verify(simulate(plan, files, demand)).ok
            status = "  ok" if ok else "  DECODE FAILED"
            failures += 0 if ok else 1
        grouping = ",".join(str(s) for s in ds.grouping_sizes)
        print(
            f"{label:<22} {ds.K:>3} {ds.t:>3} ({grouping:<12}) "
            f"{plan.f_pt:>6} {f_base:>7} {str(plan.f_pt) + '/' + str(f_base):>8} "
            f"{str(plan.rate):>6}{status}"
        )
    if failures:
        print(f"{failures} scheme(s) failed to decode", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
