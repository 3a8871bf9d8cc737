#!/usr/bin/env python3
"""Compute or check the frozen rule-search censuses of tests/data/censuses.json.

There is one entry per (K, t) with 2 <= K <= 9 and 1 <= t < K, plus (10, 7).
Each census runs once through ``ptcache.cli.main(["search", ...])``.  Its
entry holds the counts read off stdout (explored, feasible, and the no_lcm,
rate and mc rejections), the best F_PT with its grouping and rules, and the
sha256 of stdout; a census with K <= 6 also writes ``--out``, and its entry
holds the sha256 of that CSV.

    python3 scripts/census_oracle.py --write       # recompute every entry
    python3 scripts/census_oracle.py --check       # (9,3) (9,4) (9,5) (10,7)

``--check`` recomputes the four censuses the test suite leaves out, prints
one line per census and exits 1 if any differs from the file; they take
about a minute together on a 2-vCPU x86-64 host.  To check one other pair,
compare ``census(K, t)`` with its entry.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from ptcache.cli import main as cli_main

DATA = Path(__file__).resolve().parent.parent / "tests" / "data" / "censuses.json"
LARGE = ((9, 3), (9, 4), (9, 5), (10, 7))
CSV_MAX_K = 6  # the censuses whose --out CSV is pinned


def cases():
    """Every pinned (K, t), in file order."""
    return [(K, t) for K in range(2, 10) for t in range(1, K)] + [(10, 7)]


def key(K, t):
    return f"{K},{t}"


def census(K, t):
    """The entry of (K, t), computed by one CLI search."""
    argv = ["search", "--K", str(K), "--t", str(t)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "census.csv")
        if K <= CSV_MAX_K:
            argv += ["--out", path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"search {key(K, t)} exited {code}")
        summary = json.loads(out.getvalue())
        entry = {
            "explored": summary["explored"],
            "feasible": summary["feasible"],
            **summary["infeasible"],
            "best": summary.get("best"),
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        }
        if K <= CSV_MAX_K:
            entry["csv_sha256"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return entry


def load():
    return json.loads(DATA.read_text())


def write():
    entries = {}
    for K, t in cases():
        start = time.perf_counter()
        entries[key(K, t)] = census(K, t)
        print(f"{key(K, t):>5}  {time.perf_counter() - start:7.2f} s", flush=True)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1) + "\n")


def check():
    """Recompute the LARGE censuses and compare them with the file; the
    number that differ."""
    want = load()
    bad = 0
    for K, t in LARGE:
        start = time.perf_counter()
        ok = census(K, t) == want[key(K, t)]
        bad += not ok
        print(f"{key(K, t):>5}  {time.perf_counter() - start:7.2f} s  "
              f"{'ok' if ok else 'DIFFERS'}", flush=True)
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="recompute every entry")
    mode.add_argument("--check", action="store_true",
                      help="recompute and compare the four censuses the test "
                      "suite leaves out")
    args = ap.parse_args(argv)
    if args.write:
        write()
        return 0
    return 1 if check() else 0


if __name__ == "__main__":
    sys.exit(main())
