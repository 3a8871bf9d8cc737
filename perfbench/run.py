"""ptcache benchmark: the CLI's search census, bit-exact simulation and ratio
sweep, timed end to end, checked against frozen oracles, and traced per
module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run it from the root of a checkout; it imports ptcache from ``src/``.

Load model: a closed loop with one client.  Each job is one
``ptcache.cli.main`` invocation in a fresh single-threaded interpreter
(``child.py``), started only after the previous job ended.  Jobs start until
``--seconds`` have passed, at least one.  ``--seed`` draws the inputs (the
demand vectors and file seeds of the simulate workloads).  A job fails on a
nonzero exit code or any oracle mismatch.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: median
``job_s`` and ``peak_rss_mb`` over the jobs, and median ``setup_s`` (spawn
to "ready to run the job", i.e. interpreter start plus importing ptcache)
over at least MIN_SETUPS fresh interpreters.

Every time is scaled to a reference host speed.  A shared host's speed
drifts by tens of percent within seconds, and the wall-clock medians of two
35 s runs differed by up to a third.  So each child times a small fixed
probe loop every 40 ms while it works (``child.SpeedProbe``), and a time t
measured while the probe took p on average is reported as
``t * PROBE_REF_S / p``.  The probe runs in the job's own thread, between
its bytecodes, so it sees the speed the job saw; its own time is left out of
t.  The report keeps the unscaled wall-clock medians too.

``--trace 1`` reports the per-layer metrics: an untraced pass and a traced
pass of ``seconds / 3`` each (their ratio is ``trace.overhead_ratio``), then
one job under tracemalloc when the traced pass saw any PEAK_TRACED function
called, so that a traced run takes about as long as an untraced one.
Per-layer counts and times are per job.

The last line of stdout is the JSON result; the lines above it are a report
with sample counts, the workload's own throughput, failures and machine
context.  ``--selfcheck`` runs shrunken workloads in both modes and checks
that a corrupted oracle value is reported as a failure; it exits 0 when all
of that holds.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import os
import platform
import random
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite
from pathlib import Path
from statistics import median

from child import PEAK_TRACED, PROBE_REF_S, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
RUN_LIMIT_S = 170.0
MIN_SETUPS = 7
MB = 1e6


@dataclass(frozen=True)
class Workload:
    kind: str  # "search" | "simulate" | "sweep"
    argv: tuple[str, ...]
    users: int = 0  # simulate: K and N, to draw demand vectors
    files: int = 0


WORKLOADS = {
    # Full census: 23,549 candidates over 15 groupings, 21,948 of them (93%)
    # rejected at the LCM stage.  search + fscalc; no engine data plane.
    "search-k7t4": Workload("search", ("search", "--K", "7", "--t", "4")),
    # 6,909 packets per file, 290k cache entries, 9,212 XOR messages: engine
    # place/deliver/decode and typevec.type_of do nearly all the work; one
    # LCM, no search.
    "simulate-thm2-k14": Workload(
        "simulate",
        ("simulate", "--thm", "2", "--K", "14", "--t", "6", "--N", "7", "--M", "3",
         "--bytes-per-packet", "16"),
        users=14,
        files=7,
    ),
    # About 200 analyze_rules calls at K up to 100, dominated by type
    # enumeration (integer_partitions); no bytes, no search.
    "sweep-thm1-k100": Workload(
        "sweep", ("sweep", "--family", "thm1", "--tbar", "2,4", "--K", "4..100")
    ),
    # The same census at t=3 (85,289 candidates, 92% rejected at the LCM
    # stage).  Its 10-15 s jobs allow only two or three samples per run, too
    # few for a steady median, so BENCHMARK.json runs search-k7t4 instead.
    "search-k7t3": Workload("search", ("search", "--K", "7", "--t", "3")),
    # Shrunken inputs with their own oracles, for --selfcheck.
    "search-k5t2": Workload("search", ("search", "--K", "5", "--t", "2")),
    "simulate-tbar3-k9": Workload(
        "simulate",
        ("simulate", "--special", "tbar3", "--K", "9", "--N", "3", "--M", "2"),
        users=9,
        files=3,
    ),
    "sweep-thm1-k12": Workload(
        "sweep", ("sweep", "--family", "thm1", "--tbar", "2", "--K", "4..12")
    ),
}
SELFCHECK = ("search-k5t2", "simulate-tbar3-k9", "sweep-thm1-k12")
THROUGHPUT = {
    "search": "search_leaves_per_s",
    "simulate": "sim_verified_mb_per_s",
    "sweep": "sweep_rows_per_s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def job_argv(w: Workload, rng: random.Random) -> list[str]:
    if w.kind != "simulate":
        return list(w.argv)
    demand = ",".join(str(rng.randrange(1, w.files + 1)) for _ in range(w.users))
    return [*w.argv, "--demands", demand, "--seed", str(rng.randrange(2**31))]


# Each check returns (mismatches, work done by the job in its workload's unit).


def check_search(out: str, oracle: dict) -> tuple[list[str], float]:
    r = json.loads(out)
    got = {
        "explored": r["explored"],
        "feasible": r["feasible"],
        "infeasible": r["infeasible"],
        "best_F_PT": r.get("best", {}).get("F_PT"),
    }
    bad = [f"{k}: got {got[k]!r}, want {v!r}" for k, v in oracle.items() if got[k] != v]
    return bad, r["explored"]


def check_simulate(out: str, oracle: dict) -> tuple[list[str], float]:
    r = json.loads(out)
    bad = [f"{k}: got {r.get(k)!r}, want {v!r}" for k, v in oracle.items() if r.get(k) != v]
    # every user's demanded file is reconstructed and byte-compared
    return bad, r["K"] * r["F_PT"] * r["bytes_per_packet"] * r["demands_checked"] / MB


def check_sweep(out: str, oracle: dict) -> tuple[list[str], float]:
    rows = list(csv.DictReader(io.StringIO(out)))
    bad = []
    table: dict[str, dict[str, int]] = {}
    for row in rows:
        K, f_pt = int(row["K"]), int(row["F_PT"])
        t = K - int(row["label"].split("=")[1])
        table.setdefault(row["label"], {})[row["K"]] = f_pt
        ratio = Fraction(row["ratio"])
        if int(row["F_JCM"]) != t * comb(K, t):
            bad.append(f"{row['label']} K={K}: F_JCM {row['F_JCM']} != {t * comb(K, t)}")
        if ratio != Fraction(f_pt, t * comb(K, t)) or ratio > Fraction(row["bound"]):
            bad.append(f"{row['label']} K={K}: ratio {ratio} wrong or above {row['bound']}")
    for label, want in oracle["F_PT"].items():
        got = table.get(label, {})
        diff = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
        if diff:
            k = diff[0]
            bad.append(f"{label}: F_PT differs at {len(diff)} K, first K={k}: "
                       f"got {got.get(k)}, want {want.get(k)}")
    extra = table.keys() - oracle["F_PT"].keys()
    if extra:
        bad.append(f"unexpected rows for {sorted(extra)}")
    return bad, len(rows)


CHECKS = {"search": check_search, "simulate": check_simulate, "sweep": check_sweep}


def aggregate_spans(path: Path, scale: float) -> dict:
    """Calls and self time per span name, plus the child's tallies.  Self
    time is a span's duration minus the durations of its direct children
    (one thread, so children nest and never overlap) and minus the speed
    probes that ran inside it, times ``scale``."""
    with open(path) as fh:
        s = json.load(fh)
    n = len(s["start"])
    dur = [e - b for b, e in zip(s["start"], s["end"])]
    covered = [0.0] * n
    for i, p in enumerate(s["parent"]):
        if p >= 0:
            covered[p] += dur[i]
    # Spans are recorded in the order they open, so ``start`` ascends; the
    # innermost span around a probe is the last one opened before it that
    # had not yet closed when the probe ended, or one of its ancestors.
    for b, e in s["probes"]:
        i = bisect_right(s["start"], b) - 1
        while i >= 0 and s["end"][i] < e:
            i = s["parent"][i]
        if i >= 0:
            covered[i] += e - b
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    for i, nid in enumerate(s["name"]):
        name = s["names"][nid]
        calls[name] += 1
        self_s[name] += (dur[i] - covered[i]) * scale
    return {"calls": calls, "self_s": self_s, "counts": Counter(s["counts"])}


class Run:
    """One benchmark run of one workload: spawns children, checks outputs
    and counts attempted and failed jobs across all passes."""

    def __init__(self, name: str, seed: int, oracles: dict) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.oracle = oracles[name]
        self.rng = random.Random(seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "PT_CACHE_THREADS"}
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        cmd = [sys.executable, str(CHILD), *args, "--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s") from e
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        # Scale to the reference speed; keep the wall-clock times as *_wall_s.
        for key, probe in (("setup_s", "setup_probe_s"), ("job_s", "job_probe_s")):
            if probe in res:
                res[key.replace("_s", "_wall_s")] = res[key]
                res[key] *= PROBE_REF_S / res[probe]
        return res

    def job(self, *mode: str) -> dict:
        argv = job_argv(self.workload, self.rng)
        res = self.child("--job", json.dumps(argv), *mode)
        self.attempted += 1
        res["work"] = 0.0
        if res["rc"] != 0:
            problems = [f"exit code {res['rc']}: {res['stderr'][-500:]}"]
        else:
            try:
                problems, res["work"] = CHECKS[self.workload.kind](res["stdout"], self.oracle)
            except (ValueError, KeyError, TypeError, AttributeError, IndexError) as e:
                problems = [f"unreadable output ({e!r}): {res['stdout'][:200]!r}"]
        if problems:
            self.failures.append(f"{' '.join(argv)}: {'; '.join(problems)}")
        if "--spans" in mode:
            res["layers"] = aggregate_spans(Path(mode[mode.index("--spans") + 1]),
                                            PROBE_REF_S / res["job_probe_s"])
        return res

    def jobs_for(self, seconds: float, *mode: str) -> list[dict]:
        """Closed loop: start jobs one after another until ``seconds`` have
        passed, at least one."""
        done: list[dict] = []
        t0 = time.monotonic()
        while not done or time.monotonic() - t0 < seconds:
            done.append(self.job(*mode))
        return done

    @property
    def failed(self) -> int:
        return len(self.failures)


def tail(values: list[float]) -> dict | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            ranked = sorted(values)
            return {"p": p, "value": ranked[min(n - 1, int(n * p / 100))]}
    return None


def timed_pass(run: Run, seconds: float) -> tuple[dict, dict]:
    run.child()  # warm-up: byte-compile ptcache and page it in; not counted
    jobs = run.jobs_for(seconds)
    setups = [j["setup_s"] for j in jobs]
    while len(setups) < MIN_SETUPS:
        setups.append(run.child()["setup_s"])
    job_s = [j["job_s"] for j in jobs]
    rss = [j["maxrss_kb"] * 1024 / MB for j in jobs]
    metrics = {
        "job_s": median(job_s),
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
    }
    report = {
        "job_s": {"median": metrics["job_s"], "samples": len(job_s), "tail": tail(job_s),
                  "values": job_s,
                  "wall_median": median(j["job_wall_s"] for j in jobs),
                  "probe_mean_s_median": median(j["job_probe_s"] for j in jobs)},
        "setup_s": {"median": metrics["setup_s"], "samples": len(setups)},
        "peak_rss_mb": {"median": metrics["peak_rss_mb"], "max": max(rss)},
        THROUGHPUT[run.workload.kind]: median(j["work"] / j["job_s"] for j in jobs),
    }
    return metrics, report


def layer_metrics(traced: list[dict], peaks: dict[str, int], overhead: float) -> dict:
    n = len(traced)
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    for j in traced:
        calls.update(j["layers"]["calls"])
        self_s.update(j["layers"]["self_s"])
        counts.update(j["layers"]["counts"])
    m: dict[str, float] = {}
    for short, names in TRACED.items():
        for name in names:
            span = f"{short}.{name}"
            m[f"{span}.calls"] = calls[span] / n
            m[f"{span}.self_s"] = self_s[span] / n
    m["designs.self_s"] = sum(v for k, v in self_s.items() if k.startswith("designs.")) / n
    lcm_calls = calls["fscalc.vector_lcm"]
    rejected = counts["fscalc.vector_lcm.raised.NoLcmError"]
    m["fscalc.vector_lcm.reject_ratio"] = rejected / lcm_calls if lcm_calls else 0.0
    leaves = counts["search.leaves"]
    m["search.leaves"] = leaves / n
    m["search.records"] = counts["search.records"] / n
    m["search.feasible_ratio"] = counts["search.feasible"] / leaves if leaves else 0.0
    m["engine.place.cache_entries"] = counts["engine.place.cache_entries"] / n
    m["engine.place.cached_mb"] = counts["engine.place.cached_bytes"] / MB / n
    m["engine.deliver.messages"] = counts["engine.deliver.messages"] / n
    m["engine.deliver.sent_mb"] = counts["engine.deliver.sent_bytes"] / MB / n
    for span in PEAK_TRACED:
        m[f"{span}.peak_alloc_mb"] = peaks.get(span, 0) / MB
    m["trace.overhead_ratio"] = overhead
    return m


def traced_pass(run: Run, seconds: float) -> tuple[dict, dict]:
    run.child()  # warm-up, not counted
    plain = run.jobs_for(seconds / 3)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{run.name}.json"
    traced = run.jobs_for(seconds / 3, "--spans", str(spans))
    peaks: dict[str, int] = {}
    # tracemalloc slows everything it watches, so it gets a job of its own,
    # and only when the traced pass shows there is something to watch.
    if any(j["layers"]["calls"][span] for j in traced for span in PEAK_TRACED):
        peaks = run.job("--peak-alloc")["peak_alloc_bytes"]
    plain_s = median(j["job_s"] for j in plain)
    traced_s = median(j["job_s"] for j in traced)
    metrics = layer_metrics(traced, peaks, traced_s / plain_s)
    report = {
        "untraced_job_s": {"median": plain_s, "samples": len(plain)},
        "traced_job_s": {"median": traced_s, "samples": len(traced)},
        "spans_file": str(spans.relative_to(ROOT)),
        "layers": metrics,
    }
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 oracles: dict, specs: list[dict]) -> tuple[dict, dict]:
    """One run: (result object for the last line, report)."""
    if not (ROOT / "src" / "ptcache" / "cli.py").is_file():
        raise BenchError(f"no ptcache sources under {ROOT / 'src'}")
    load_start = os.getloadavg()
    run = Run(name, seed, oracles)
    metrics, report = (traced_pass if trace else timed_pass)(run, seconds)
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        **report,
        "attempted": run.attempted,
        "failed_ratio": run.failed / run.attempted,
        "failures": run.failures[:5],
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs
        },
    }
    return result, report


def load_specs(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def load_oracles() -> dict:
    with open(HERE / "oracles.json") as fh:
        return json.load(fh)


# One deliberately wrong oracle value per kind of check.
CORRUPTIONS = {
    "search-k5t2": lambda o: o.update(explored=o["explored"] + 1),
    "simulate-tbar3-k9": lambda o: o.update(F_PT=o["F_PT"] + 1),
    "sweep-thm1-k12": lambda o: o["F_PT"]["t_bar=2"].update({"8": 25}),
}


def selfcheck() -> int:
    oracles = load_oracles()
    problems = []
    for trace in (False, True):
        specs = load_specs(trace)
        for name in SELFCHECK:
            result, report = run_workload(name, 1, 0, trace, oracles, specs)
            values = [m["value"] for m in result["metrics"].values()]
            print(f"selfcheck {name} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} metrics={len(values)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {report['failures']}")
            if not all(isinstance(v, (int, float)) and isfinite(v) for v in values):
                problems.append(f"{name} trace={int(trace)}: a metric is not a number")
    for name, corrupt in CORRUPTIONS.items():
        bad = copy.deepcopy(oracles)
        corrupt(bad[name])
        result, report = run_workload(name, 1, 0, False, bad, load_specs(False))
        print(f"selfcheck {name} corrupted oracle: {report['failures']}")
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{name}: corrupted oracle was not reported as a failure")
    for p in problems:
        print(f"selfcheck FAILED: {p}")
    print("selfcheck ok" if not problems else "selfcheck failed")
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            p.error("--workload is required")
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), load_oracles(),
                                      load_specs(bool(args.trace)))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
