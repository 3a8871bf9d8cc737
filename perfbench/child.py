"""One benchmark job in a fresh interpreter.

Imports ptcache from the checkout's ``src``, optionally instruments it, runs
one ``ptcache.cli.main`` invocation with its stdout and stderr captured, and
prints a JSON result as its last line.  Without ``--job`` it only measures
set-up.  ``run.py`` starts this script; it is not meant to be run by hand.

Modes (at most one):
  --spans FILE   record a span around every call of the traced functions and
                 write the spans to FILE when the job ends;
  --peak-alloc   report the tracemalloc peak inside each of PEAK_TRACED.

Outside ``--peak-alloc`` a :class:`SpeedProbe` times a fixed pure-Python loop
every PROBE_PERIOD_S, from set-up to the end of the job, so that ``run.py``
can scale every time to the speed the host gave this process while it ran.
The reported ``setup_s`` and ``job_s`` leave the probes' own time out.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import inspect
import io
import json
import resource
import signal
import sys
import time
import tracemalloc
import traceback
from array import array
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Public functions timed in the traced pass, by the module that defines them.
# Every ptcache module that binds one of them by name gets the wrapper too,
# so ``search.vector_lcm`` and ``engine.vector_lcm`` are both traced.
TRACED = {
    "combinat": ("integer_partitions",),
    "typevec": ("enumerate_types", "type_of", "mgroup_structure", "per_user_count"),
    "fscalc": ("vector_lcm", "local_fs", "mc_check"),
    "search": ("exhaustive_search",),
    "engine": (
        "analyze_rules",
        "build_plan",
        "place",
        "deliver",
        "decode_and_verify",
        "measure",
    ),
    "cli": ("main",),
}
PEAK_TRACED = ("engine.place", "engine.decode_and_verify")

# The speed probe: PROBE_ITERS rounds of dict and integer work, like
# ptcache's own, timed every PROBE_PERIOD_S (about 1% of the run) and
# PROBE_BURST times in a row after set-up and after the job.  PROBE_REF_S is
# the probe's mean on a 2-vCPU 2.0 GHz x86-64 host at Python 3.11: run.py
# reports a time t measured while the probe took p on average as
# t * PROBE_REF_S / p, seconds at that host's typical speed.
PROBE_PERIOD_S = 0.04
PROBE_ITERS = 1000
PROBE_BURST = 16
PROBE_REF_S = 0.0004
_PROBE_TABLE: dict[tuple[int, int], int] = {}


def _probe_loop() -> None:
    # The same keys every time, so after the first probe it allocates
    # nothing that outlives it.
    table = _PROBE_TABLE
    for i in range(PROBE_ITERS):
        k = (i * 7919) % 1009
        table[k, i & 7] = table.get((k, i & 7), 0) ^ (k * i)


class SpeedProbe:
    """Start and end times of every probe.  A SIGALRM handler runs between
    two bytecodes of whatever the process is doing, in its one thread, so a
    probe never overlaps the work it samples."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.busy = False

    def take(self, *_signal) -> None:
        if self.busy:  # the timer fired inside a burst's probe
            return
        self.busy = True
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_loop()
        t1 = time.perf_counter()
        if was_enabled:
            gc.enable()
        self.start.append(t0)
        self.end.append(t1)
        self.busy = False

    def begin(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def finish(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def burst(self) -> None:
        for _ in range(PROBE_BURST):
            self.take()

    def durations(self, t0: float, t1: float = float("inf")) -> list[float]:
        """Durations of the probes that started in [t0, t1)."""
        return [e - b for b, e in zip(self.start, self.end) if t0 <= b < t1]

    def mean_since(self, t0: float) -> float:
        d = self.durations(t0)  # a burst has just run: never empty
        return sum(d) / len(d)

    def intervals(self) -> list[list[float]]:
        return [[b, e] for b, e in zip(self.start, self.end)]


def _count_search(result) -> dict[str, int]:
    return {
        "search.leaves": result.explored,
        "search.feasible": len(result.pareto),
        "search.records": len(result.records),
    }


def _count_place(caches) -> dict[str, int]:
    return {
        "engine.place.cache_entries": sum(len(c) for c in caches.values()),
        "engine.place.cached_bytes": sum(
            len(p) for c in caches.values() for p in c.values()
        ),
    }


def _count_deliver(messages) -> dict[str, int]:
    return {
        "engine.deliver.messages": len(messages),
        "engine.deliver.sent_bytes": sum(len(m.payload) for m in messages),
    }


# Sizes read off a traced function's return value.
COUNTERS = {
    "search.exhaustive_search": _count_search,
    "engine.place": _count_place,
    "engine.deliver": _count_deliver,
}


def _rebind(fn, replacement) -> None:
    """Point every ptcache module-level binding of ``fn`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ptcache" or name.startswith("ptcache.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)


def _traced_functions() -> dict[str, object]:
    """Span name -> original function, for TRACED plus every public
    function that ptcache.designs defines."""
    out = {}
    for short, names in TRACED.items():
        mod = sys.modules[f"ptcache.{short}"]
        for name in names:
            out[f"{short}.{name}"] = getattr(mod, name)
    designs = sys.modules["ptcache.designs"]
    for name, fn in vars(designs).items():
        if (
            inspect.isfunction(fn)
            and fn.__module__ == designs.__name__
            and not name.startswith("_")
        ):
            out[f"designs.{name}"] = fn
    return out


class Tracer:
    """Spans as parallel arrays (name id, start, end, parent index), kept in
    memory until :meth:`dump`.  Counts read off return values and exceptions
    raised through a wrapper are tallied by name."""

    def __init__(self) -> None:
        self.names: list[str] = ["trace.count"]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def _tally(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, span: str, fn):
        name_id = len(self.names)
        self.names.append(span)
        count = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self._tally(f"{span}.raised.{type(e).__name__}", 1)
                raise
            finally:
                self._close(i)
            if count is not None:
                # A span of its own keeps the counting out of the caller's
                # self time.
                j = self._open(0)
                for key, n in count(result).items():
                    self._tally(key, n)
                self._close(j)
            return result

        return traced

    def install(self) -> None:
        for span, fn in _traced_functions().items():
            _rebind(fn, self.wrap(span, fn))

    def dump(self, path: str, probes: list[list[float]]) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "counts": self.counts,
                    "probes": probes,
                },
                fh,
            )


def _peak_wrapper(span: str, fn, peaks: dict[str, int]):
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            peaks[span] = max(peaks.get(span, 0), peak)

    return measured


def install_peak_alloc(peaks: dict[str, int]) -> None:
    for span in PEAK_TRACED:
        short, name = span.split(".")
        fn = getattr(sys.modules[f"ptcache.{short}"], name)
        _rebind(fn, _peak_wrapper(span, fn, peaks))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--job", help="JSON list: the argv for ptcache.cli.main")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--spans")
    mode.add_argument("--peak-alloc", action="store_true")
    args = p.parse_args()

    probe = None if args.peak_alloc else SpeedProbe()
    if probe is not None:
        probe.begin()
    t_main = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ptcache.cli  # imports every ptcache module

    tracer = None
    peaks: dict[str, int] = {}
    if args.spans:
        tracer = Tracer()
        tracer.install()
    elif args.peak_alloc:
        install_peak_alloc(peaks)
    result: dict[str, object] = {"setup_s": time.monotonic() - args.spawned}
    t_ready = time.perf_counter()
    if probe is not None:
        result["setup_s"] -= sum(probe.durations(t_main, t_ready))
        probe.burst()
        result["setup_probe_s"] = probe.mean_since(t_main)

    if args.job is not None:
        argv = json.loads(args.job)
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = ptcache.cli.main(argv)  # looked up now: may be wrapped
            except Exception:
                traceback.print_exc()
        t1 = time.perf_counter()
        result["job_s"] = t1 - t0
        if probe is not None:
            probe.finish()
            result["job_s"] -= sum(probe.durations(t0, t1))
            probe.burst()
            result["job_probe_s"] = probe.mean_since(t0)
        result.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue()[-4000:])
        if tracer is not None:
            tracer.dump(args.spans, probe.intervals())
        result["peak_alloc_bytes"] = peaks
    elif probe is not None:
        probe.finish()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
