"""Command-line front end.

Subcommands: design (build + report a scheme), analyze (full split-factor
and consistency tables), simulate (bit-exact placement/delivery/decode),
search (brute force over rules), sweep (ratio curves per family).

Exit codes: 0 ok, 2 design infeasible, 3 decode failure, 4 bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from collections.abc import Iterable, Sequence
from contextlib import nullcontext
from fractions import Fraction
from itertools import product

from . import engine
from .designs import (
    DPDA_MODES,
    SPECIAL_KINDS,
    DesignSpec,
    dpda_specials,
    jcm_design,
    special_designs,
    theorem1_design,
    theorem2_design,
    theorem3_design,
)
from .engine import SCHEMA_VERSION
from .fscalc import PlanError, analyze_rules
from .fscalc import fs_table_json, jcm_baseline
from .search import MAX_BUDGET, MAX_CANDIDATES, MAX_K, exhaustive_search
from .search import search_space, sweep_ratios

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_DECODE = 3
EXIT_USAGE = 4

# largest K of a design that design, analyze and simulate build, and of a
# sweep; checked before the design or the K values are built
LAYOUT_MAX_K = 1000
# largest library a simulation draws, N * F_PT * --bytes-per-packet bytes
# (256 MiB); checked before any file is drawn
MAX_LIBRARY_BYTES = 2**28
# most demand vectors one simulation checks, counted or "all"
MAX_DEMANDS = 65536
# most rows, one per candidate, that search --out writes: 0.2 GB at about
# 190 bytes a row; checked before the search runs
MAX_CSV_ROWS = 2**20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on its own; route through UsageError so
    # that bad arguments consistently yield exit code 4.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x != "")


def _parse_range(text: str) -> tuple[int, ...]:
    """Accept "4..40", a single value, or a comma list, each 1 <= K <= LAYOUT_MAX_K."""
    if ".." in text:
        lo, top = (int(x) for x in text.split("..", 1))
        values: Sequence[int] = range(lo, top + 1)
    else:
        values = _parse_int_list(text)
        lo, top = min(values, default=1), max(values, default=0)
    if not values:
        raise UsageError(f"--K {text!r} names no value")
    if top > LAYOUT_MAX_K:
        raise UsageError(f"--K {text!r} goes above the cap K={LAYOUT_MAX_K}")
    if lo < 1:
        raise UsageError(f"--K {text!r} goes below K=1")
    return tuple(values)


def _build_parser() -> _Parser:
    p = _Parser(prog="ptcache", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # the scheme selector of design, analyze and simulate: exactly one of
    # the five flags in the group, plus the parameters _resolve_design reads
    sel = argparse.ArgumentParser(add_help=False)
    one = sel.add_mutually_exclusive_group(required=True)
    one.add_argument("--thm", type=int, choices=(1, 2, 3))
    one.add_argument("--special", choices=SPECIAL_KINDS)
    one.add_argument("--dpda", choices=[m.replace("_", "-") for m in DPDA_MODES])
    one.add_argument("--jcm", action="store_true")
    one.add_argument("--grouping", type=_parse_int_list, help="comma list of group sizes")
    sel.add_argument("--rules", dest="rules_path", help="JSON file of transmitter rules")
    sel.add_argument("--K", type=int)
    sel.add_argument("--t", type=int)
    sel.add_argument("--tbar", dest="t_bar", type=int)
    sel.add_argument("--m", type=int)
    sel.add_argument("--q", type=int)
    sel.add_argument("--variant", choices=("orderwise", "fallback"))
    sel.add_argument("--out", type=str)

    d = sub.add_parser("design", parents=[sel], help="build a scheme and report its parameters")
    d.set_defaults(run=cmd_design)
    a = sub.add_parser("analyze", parents=[sel], help="full type/split-factor/consistency tables")
    a.set_defaults(run=cmd_analyze)
    s = sub.add_parser("simulate", parents=[sel], help="place, deliver and decode real bytes")
    s.set_defaults(run=cmd_simulate)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--bytes-per-packet", dest="bytes_per_packet", type=int, default=1)
    s.add_argument(
        "--demands",
        default="1",
        help=f'"all", a count of random demand vectors (either at most '
        f'{MAX_DEMANDS}), or an explicit "1,2,1"',
    )
    s.add_argument("--transcript", help="write the last demand's delivery transcript (JSONL)")
    for sp in (d, s):  # the library and cache sizes, read by _memory_point
        sp.add_argument("--N", type=int)
        sp.add_argument("--M", type=int)

    se = sub.add_parser("search", help="exhaustive rule search at one (K, t)")
    se.set_defaults(run=cmd_search)
    se.add_argument("--K", type=int, required=True, help=f"users, at most {MAX_K}")
    se.add_argument("--t", type=int, required=True)
    se.add_argument(
        "--budget",
        type=int,
        help=f"stop after this many candidates (at most {MAX_BUDGET:,}); without it, "
        f"a (K, t) with more than {MAX_CANDIDATES:,} candidates is refused "
        f"before the search starts",
    )
    se.add_argument("--out", type=str, help="write all evaluated candidates as CSV")

    sw = sub.add_parser("sweep", help="ratio curves along K for one family")
    sw.set_defaults(run=cmd_sweep)
    sw.add_argument("--family", required=True, choices=("thm1", "thm2", "thm3"))
    sw.add_argument("--K", dest="K_range", type=_parse_range, required=True,
                    help=f'K range, e.g. "4..40" or "8,12,16"; K <= {LAYOUT_MAX_K}')
    sw.add_argument("--tbar", dest="t_bar_list", type=_parse_int_list, default=(),
                    help="comma list of t_bar values (thm1)")
    sw.add_argument("--t", dest="t_list", type=_parse_int_list, default=(),
                    help="comma list of t values (thm2/thm3)")
    sw.add_argument("--m", type=int, help="group count (thm3)")
    sw.add_argument("--out", type=str)
    return p


# the flags each scheme selector and sweep family reads, all needed but
# --variant (orderwise when absent); --dpda and every other --special read
# --K alone
READS = {
    "--thm 1": "--K --tbar --variant",
    "--thm 2": "--K --t",
    "--thm 3": "--m --q --t",
    "--special lemma2": "--K --q",
    "--jcm": "--K --t",
    "--grouping": "--K --t --rules",
    "sweep --family thm1": "--tbar",
    "sweep --family thm2": "--t",
    "sweep --family thm3": "--m --t",
}


# refuses ``what`` when ``given``, the flags it could read as typed mapped to
# their values (None or () when absent), lacks a flag that READS[what] needs
# or sets one it does not read
def _check_reads(what: str, given: dict[str, object]) -> None:
    reads = READS.get(what, "--K").split()
    have = [f for f, value in given.items() if value not in (None, ())]
    missing = [f for f in reads if f not in have and f != "--variant"]
    if missing:
        raise UsageError(f"{what} needs {' and '.join(missing)}")
    unread = [f for f in have if f not in reads]
    if unread:
        raise UsageError(f"{what} does not read {', '.join(unread)}")


def _resolve_design(args: argparse.Namespace) -> DesignSpec:
    """The design the selector arguments name.  K (m * q for a --thm 3
    inside the family's window m, q > t) above LAYOUT_MAX_K is refused
    before any design is built; input outside the window gets the family's
    own message.  The plan caps are checked where plans are built, by
    engine.build_plan."""
    K, t, m, q = args.K, args.t, args.m, args.q
    selector = (  # argparse admits exactly one
        f"--thm {args.thm}" if args.thm
        else f"--special {args.special}" if args.special
        else "--dpda" if args.dpda
        else "--jcm" if args.jcm
        else "--grouping"
    )
    _check_reads(selector, {"--K": K, "--t": t, "--tbar": args.t_bar, "--m": m,
                            "--q": q, "--variant": args.variant,
                            "--rules": args.rules_path})
    if args.thm == 3:
        K = m * q if min(m, q) > t else 0
    if K > LAYOUT_MAX_K:
        raise UsageError(f"K={K} goes above the cap K={LAYOUT_MAX_K}")
    if args.thm == 1:
        return theorem1_design(K, args.t_bar, args.variant or "orderwise")
    if args.thm == 2:
        return theorem2_design(K, t)
    if args.thm == 3:
        return theorem3_design(m, q, t)
    if args.special is not None:
        return special_designs(args.special, K, q=q)
    if args.dpda is not None:
        return dpda_specials(args.dpda.replace("-", "_"), K)
    if args.jcm:
        return jcm_design(K, t)
    with open(args.rules_path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise UsageError(f"--rules {args.rules_path}: JSON nested too deeply") from None
    return DesignSpec(
        name=f"custom-K{K}-t{t}",
        K=K,
        t=t,
        grouping_sizes=args.grouping,
        tx_rules=engine.rules_from_json(data),
        type_order=(),
    )


def _memory_point(args: argparse.Namespace, ds: DesignSpec) -> tuple[int, int]:
    """(N, M) with K*M/N equal to the design's cache level."""
    if (args.N is None) != (args.M is None):
        raise UsageError("give both --N and --M or neither")
    if args.N is None:
        return ds.K, ds.t
    N, M = args.N, args.M
    if not 1 <= M <= N:
        raise UsageError(f"need 1 <= M <= N, got N={N}, M={M}")
    if (ds.K * M) % N or (ds.K * M) // N != ds.t:
        raise UsageError(
            f"(N={N}, M={M}) puts the cache level at K*M/N != {ds.t} "
            f"required by this design"
        )
    return N, M


def _emit(obj: object, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# opens each output path given once for append, called once every refusal
# check has passed, so that an unwritable one fails before the work
def _open_outputs(*paths):
    for path in filter(None, paths):
        open(path, "a").close()


def cmd_design(args: argparse.Namespace) -> int:
    ds = _resolve_design(args)
    N, M = _memory_point(args, ds)
    plan = engine.build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    f_jcm, _ = jcm_baseline(plan.K, plan.t)
    ratio = Fraction(plan.f_pt, f_jcm)
    report = engine.plan_json(plan)
    report.update(design=ds.name, F_JCM=f_jcm, ratio=f"{ratio.numerator}/{ratio.denominator}")
    _emit(report, args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    ds = _resolve_design(args)
    analysis = analyze_rules(ds.K, ds.t, ds.grouping_sizes, ds.tx_rules)
    f_jcm, jcm_rate = jcm_baseline(ds.K, ds.t)
    ratio = Fraction(analysis.f_pt, f_jcm)
    out: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "design": ds.name,
        "K": ds.K,
        "t": ds.t,
        "grouping": list(analysis.grouping.sizes),
        "subfile_types": [
            {"type": v.text(), "count": c, "factor": f}
            for v, c, f in zip(
                analysis.subfile_types,
                analysis.type_counts,
                analysis.global_fs.factors,
            )
        ],
        "fs_table": fs_table_json(analysis.rule_types, analysis.fs_rows),
        "row_scales": {
            gt.text(): analysis.z_of[gt] for gt in analysis.rule_types
        },
        "excluded_types": sorted(v.text() for v in analysis.excluded),
        "skipped_group_types": sorted(
            v.text() for v in analysis.skipped_group_types
        ),
        "mc_table": [list(row) for row in analysis.mc_rows],
        "mc_ok": True,  # analyze_rules raised otherwise
        "F_PT": analysis.f_pt,
        "F_JCM": f_jcm,
        "ratio": f"{ratio.numerator}/{ratio.denominator}",
        "jcm_rate": f"{jcm_rate.numerator}/{jcm_rate.denominator}",
    }
    _emit(out, args.out)
    return EXIT_OK


def _demand_vectors(
    spec: str, K: int, N: int, rng: random.Random
) -> Iterable[tuple[int, ...]]:
    """The demand vectors --demands names, checked up front and drawn from
    ``rng`` one at a time."""
    if spec == "all":
        count = N ** K
        if count > MAX_DEMANDS:
            raise UsageError(
                f"--demands all would enumerate {count} vectors; cap is {MAX_DEMANDS}"
            )
        return product(range(1, N + 1), repeat=K)
    if "," in spec:
        vec = _parse_int_list(spec)
        if len(vec) != K or any(not 1 <= d <= N for d in vec):
            raise UsageError(f"demand vector must list {K} files in 1..{N}")
        return [vec]
    try:
        count = int(spec)
    except ValueError as e:
        raise UsageError(f"bad --demands value {spec!r}") from e
    if not 1 <= count <= MAX_DEMANDS:
        raise UsageError(f"--demands {count}: need 1 to {MAX_DEMANDS} demand vectors")
    return (
        tuple(rng.randrange(1, N + 1) for _ in range(K))
        for _ in range(count)
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    ds = _resolve_design(args)
    N, M = _memory_point(args, ds)
    if args.bytes_per_packet < 1:
        raise UsageError("--bytes-per-packet must be >= 1")
    # every cap is checked before the packet map is walked or a file drawn
    plan = engine.build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    library = N * plan.f_pt * args.bytes_per_packet
    if library > MAX_LIBRARY_BYTES:
        raise UsageError(
            f"--bytes-per-packet {args.bytes_per_packet}: {N} files of {plan.f_pt} "
            f"packets would take {library:,} bytes; cap is {MAX_LIBRARY_BYTES:,}"
        )
    rng = random.Random(args.seed)
    # random demands are drawn lazily, after the files
    demands = _demand_vectors(args.demands, ds.K, N, rng)
    _open_outputs(args.out, args.transcript)
    files = tuple(
        rng.randbytes(plan.f_pt * args.bytes_per_packet) for _ in range(N)
    )

    all_ok = True
    for checked, demand in enumerate(demands, 1):
        session = engine.simulate(plan, files, demand)
        all_ok &= engine.decode_and_verify(session).ok
    # traffic and caches do not depend on the demand
    meas = engine.measure(session)

    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write(engine.transcript_jsonl(session.transcript))

    report = {
        "schema_version": SCHEMA_VERSION,
        "design": ds.name,
        "K": plan.K,
        "N": N,
        "M": M,
        "t": plan.t,
        "F_PT": plan.f_pt,
        "bytes_per_packet": args.bytes_per_packet,
        "demands_checked": checked,
        "all_decoded": all_ok,
        "rate": f"{meas.rate.numerator}/{meas.rate.denominator}",
        "cache_bits": meas.per_user_cache_bits,
        "message_count": meas.message_count,
        "total_bits": meas.total_bits,
    }
    _emit(report, args.out)
    return EXIT_OK if all_ok else EXIT_DECODE


def cmd_search(args: argparse.Namespace) -> int:
    K, t, budget = args.K, args.t, args.budget
    if args.out:  # a row per candidate, counted as the search admits it
        count = search_space(K, t, budget)[0]
        rows = count if budget is None else min(count, budget)
        if rows > MAX_CSV_ROWS:
            raise UsageError(
                f"--out would write {rows:,} rows; the cap is {MAX_CSV_ROWS:,}"
            )
        _open_outputs(args.out)
    result = exhaustive_search(K, t, max_candidates=budget)
    if args.out:
        f_jcm, _ = jcm_baseline(K, t)
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["K", "t", "grouping", "tx_rules", "F_PT", "F_JCM", "ratio",
                 "feasible", "reason"]
            )
            for rec in result.records:
                ratio = (
                    str(Fraction(rec.f_pt, f_jcm)) if rec.f_pt is not None else ""
                )
                w.writerow(
                    [
                        K,
                        t,
                        ",".join(map(str, rec.grouping)),
                        json.dumps(dict(rec.rules), sort_keys=True),
                        rec.f_pt if rec.f_pt is not None else "",
                        f_jcm,
                        ratio,
                        rec.f_pt is not None,
                        rec.reason,
                    ]
                )
    summary: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "K": K,
        "t": t,
        "explored": result.explored,
        "feasible": len(result.pareto),
        "infeasible": result.infeasible,
        "partial": result.partial,
    }
    if result.best is not None:
        ds, f_pt = result.best
        summary["best"] = {
            "F_PT": f_pt,
            "grouping": list(ds.grouping_sizes),
            "tx_rules": engine.rules_json(ds.tx_rules),
        }
    _emit(summary, None)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    given = {"--tbar": args.t_bar_list, "--t": args.t_list, "--m": args.m}
    _check_reads(f"sweep --family {args.family}", given)
    # the family's own flags are the only ones given
    jobs = [{"t_bar": tb} for tb in args.t_bar_list]
    jobs += [{"m": args.m, "t": t} for t in args.t_list]

    # each job's parameters are checked, on no K, before --out is opened,
    # and every job runs before any note is printed, so a job that no K
    # admits fails the command with nothing else on stderr
    for job in jobs:
        sweep_ratios(args.family, (), **job)  # type: ignore[arg-type]
    _open_outputs(args.out)
    results = [
        sweep_ratios(args.family, args.K_range, **job)  # type: ignore[arg-type]
        for job in jobs
    ]
    all_rows = [row for res in results for row in res.rows]
    skipped = [note for res in results for note in res.skipped]
    for K, why in skipped:
        print(f"note: skipped K={K}: {why}", file=sys.stderr)

    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        w = csv.writer(fh)
        w.writerow(["family", "label", "K", "F_PT", "F_JCM", "ratio", "bound"])
        for row in all_rows:
            w.writerow(
                [row.family, row.label, row.K, row.f_pt, row.f_jcm,
                 str(row.ratio), str(row.bound)]
            )
    if args.out:
        summary = {"schema_version": SCHEMA_VERSION, "family": args.family,
                   "rows": len(all_rows), "skipped": len(skipped), "out": args.out}
        _emit(summary, None)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        if isinstance(e, PlanError) and e.stage in ("lcm", "rate", "mc", "skip"):
            print(f"infeasible ({e.stage}): {e}", file=sys.stderr)
            return EXIT_INFEASIBLE
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
