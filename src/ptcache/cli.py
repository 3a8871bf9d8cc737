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
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from . import engine
from .combinat import binomial
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
from .engine import PlanError, SCHEMA_VERSION
from .fscalc import fs_table_json, jcm_baseline
from .search import exhaustive_search, sweep_ratios

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_DECODE = 3
EXIT_USAGE = 4

# largest K a sweep accepts; checked before the K values are built
SWEEP_MAX_K = 1000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on its own; route through UsageError so
    # that bad arguments consistently yield exit code 4.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass
class RunConfig:
    """Parsed invocation, normalized."""

    command: str
    K: int | None = None
    N: int | None = None
    M: int | None = None
    t: int | None = None
    t_bar: int | None = None
    m: int | None = None
    q: int | None = None
    thm: int | None = None
    variant: str = "orderwise"
    special: str | None = None
    dpda: str | None = None
    jcm: bool = False
    grouping: tuple[int, ...] | None = None
    rules_path: str | None = None
    seed: int = 0
    bytes_per_packet: int = 1
    demands: str = "1"
    out: str | None = None
    transcript: str | None = None
    budget: int | None = None
    family: str | None = None
    t_bar_list: tuple[int, ...] = ()
    t_list: tuple[int, ...] = ()
    K_range: tuple[int, ...] = ()


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x != "")


def _parse_range(text: str) -> tuple[int, ...]:
    """Accept "4..40", a single value, or a comma list, each K <= SWEEP_MAX_K."""
    if ".." in text:
        lo, top = (int(x) for x in text.split("..", 1))
        values: Sequence[int] = range(lo, top + 1)
    else:
        values = _parse_int_list(text)
        top = max(values, default=0)
    if not values:
        raise UsageError(f"--K {text!r} names no value")
    if top > SWEEP_MAX_K:
        raise UsageError(f"--K {text!r} goes above the cap K={SWEEP_MAX_K}")
    return tuple(values)


def _build_parser() -> _Parser:
    p = _Parser(prog="ptcache", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_selector(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--thm", type=int, choices=(1, 2, 3))
        sp.add_argument("--special", choices=SPECIAL_KINDS)
        sp.add_argument("--dpda", choices=[m.replace("_", "-") for m in DPDA_MODES])
        sp.add_argument("--jcm", action="store_true")
        sp.add_argument("--grouping", type=str, help="comma list of group sizes")
        sp.add_argument("--rules", dest="rules_path", help="JSON file of transmitter rules")
        sp.add_argument("--K", type=int)
        sp.add_argument("--t", type=int)
        sp.add_argument("--tbar", dest="t_bar", type=int)
        sp.add_argument("--m", type=int)
        sp.add_argument("--q", type=int)
        sp.add_argument("--variant", choices=("orderwise", "fallback"), default="orderwise")
        sp.add_argument("--N", type=int)
        sp.add_argument("--M", type=int)
        sp.add_argument("--out", type=str)

    d = sub.add_parser("design", help="build a scheme and report its parameters")
    add_selector(d)

    a = sub.add_parser("analyze", help="full type/split-factor/consistency tables")
    add_selector(a)

    s = sub.add_parser("simulate", help="place, deliver and decode real bytes")
    add_selector(s)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--bytes-per-packet", dest="bytes_per_packet", type=int, default=1)
    s.add_argument(
        "--demands",
        default="1",
        help='"all", a count of random demand vectors, or an explicit "1,2,1"',
    )
    s.add_argument("--transcript", help="write the delivery transcript (JSONL) here")

    se = sub.add_parser("search", help="exhaustive rule search at one (K, t)")
    se.add_argument("--K", type=int, required=True)
    se.add_argument("--t", type=int, required=True)
    se.add_argument("--budget", type=int)
    se.add_argument("--out", type=str, help="write all evaluated candidates as CSV")

    sw = sub.add_parser("sweep", help="ratio curves along K for one family")
    sw.add_argument("--family", required=True, choices=("thm1", "thm2", "thm3"))
    sw.add_argument(
        "--K",
        required=True,
        help=f'K range, e.g. "4..40" or "8,12,16"; K <= {SWEEP_MAX_K}',
    )
    sw.add_argument("--tbar", help="comma list of t_bar values (thm1)")
    sw.add_argument("--t", help="comma list of t values (thm2/thm3)")
    sw.add_argument("--m", type=int, help="group count (thm3)")
    sw.add_argument("--out", type=str)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in vars(cfg):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "grouping", None):
        cfg.grouping = _parse_int_list(args.grouping)
    if args.command == "sweep":
        cfg.K_range = _parse_range(args.K)
        cfg.t_bar_list = _parse_int_list(args.tbar) if args.tbar else ()
        cfg.t_list = _parse_int_list(args.t) if args.t else ()
    return cfg


def _resolve_design(cfg: RunConfig) -> DesignSpec:
    chosen = [
        cfg.thm is not None,
        cfg.special is not None,
        cfg.dpda is not None,
        cfg.jcm,
        cfg.grouping is not None,
    ]
    if sum(chosen) != 1:
        raise UsageError(
            "pick exactly one of --thm / --special / --dpda / --jcm / --grouping"
        )
    if cfg.thm == 1:
        if cfg.K is None or cfg.t_bar is None:
            raise UsageError("--thm 1 needs --K and --tbar")
        return theorem1_design(cfg.K, cfg.t_bar, cfg.variant)
    if cfg.thm == 2:
        if cfg.K is None or cfg.t is None:
            raise UsageError("--thm 2 needs --K and --t")
        return theorem2_design(cfg.K, cfg.t)
    if cfg.thm == 3:
        if cfg.m is None or cfg.q is None or cfg.t is None:
            raise UsageError("--thm 3 needs --m, --q and --t")
        return theorem3_design(cfg.m, cfg.q, cfg.t)
    if cfg.special is not None:
        if cfg.K is None:
            raise UsageError("--special needs --K")
        return special_designs(cfg.special, cfg.K, q=cfg.q)
    if cfg.dpda is not None:
        if cfg.K is None:
            raise UsageError("--dpda needs --K")
        return dpda_specials(cfg.dpda.replace("-", "_"), cfg.K)
    if cfg.jcm:
        if cfg.K is None or cfg.t is None:
            raise UsageError("--jcm needs --K and --t")
        return jcm_design(cfg.K, cfg.t)
    assert cfg.grouping is not None
    if cfg.rules_path is None or cfg.K is None or cfg.t is None:
        raise UsageError("--grouping needs --K, --t and --rules FILE")
    with open(cfg.rules_path) as fh:
        rules = engine.rules_from_json(json.load(fh))
    return DesignSpec(
        name=f"custom-K{cfg.K}-t{cfg.t}",
        K=cfg.K,
        t=cfg.t,
        grouping_sizes=cfg.grouping,
        tx_rules=rules,
        type_order=(),
        params={"family": "custom"},
    )


def _memory_point(cfg: RunConfig, ds: DesignSpec) -> tuple[int, int]:
    """(N, M) with K*M/N equal to the design's cache level."""
    if (cfg.N is None) != (cfg.M is None):
        raise UsageError("give both --N and --M or neither")
    if cfg.N is None:
        return ds.K, ds.t
    N, M = cfg.N, int(cfg.M)  # type: ignore[arg-type]
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


def _plan_report(ds: DesignSpec, plan: engine.SchemePlan) -> dict[str, object]:
    report = engine.plan_json(plan)
    f_jcm, _ = jcm_baseline(plan.K, plan.t)
    ratio = Fraction(plan.f_pt, f_jcm)
    report.update(
        {
            "design": ds.name,
            "F_JCM": f_jcm,
            "ratio": f"{ratio.numerator}/{ratio.denominator}",
        }
    )
    return report


def cmd_design(cfg: RunConfig) -> int:
    ds = _resolve_design(cfg)
    N, M = _memory_point(cfg, ds)
    plan = engine.build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    _emit(_plan_report(ds, plan), cfg.out)
    return EXIT_OK


def cmd_analyze(cfg: RunConfig) -> int:
    ds = _resolve_design(cfg)
    analysis = engine.analyze_rules(ds.K, ds.t, ds.grouping_sizes, ds.tx_rules)
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
        "mc_ok": analysis.mc_result.ok,
        "F_PT": analysis.f_pt,
        "F_JCM": f_jcm,
        "ratio": f"{ratio.numerator}/{ratio.denominator}",
        "jcm_rate": f"{jcm_rate.numerator}/{jcm_rate.denominator}",
    }
    _emit(out, cfg.out)
    return EXIT_OK


def _demand_vectors(
    cfg: RunConfig, plan: engine.SchemePlan, rng: random.Random
) -> list[tuple[int, ...]]:
    spec = cfg.demands
    if spec == "all":
        count = plan.N ** plan.K
        if count > 65536:
            raise UsageError(
                f"--demands all would enumerate {count} vectors; cap is 65536"
            )
        return [tuple(d) for d in product(range(1, plan.N + 1), repeat=plan.K)]
    if "," in spec:
        vec = _parse_int_list(spec)
        if len(vec) != plan.K or any(not 1 <= d <= plan.N for d in vec):
            raise UsageError(f"demand vector must list {plan.K} files in 1..{plan.N}")
        return [vec]
    try:
        count = int(spec)
    except ValueError as e:
        raise UsageError(f"bad --demands value {spec!r}") from e
    return [
        tuple(rng.randrange(1, plan.N + 1) for _ in range(plan.K))
        for _ in range(count)
    ]


def cmd_simulate(cfg: RunConfig) -> int:
    ds = _resolve_design(cfg)
    N, M = _memory_point(cfg, ds)
    plan = engine.build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    if cfg.bytes_per_packet < 1:
        raise UsageError("--bytes-per-packet must be >= 1")
    rng = random.Random(cfg.seed)
    files = tuple(
        rng.randbytes(plan.f_pt * cfg.bytes_per_packet) for _ in range(N)
    )
    demands = _demand_vectors(cfg, plan, rng)

    all_ok = True
    first = None
    last_session = None
    for demand in demands:
        session = engine.simulate(plan, files, demand)
        result = engine.decode_and_verify(session)
        meas = engine.measure(session)
        all_ok = all_ok and result.ok
        if first is None:
            first = meas
        last_session = session
    assert first is not None and last_session is not None

    if cfg.transcript:
        with open(cfg.transcript, "w") as fh:
            fh.write(engine.transcript_jsonl(last_session.transcript))

    report = {
        "schema_version": SCHEMA_VERSION,
        "design": ds.name,
        "K": plan.K,
        "N": N,
        "M": M,
        "t": plan.t,
        "F_PT": plan.f_pt,
        "bytes_per_packet": cfg.bytes_per_packet,
        "demands_checked": len(demands),
        "all_decoded": all_ok,
        "rate": f"{first.rate.numerator}/{first.rate.denominator}",
        "cache_bits": first.per_user_cache_bits,
        "message_count": first.message_count,
        "total_bits": first.total_bits,
    }
    _emit(report, cfg.out)
    return EXIT_OK if all_ok else EXIT_DECODE


def cmd_search(cfg: RunConfig) -> int:
    assert cfg.K is not None and cfg.t is not None
    result = exhaustive_search(cfg.K, cfg.t, max_candidates=cfg.budget)
    if cfg.out:
        f_jcm = cfg.t * binomial(cfg.K, cfg.t)
        with open(cfg.out, "w", newline="") as fh:
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
                        cfg.K,
                        cfg.t,
                        ",".join(map(str, rec.grouping)),
                        json.dumps(rec.rules_dict(), sort_keys=True),
                        rec.f_pt if rec.f_pt is not None else "",
                        f_jcm,
                        ratio,
                        rec.feasible,
                        rec.reason,
                    ]
                )
    summary: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "K": cfg.K,
        "t": cfg.t,
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
            "tx_rules": ds.rules_text(),
        }
    _emit(summary, None)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    jobs: list[dict[str, int]] = []
    if cfg.family == "thm1":
        if not cfg.t_bar_list:
            raise UsageError("sweep --family thm1 needs --tbar")
        jobs = [{"t_bar": tb} for tb in cfg.t_bar_list]
    elif cfg.family == "thm2":
        if not cfg.t_list:
            raise UsageError("sweep --family thm2 needs --t")
        jobs = [{"t": t} for t in cfg.t_list]
    else:
        if not cfg.t_list or cfg.m is None:
            raise UsageError("sweep --family thm3 needs --m and --t")
        jobs = [{"m": cfg.m, "t": t} for t in cfg.t_list]

    all_rows = []
    skipped_total = 0
    for job in jobs:
        res = sweep_ratios(cfg.family, cfg.K_range, **job)  # type: ignore[arg-type]
        all_rows.extend(res.rows)
        skipped_total += len(res.skipped)
        for K, why in res.skipped:
            print(f"note: skipped K={K}: {why}", file=sys.stderr)

    writer_target = open(cfg.out, "w", newline="") if cfg.out else sys.stdout
    try:
        w = csv.writer(writer_target)
        w.writerow(["family", "label", "K", "F_PT", "F_JCM", "ratio", "bound"])
        for row in all_rows:
            w.writerow(
                [row.family, row.label, row.K, row.f_pt, row.f_jcm,
                 str(row.ratio), str(row.bound)]
            )
    finally:
        if cfg.out:
            writer_target.close()
    if cfg.out:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "family": cfg.family,
                "rows": len(all_rows),
                "skipped": skipped_total,
                "out": cfg.out,
            },
            None,
        )
    return EXIT_OK


_COMMANDS = {
    "design": cmd_design,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "search": cmd_search,
    "sweep": cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PlanError as e:
        print(f"infeasible ({e.stage}): {e}", file=sys.stderr)
        if e.stage in ("lcm", "rate", "mc", "skip"):
            return EXIT_INFEASIBLE
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
