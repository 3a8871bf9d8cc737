"""Exhaustive rule search over all groupings, plus ratio sweeps per family.

The search enumerates every grouping of K and every nonempty transmitter
selection per realizable group type.  Skipping a group type is never
enumerated: a skip is only valid when everything the type involves is
excluded, and in that case the row is inert, so some enumerated candidate
already realizes the same scheme.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .combinat import binomial, integer_partitions
from .designs import DesignSpec, theorem1_bound, theorem1_design, theorem2_design
from .designs import special_designs, theorem3_design
from .engine import PlanError, analyze_rules, check_stages, scheme_layout
from .fscalc import FSEntry, RatioForest
from .typevec import TypeVector, make_grouping


@dataclass(frozen=True)
class CandidateRecord:
    grouping: tuple[int, ...]
    rules: tuple[tuple[str, tuple[int, ...]], ...]  # (group type text, selection)
    f_pt: int | None  # None when infeasible
    reason: str  # "" | "no_lcm" | "rate" | "mc"

    def rules_dict(self) -> dict[str, list[int]]:
        return {gt: sorted(sel) for gt, sel in self.rules}


@dataclass
class SearchResult:
    K: int
    t: int
    best: "tuple[DesignSpec, int] | None"
    pareto: list[CandidateRecord]  # feasible candidates, ascending subpacketization
    records: list[CandidateRecord]  # everything evaluated, in discovery order
    explored: int
    infeasible: dict[str, int]
    partial: bool


# (selection, local split-factor row, record text) of one group type
_Option = tuple[frozenset[int], tuple[FSEntry, ...], tuple[str, tuple[int, ...]]]

# record reason of each stage a search candidate can fail
_REASONS = {"lcm": "no_lcm", "rate": "rate", "mc": "mc"}


def _search_one_grouping(
    K: int, t: int, sizes: tuple[int, ...], budget: int | None
) -> tuple[list[CandidateRecord], bool]:
    """Depth-first search over one grouping's transmitter selections; the
    records in discovery order and whether the budget ran out.

    Depth i picks the selection of group type i.  The LCM stage is checked on
    the way down, on the *final* columns only: those no chosen row has zeroed
    and no later group type can still zero (a zero needs a single-user unique
    set transmitting alone for its own type).  Final columns only grow along
    a path and keep their entries, so a contradiction among them holds for
    every leaf below; that subtree is finished "doomed": its leaves are
    counted and recorded as no_lcm, in the same order, without any LCM,
    rate or memory work.
    """
    layout = scheme_layout(make_grouping(K, sizes), t)
    gtypes, structures = layout.group_types, layout.structures
    width = len(layout.subfile_types)

    # Options per group type: every nonempty selection, smallest first, each
    # paired with its precomputed local row and its record text.
    options: list[list[_Option]] = []
    for i, (gt, st) in enumerate(zip(gtypes, structures)):
        n = st.num_unique_sets
        text = gt.text()
        options.append(
            [
                (frozenset(sel), layout.row(i, sel), (text, sel))
                for size in range(1, n + 1)
                for sel in combinations(range(1, n + 1), size)
            ]
        )

    # Column j can be zeroed only by the group types in zeroers[j]; it turns
    # final at depth zeroers[j][-1] (from the start when there are none)
    # unless zeroed by then.  The rows touching column j, in depth order, are
    # rows_of[j]; a final column never holds a zero, so all of them are live.
    zeroers: list[list[int]] = [[] for _ in range(width)]
    rows_of: list[list[int]] = [[] for _ in range(width)]
    for i, st in enumerate(structures):
        for us, v in zip(st.unique_sets, st.involved):
            rows_of[layout.col[v]].append(i)
            if us.size == 1:
                zeroers[layout.col[v]].append(i)
    final_at: list[list[int]] = [[] for _ in gtypes]
    initial_final = 0
    for j, zs in enumerate(zeroers):
        if zs:
            final_at[zs[-1]].append(j)
        else:
            initial_final |= 1 << j
    # Per depth: the columns the row touches, with the column's first row.
    touched = [
        [(j, rows_of[j][0]) for j in range(width) if i in rows_of[j]]
        for i in range(len(gtypes))
    ]

    forest = RatioForest(len(gtypes))
    records: list[CandidateRecord] = []
    chosen: list[_Option] = []

    def consistent(i: int, final: int) -> int | None:
        """Add row i's constraints on final columns to the forest; the new
        final-column mask, or None on a contradiction."""
        row = chosen[i][1]
        for j, first in touched[i]:
            if final >> j & 1 and first != i:
                if not forest.relate(first, chosen[first][1][j], i, row[j]):
                    return None
        for j in final_at[i]:
            ks = [k for k in rows_of[j] if k <= i]
            entries = [chosen[k][1][j] for k in ks]
            if 0 in entries:
                continue  # excluded on this whole subtree
            final |= 1 << j
            for k, e in zip(ks[1:], entries[1:]):
                if not forest.relate(ks[0], entries[0], k, e):
                    return None
        return final

    def evaluate() -> tuple[str, int | None]:
        """Reason and F_PT of a leaf whose final columns reconcile."""
        try:
            _, _, f_pt = check_stages(
                layout, [sel for sel, _, _ in chosen], [row for _, row, _ in chosen]
            )
        except PlanError as e:
            return _REASONS[e.stage], None
        return "", f_pt

    def leaf(doomed: bool) -> bool:
        """Record the current full assignment; False aborts (budget)."""
        reason, f_pt = ("no_lcm", None) if doomed else evaluate()
        records.append(
            CandidateRecord(
                grouping=sizes,
                rules=tuple(item for _, _, item in chosen),
                f_pt=f_pt,
                reason=reason,
            )
        )
        return budget is None or len(records) < budget

    def dfs(i: int, final: int | None) -> bool:
        """``final`` is the mask of final columns, None once doomed."""
        if i == len(gtypes):
            return leaf(final is None)
        for opt in options[i]:
            chosen.append(opt)
            mark = forest.mark()
            alive = dfs(i + 1, final if final is None else consistent(i, final))
            forest.rollback(mark)
            chosen.pop()
            if not alive:
                return False
        return True

    finished = dfs(0, initial_final)
    return records, not finished


def exhaustive_search(
    K: int, t: int, max_candidates: int | None = None
) -> SearchResult:
    """Search every (grouping, transmitter rules) candidate at (K, t).

    Deterministic: groupings in reverse-lexicographic order, selections
    smallest-first; ``best`` is the first-discovered minimum.  With a budget
    the result holds the first ``max_candidates`` candidates of that order.
    """
    if not 1 <= t <= K - 1:
        raise ValueError(f"need 1 <= t <= K-1, got K={K}, t={t}")
    if max_candidates is not None and max_candidates < 1:
        raise ValueError(f"candidate budget must be >= 1, got {max_candidates}")
    records: list[CandidateRecord] = []
    partial = False
    for sizes in integer_partitions(K):
        budget = None if max_candidates is None else max_candidates - len(records)
        found, partial = _search_one_grouping(K, t, sizes, budget)
        records.extend(found)
        if partial:
            break

    best_rec = min(
        (r for r in records if r.f_pt is not None), key=lambda r: r.f_pt, default=None
    )  # the first-discovered minimum
    best = None
    if best_rec is not None:
        best = (candidate_to_design(K, t, best_rec), best_rec.f_pt)  # type: ignore[arg-type]

    reasons = Counter(r.reason for r in records)
    pareto = sorted(
        (r for r in records if r.f_pt is not None),
        key=lambda r: (r.f_pt, r.grouping, r.rules),
    )
    return SearchResult(
        K=K,
        t=t,
        best=best,
        pareto=pareto,
        records=records,
        explored=len(records),
        infeasible={k: reasons[k] for k in ("no_lcm", "rate", "mc")},
        partial=partial,
    )


def candidate_to_design(K: int, t: int, rec: CandidateRecord) -> DesignSpec:
    """Lift a search record back into a DesignSpec (re-deriving expectations)."""
    rules = {
        TypeVector.parse(text): frozenset(sel) for text, sel in rec.rules
    }
    analysis = analyze_rules(K, t, rec.grouping, rules)
    return DesignSpec(
        name=f"search-K{K}-t{t}-" + "_".join(map(str, rec.grouping)),
        K=K,
        t=t,
        grouping_sizes=rec.grouping,
        tx_rules=rules,
        type_order=analysis.subfile_types,
        expected_global_fs=analysis.global_fs.factors,
        expected_f_pt=analysis.f_pt,
    )


# --------------------------------------------------------------------------
# Ratio sweeps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    family: str
    label: str
    K: int
    f_pt: int
    f_jcm: int
    ratio: Fraction
    bound: Fraction


@dataclass
class SweepResult:
    rows: list[SweepRow]
    skipped: list[tuple[int, str]]


def _eval_design(ds: DesignSpec) -> int:
    analysis = analyze_rules(ds.K, ds.t, ds.grouping_sizes, ds.tx_rules)
    return analysis.f_pt


def sweep_ratios(
    family: str,
    K_values: Iterable[int],
    *,
    t_bar: int | None = None,
    t: int | None = None,
    m: int | None = None,
) -> SweepResult:
    """Subpacketization ratio vs the baseline along one family's K axis.

    Bad arguments (unknown family, missing family parameter) raise; K values
    where the family simply does not apply are skipped with a note, so
    callers can hand in a plain range.
    """
    if family not in ("thm1", "thm2", "thm3"):
        raise ValueError(f"unknown family {family!r}")
    if family == "thm1" and t_bar is None:
        raise ValueError("thm1 sweep needs t_bar")
    if family == "thm2":
        if t is None:
            raise ValueError("thm2 sweep needs t")
        if t % 2 and t != 3:
            raise ValueError(f"no half-split construction for odd t={t}")
    if family == "thm3" and (m is None or t is None or m < 1):
        raise ValueError(f"thm3 sweep needs m >= 1 and t, got m={m}, t={t}")

    rows: list[SweepRow] = []
    skipped: list[tuple[int, str]] = []
    for K in K_values:
        try:
            if family == "thm1":
                f_pt = min(
                    _eval_design(theorem1_design(K, t_bar, "orderwise")),
                    _eval_design(theorem1_design(K, t_bar, "fallback")),
                )
                tt = K - t_bar
                bound = theorem1_bound(K, t_bar)
                label = f"t_bar={t_bar}"
            elif family == "thm2":
                if t % 2 == 0:
                    ds = theorem2_design(K, t)
                    bound = Fraction(1, 2)
                else:
                    ds = special_designs("t3_halfsplit", K)
                    bound = Fraction(6, 7)
                f_pt = _eval_design(ds)
                tt = t
                label = f"t={t}"
            else:  # thm3
                if K % m:
                    raise ValueError(f"K={K} is not a multiple of m={m}")
                ds = theorem3_design(m, K // m, t)
                f_pt = _eval_design(ds)
                tt = t
                bound = Fraction(1)
                label = f"m={m},t={t}"
        except ValueError as e:
            skipped.append((K, str(e)))
            continue
        f_jcm = tt * binomial(K, tt)
        rows.append(
            SweepRow(
                family=family,
                label=label,
                K=K,
                f_pt=f_pt,
                f_jcm=f_jcm,
                ratio=Fraction(f_pt, f_jcm),
                bound=bound,
            )
        )
    return SweepResult(rows=rows, skipped=skipped)
