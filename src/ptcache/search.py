"""Exhaustive rule search over all groupings, plus ratio sweeps per family.

The search enumerates every grouping of K and every nonempty transmitter
selection per realizable group type.  Skipping a group type is never
enumerated: a skip is only valid when everything the type involves is
excluded, and in that case the row is inert, so some enumerated candidate
already realizes the same scheme.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from math import prod
from typing import Iterable

from .combinat import binomial, integer_partitions
from .designs import DesignSpec, theorem1_bound, theorem1_design, theorem2_design
from .designs import special_designs, theorem3_design
from .engine import PlanError, SchemeLayout, analyze_layout, analyze_rules
from .engine import check_stages, rate_violation, scheme_layout
from .fscalc import FSEntry, RatioForest
from .typevec import TypeVector, make_grouping

# Largest census searched without a candidate budget: it admits every
# (K <= 9, t), (9,4) being the largest at 2.12e10 candidates.
MAX_CANDIDATES = 10**11
# Largest candidate budget: CandidateRecords stores positions as 8-byte ints.
MAX_BUDGET = 2**63 - 1
# Largest K searched: laying out every grouping grows with the number of
# partitions of K (0.22 s at K=16, 1.7 s at K=24 on a 2-vCPU x86-64 host).
MAX_K = 16


@dataclass(frozen=True)
class CandidateRecord:
    grouping: tuple[int, ...]
    rules: tuple[tuple[str, tuple[int, ...]], ...]  # (group type text, selection)
    f_pt: int | None  # None when infeasible
    reason: str  # "" | "no_lcm" | "rate" | "mc"


# (group type text, selection) of one group type in a record
_Item = tuple[str, tuple[int, ...]]
# a grouping's sizes and, per depth, the items of its selections
_Space = tuple[tuple[int, ...], tuple[tuple[_Item, ...], ...]]
# (F_PT, reason) of a record
_Verdict = tuple["int | None", str]


class CandidateRecords:
    """Every evaluated candidate in discovery order: a lazy iterable that
    builds each record only when it is read.

    The search visits each grouping's candidates in product order of its
    group types' selections, so record i is fixed by its grouping and its
    position there; only the verdicts (F_PT and reason) are stored, once
    per run of equal verdicts.  A subtree the LCM check cut is one such
    run, counted without visiting its leaves.  Iterating expands the
    groupings with ``itertools.product``.  Run and grouping starts are
    8-byte integers, so it holds at most MAX_BUDGET records.
    """

    def __init__(self) -> None:
        self._groupings: list[_Space] = []
        self._grouping_starts = array("q")
        self._verdicts: list[_Verdict] = []
        self._verdict_starts = array("q")
        self._len = 0

    def _start_grouping(self, space: _Space) -> None:
        """Open the next grouping; its candidates follow."""
        self._groupings.append(space)
        self._grouping_starts.append(self._len)

    def _extend(self, count: int, verdict: _Verdict) -> None:
        """Append the next ``count`` candidates, all with one verdict."""
        if not self._verdicts or self._verdicts[-1] != verdict:
            self._verdicts.append(verdict)
            self._verdict_starts.append(self._len)
        self._len += count

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[CandidateRecord]:
        starts, verdicts = self._verdict_starts, self._verdicts
        i = r = 0
        for (sizes, items), first in zip(self._groupings, self._grouping_starts):
            for rules in islice(product(*items), self._len - first):
                while r + 1 < len(starts) and starts[r + 1] <= i:
                    r += 1
                yield CandidateRecord(sizes, rules, *verdicts[r])
                i += 1


@dataclass
class SearchResult:
    K: int
    t: int
    best: "tuple[DesignSpec, int] | None"
    pareto: list[CandidateRecord]  # feasible candidates, ascending subpacketization
    records: CandidateRecords  # everything evaluated, in discovery order
    explored: int
    infeasible: dict[str, int]
    partial: bool


# (selection, local split-factor row, record item, mask of the columns the
# row zeroes) of one group type
_Option = tuple[frozenset[int], tuple[FSEntry, ...], _Item, int]

# verdict of each stage a search candidate can fail, one object each so
# that the records hold no copies
_REJECTED: dict[str, _Verdict] = {
    "lcm": (None, "no_lcm"), "rate": (None, "rate"), "mc": (None, "mc")
}


def _search_one_grouping(
    layout: SchemeLayout,
    budget: int | None,
    records: CandidateRecords,
    reasons: Counter[str],
    feasible: list[CandidateRecord],
) -> bool:
    """Depth-first search over one grouping's transmitter selections.

    Appends the candidates to ``records`` in discovery order, counts them
    in ``reasons`` and the feasible ones in ``feasible``; True when
    ``records`` reached ``budget`` candidates.

    Depth i picks the selection of group type i.  The LCM stage is checked on
    the way down, on the *final* columns only: those no chosen row has zeroed
    and no later group type can still zero (a zero needs a single-user unique
    set transmitting alone for its own type).  Final columns only grow along
    a path and keep their entries, so a contradiction among them holds for
    every leaf below; that subtree is "doomed" and becomes one run of
    no_lcm records, counted in one step without visiting its leaves.
    """
    sizes = layout.grouping.sizes
    vtypes, gtypes = layout.subfile_types, layout.group_types
    structures = layout.structures
    width, depth = len(vtypes), len(gtypes)

    # Options per group type: every nonempty selection, smallest first, each
    # with its precomputed local row, its record item and its zeroed columns.
    options: list[list[_Option]] = []
    for i, (gt, st) in enumerate(zip(gtypes, structures)):
        n = st.num_unique_sets
        text = gt.text()
        options.append([])
        for size in range(1, n + 1):
            for sel in combinations(range(1, n + 1), size):
                row = layout.row(i, sel)
                zeroes = sum(1 << j for j, e in enumerate(row) if e == 0)
                options[i].append((frozenset(sel), row, (text, sel), zeroes))
    items = tuple(tuple(o[2] for o in opts) for opts in options)
    records._start_grouping((sizes, items))
    # the leaves below a node at depth i
    below = [prod(len(opts) for opts in options[i:]) for i in range(depth + 1)]

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
        for i in range(depth)
    ]
    all_columns = (1 << width) - 1
    excluded_of: dict[int, frozenset[TypeVector]] = {}

    forest = RatioForest(depth)
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

    def evaluate(zeroed: int) -> _Verdict:
        """Verdict of a leaf whose final columns reconcile.  Every other
        column is in ``zeroed``, so the LCM passes and excludes exactly
        ``zeroed`` (each column has a row: a subset of type v plus one more
        user is a group that involves v).  So the rate stage can run first,
        and only the leaves it passes reach the LCM and memory stages."""
        if zeroed == all_columns:
            return _REJECTED["lcm"]  # every subfile type excluded
        excluded = excluded_of.get(zeroed)
        if excluded is None:
            excluded = frozenset(v for j, v in enumerate(vtypes) if zeroed >> j & 1)
            excluded_of[zeroed] = excluded
        for st, (sel, _, _, _) in zip(structures, chosen):
            if rate_violation(st, sel, excluded):
                return _REJECTED["rate"]
        try:
            _, _, f_pt = check_stages(
                layout, [o[0] for o in chosen], [o[1] for o in chosen]
            )
        except PlanError as e:
            return _REJECTED[e.stage]
        return f_pt, ""

    def emit(count: int, verdict: _Verdict) -> bool:
        """Append the next ``count`` candidates, cut to the budget; False
        once the budget is spent."""
        if budget is not None:
            count = min(count, budget - len(records))
        records._extend(count, verdict)
        reasons[verdict[1]] += count
        if verdict[0] is not None:
            rules = tuple(o[2] for o in chosen)
            feasible.append(CandidateRecord(sizes, rules, *verdict))
        return budget is None or len(records) < budget

    def dfs(i: int, final: int, zeroed: int) -> bool:
        """``final`` and ``zeroed`` are the masks of the final columns and
        of the columns a chosen row zeroes."""
        if i == depth:
            return emit(1, evaluate(zeroed))
        for opt in options[i]:
            chosen.append(opt)
            mark = forest.mark()
            nxt = consistent(i, final)
            if nxt is None:
                alive = emit(below[i + 1], _REJECTED["lcm"])
            else:
                alive = dfs(i + 1, nxt, zeroed | opt[3])
            forest.rollback(mark)
            chosen.pop()
            if not alive:
                return False
        return True

    return not dfs(0, initial_final, 0)


def search_space(K: int, t: int) -> tuple[int, list[SchemeLayout]]:
    """The number of candidates at (K, t) and the layout of every grouping,
    in search order.  A grouping has the product, over its group types, of
    2^(unique sets) - 1 nonempty selections.  Summing stops once the count
    passes MAX_CANDIDATES; the count is then a lower bound."""
    count = 0
    layouts = []
    for sizes in integer_partitions(K):
        layout = scheme_layout(make_grouping(K, sizes), t)
        layouts.append(layout)
        count += prod(2**st.num_unique_sets - 1 for st in layout.structures)
        if count > MAX_CANDIDATES:
            break
    return count, layouts


def exhaustive_search(
    K: int, t: int, max_candidates: int | None = None
) -> SearchResult:
    """Search every (grouping, transmitter rules) candidate at (K, t).

    Deterministic: groupings in reverse-lexicographic order, selections
    smallest-first; ``best`` is the first-discovered minimum.  With a budget
    the result holds the first ``max_candidates`` candidates of that order.
    Without one, a census of more than MAX_CANDIDATES candidates is refused
    before it starts; K is at most MAX_K either way.
    """
    if not 1 <= t <= K - 1:
        raise ValueError(f"need 1 <= t <= K-1, got K={K}, t={t}")
    if K > MAX_K:
        raise ValueError(f"search needs K <= {MAX_K}, got K={K}")
    if max_candidates is not None and not 1 <= max_candidates <= MAX_BUDGET:
        raise ValueError(
            f"candidate budget must be between 1 and {MAX_BUDGET}, "
            f"got {max_candidates}"
        )
    layouts: Iterable[SchemeLayout]
    if max_candidates is None:
        count, layouts = search_space(K, t)
        if count > MAX_CANDIDATES:
            raise ValueError(
                f"K={K}, t={t} has at least {count:,} candidates, more than the "
                f"{MAX_CANDIDATES:,} searched without a candidate budget"
            )
    else:  # the budget bounds the work; lay groupings out as they come
        layouts = (
            scheme_layout(make_grouping(K, s), t) for s in integer_partitions(K)
        )
    records = CandidateRecords()
    reasons: Counter[str] = Counter()
    feasible: list[CandidateRecord] = []
    partial = False
    for layout in layouts:
        partial = _search_one_grouping(
            layout, max_candidates, records, reasons, feasible
        )
        if partial:
            break

    # the first-discovered minimum
    best_rec = min(feasible, key=lambda r: r.f_pt, default=None)  # type: ignore
    best = None
    if best_rec is not None:
        best = (candidate_to_design(K, t, best_rec), best_rec.f_pt)  # type: ignore[arg-type]

    pareto = sorted(feasible, key=lambda r: (r.f_pt, r.grouping, r.rules))
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


def _least_f_pt(designs: Sequence[DesignSpec]) -> int:
    """The least F_PT over designs that share one (grouping, t): their
    layout is built once and each distinct rule set is checked against it."""
    first = designs[0]
    layout = scheme_layout(make_grouping(first.K, first.grouping_sizes), first.t)
    distinct: list[Mapping[TypeVector, "frozenset[int] | None"]] = []
    for ds in designs:
        if ds.tx_rules not in distinct:
            distinct.append(ds.tx_rules)
    return min(analyze_layout(layout, rules).f_pt for rules in distinct)


def sweep_ratios(
    family: str,
    K_values: Iterable[int],
    *,
    t_bar: int | None = None,
    t: int | None = None,
    m: int | None = None,
) -> SweepResult:
    """Subpacketization ratio vs the baseline along one family's K axis.

    Bad arguments (unknown family, missing family parameter, or parameters
    that no K admits) raise; K values where the family simply does not apply
    are skipped with a note, so callers can hand in a plain range.
    """
    if family not in ("thm1", "thm2", "thm3"):
        raise ValueError(f"unknown family {family!r}")
    if family == "thm1":
        if t_bar is None:
            raise ValueError("thm1 sweep needs t_bar")
        if t_bar % 2 or t_bar < 2:
            raise ValueError(f"thm1 sweep needs an even t_bar >= 2, got t_bar={t_bar}")
    if family == "thm2":
        if t is None:
            raise ValueError("thm2 sweep needs t")
        if t < 2:
            raise ValueError(f"thm2 sweep needs t >= 2, got t={t}")
        if t % 2 and t != 3:
            raise ValueError(f"no half-split construction for odd t={t}")
    if family == "thm3":
        if m is None or t is None:
            raise ValueError(f"thm3 sweep needs m and t, got m={m}, t={t}")
        if t < 2 or m < t + 1:
            raise ValueError(
                f"thm3 sweep needs t >= 2 and m >= t+1 groups, got m={m}, t={t}"
            )

    rows: list[SweepRow] = []
    skipped: list[tuple[int, str]] = []
    for K in K_values:
        try:
            if family == "thm1":
                designs = [
                    theorem1_design(K, t_bar, variant)
                    for variant in ("orderwise", "fallback")
                ]
                bound = theorem1_bound(K, t_bar)
                label = f"t_bar={t_bar}"
            elif family == "thm2":
                if t % 2 == 0:
                    designs = [theorem2_design(K, t)]
                    bound = Fraction(1, 2)
                else:
                    designs = [special_designs("t3_halfsplit", K)]
                    bound = Fraction(6, 7)
                label = f"t={t}"
            else:  # thm3
                if K % m:
                    raise ValueError(f"K={K} is not a multiple of m={m}")
                designs = [theorem3_design(m, K // m, t)]
                bound = Fraction(1)
                label = f"m={m},t={t}"
            f_pt = _least_f_pt(designs)
        except ValueError as e:
            skipped.append((K, str(e)))
            continue
        tt = designs[0].t
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
