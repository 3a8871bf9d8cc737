"""Exhaustive rule search over all groupings, plus ratio sweeps per family.

The search enumerates every grouping of K and every nonempty transmitter
selection per realizable group type.  Skipping a group type is never
enumerated: a skip is only valid when everything the type involves is
excluded, and in that case the row is inert, so some enumerated candidate
already realizes the same scheme.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations, islice, product
from math import prod

from .combinat import integer_partitions
from .designs import DesignSpec, theorem1_bound, theorem1_design, theorem2_design
from .designs import special_designs, theorem3_design
from .fscalc import FSEntry, RatioForest, SchemeLayout, analyze_layout, analyze_rules
from .fscalc import jcm_baseline, mc_check, rate_failure, scheme_layout, subpacketization
from .typevec import TypeVector, make_grouping

# Largest census searched without a candidate budget: it admits every
# (K <= 9, t), (9,4) being the largest at 2.12e10 candidates, about 50 s
# through the CLI on a 2-vCPU x86-64 host with Python 3.11.
MAX_CANDIDATES = 10**11
# Largest candidate budget: the records report their count through len(),
# which Python caps at sys.maxsize (2^63 - 1 on 64-bit builds).
MAX_BUDGET = 2**63 - 1
# Largest K searched: laying out every grouping grows with the number of
# partitions of K (at t=1, 0.1 s at K=16 and 0.8 s at K=24 on a 2-vCPU
# x86-64 host).
MAX_K = 16


# One searched candidate: its grouping, a (group type text, selection) per
# group type, its F_PT (None when infeasible) and the stage that rejected it
# ("no_lcm", "rate" or "mc"; "" when feasible).
CandidateRecord = namedtuple("CandidateRecord", "grouping rules f_pt reason")


# (group type text, selection) of one group type in a record
_Item = tuple[str, tuple[int, ...]]
# (F_PT, reason) of a record
_Verdict = tuple["int | None", str]
# (local split-factor row, record item, mask of the columns the row zeroes,
# the selection's rate masks)
_Option = tuple[tuple[FSEntry, ...], _Item, int, tuple[int, int]]

# verdict of each stage a search candidate can fail, one object each
_REJECTED: dict[str, _Verdict] = {
    "lcm": (None, "no_lcm"), "rate": (None, "rate"), "mc": (None, "mc")
}


class CandidateRecords:
    """Every evaluated candidate in canonical order: a lazy iterable that
    stores nothing per candidate.

    Canonical order takes the groupings in search order and, within one,
    the product order of its group types' selections.  Iterating re-runs
    the canonical depth-first search over the searched groupings and builds
    each record as it is read, a subtree the LCM check cut as the product
    of its remaining selections; it stops after ``len(self)`` records, so a
    budgeted run reads back exactly the candidates it counted.
    """

    def __init__(self, layouts: Sequence[SchemeLayout], length: int) -> None:
        self._layouts = layouts
        self._len = length

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[CandidateRecord]:
        left = self._len
        for layout in self._layouts:
            sizes = layout.grouping.sizes
            options = _options(layout)
            items = [[o[1] for o in opts] for opts in options]
            depth = len(options)
            picks = [0] * depth
            for d, count, verdict in _walk(layout, options, range(depth), picks):
                head = tuple(items[i][picks[i]] for i in range(d))
                for tail in islice(product(*items[d:]), left):
                    yield CandidateRecord(sizes, head + tail, *verdict)
                left -= min(count, left)
                if not left:
                    return


# A search's outcome: best, the least (design, F_PT) or None; pareto, the
# feasible records by ascending F_PT; records, everything evaluated, in
# canonical order; explored, their count; infeasible, the count per reason.
SearchResult = namedtuple(
    "SearchResult", "K t best pareto records explored infeasible partial"
)


def _options(layout: SchemeLayout) -> list[list[_Option]]:
    """Per group type, every nonempty selection, smallest first, with its
    local row, record item and column masks."""
    options: list[list[_Option]] = []
    for i, (gt, us) in enumerate(zip(layout.group_types, layout.unique_sets)):
        n = len(us)
        text = gt.text()
        options.append([])
        for size in range(1, n + 1):
            for sel in combinations(range(1, n + 1), size):
                row = layout.row(i, sel)
                zeroes = sum(1 << j for j, e in enumerate(row) if e == 0)
                options[i].append(
                    (row, (text, sel), zeroes, layout.rate_masks(i, frozenset(sel)))
                )
    return options


def _walk(
    layout: SchemeLayout,
    options: Sequence[Sequence[_Option]],
    order: Sequence[int],
    picks: list[int],
) -> Iterator[tuple[int, int, _Verdict]]:
    """Depth-first search over one grouping's transmitter selections.

    Walk depth d picks the selection of group type ``order[d]``, writing its
    option index to ``picks[d]``.  Yields ``(d, count, verdict)`` for each
    run of candidates: the ``count`` candidates that share ``picks[:d]``, a
    single leaf when d is the depth.  Counts, verdicts and the set of
    feasible leaves do not depend on ``order``; record order does.

    The LCM stage is checked on the way down, on the *final* columns only:
    those no chosen row has zeroed and no later group type can still zero
    (a zero needs a single-user unique set transmitting alone for its own
    type).  Final columns only grow along a path and keep their entries, so
    a contradiction among them holds for every leaf below; that subtree is
    "doomed" and is one no_lcm run, counted without visiting its leaves.
    """
    width, depth = len(layout.subfile_types), len(order)
    walked = [options[c] for c in order]
    n_opts = [len(opts) for opts in walked]
    below = [prod(n_opts[d:]) for d in range(depth + 1)]
    at = [order.index(c) for c in range(depth)]  # walk depth of group type c

    # Column j can be zeroed only by the rows in zeroers; it turns final at
    # the last of them (from the start when there are none) unless zeroed
    # by then.  A final column never holds a zero, so all its rows are live.
    rows_of: list[list[int]] = [[] for _ in range(width)]
    zeroers: list[list[int]] = [[] for _ in range(width)]
    for c, us in enumerate(layout.unique_sets):
        for size, j in us:
            rows_of[j].append(at[c])
            if size == 1:
                zeroers[j].append(at[c])
    # per depth: the columns turning final there, with their rows so far,
    # and the columns the row touches, with the first row touching them
    final_at: list[list[tuple[int, list[int]]]] = [[] for _ in range(depth)]
    touched: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
    initial_final = 0
    for j, rows in enumerate(rows_of):
        rows.sort()
        if zeroers[j]:
            last = max(zeroers[j])
            final_at[last].append((j, [k for k in rows if k <= last]))
        else:
            initial_final |= 1 << j
        for k in rows[1:]:
            touched[k].append((j, rows[0]))
    first_of = [rows[0] for rows in rows_of]  # first row in column j
    all_columns = (1 << width) - 1

    forest = RatioForest(depth)
    relate = forest.relate
    rows = [opts[0][0] for opts in walked]  # the chosen options' rows
    rates = [opts[0][3] for opts in walked]  # and their rate masks

    def consistent(d: int, final: int, zeroed: int) -> int | None:
        """Add row d's constraints on final columns to the forest; the new
        final-column mask, or None on a contradiction."""
        row = rows[d]
        for j, first in touched[d]:
            if final >> j & 1 and not relate(first, rows[first][j], d, row[j]):
                return None
        for j, ks in final_at[d]:
            if zeroed >> j & 1:
                continue  # excluded on this whole subtree
            final |= 1 << j
            k0 = ks[0]
            e0 = rows[k0][j]
            for k in ks[1:]:
                if not relate(k0, e0, k, rows[k][j]):
                    return None
        return final

    def evaluate(zeroed: int) -> _Verdict:
        """Verdict of a leaf whose final columns reconcile.  Every other
        column is in ``zeroed``, so the LCM passes and excludes exactly
        ``zeroed`` (each column has a row: a subset of type v plus one more
        user is a group that involves v), and the forest holds its row
        scales.  So the rate stage can run first, on bit masks, and only the
        leaves it passes read their global split factors off the forest for
        the memory stage."""
        if zeroed == all_columns:
            return _REJECTED["lcm"]  # every subfile type excluded
        if rate_failure(rates, zeroed) >= 0:
            return _REJECTED["rate"]
        scales = forest.scales()
        factors = [
            0 if zeroed >> j & 1 else scales[d] * rows[d][j]
            for j, d in enumerate(first_of)
        ]
        if not mc_check(factors, layout.mc_rows).ok:
            return _REJECTED["mc"]
        return subpacketization(factors, layout.type_counts), ""

    finals = [initial_final] * (depth + 1)
    zeroeds = [0] * (depth + 1)
    marks = [0] * depth
    d = 0
    picks[0] = 0
    while True:
        k = picks[d]
        if k == n_opts[d]:  # depth d exhausted: back up
            if d == 0:
                return
            d -= 1
            forest.rollback(marks[d])
            picks[d] += 1
            continue
        opt = walked[d][k]
        rows[d], rates[d] = opt[0], opt[3]
        zeroed = zeroeds[d] | opt[2]
        final = consistent(d, finals[d], zeroed)
        if final is None:
            yield d + 1, below[d + 1], _REJECTED["lcm"]
        elif d + 1 == depth:
            yield depth, 1, evaluate(zeroed)
        else:
            d += 1
            finals[d], zeroeds[d], marks[d] = final, zeroed, forest.mark()
            picks[d] = 0
            continue
        forest.rollback(marks[d])
        picks[d] += 1


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
        count += prod(2 ** len(us) - 1 for us in layout.unique_sets)
        if count > MAX_CANDIDATES:
            break
    return count, layouts


def exhaustive_search(
    K: int, t: int, max_candidates: int | None = None
) -> SearchResult:
    """Search every (grouping, transmitter rules) candidate at (K, t).

    Deterministic.  Canonical order takes groupings in reverse-lexicographic
    order and, within one, the product order of its group types'
    selections, smallest first.  ``best`` is the least (F_PT, grouping
    index, option indices in canonical group-type order), the first minimum
    in canonical order.  Without a budget, a census of more than
    MAX_CANDIDATES candidates is refused before it starts, and each
    grouping's group types are walked last first: that cuts contradicted
    subtrees nearer the root and changes no count.  With
    a budget the walk is canonical and the result holds the first
    ``max_candidates`` candidates.  ``records`` re-runs the canonical walk
    whenever it is read.  K is at most MAX_K either way.
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
    searched: list[SchemeLayout] = []
    reasons: Counter[str] = Counter()
    # (F_PT, grouping index, option indices, record) per feasible candidate:
    # the indices of one grouping share a length, so they sort canonically
    feasible: list[tuple[int, int, tuple[int, ...], CandidateRecord]] = []
    explored = 0
    for gi, layout in enumerate(layouts):
        searched.append(layout)
        options = _options(layout)
        depth = len(options)
        order = range(depth - 1, -1, -1) if max_candidates is None else range(depth)
        at = [order.index(c) for c in range(depth)]  # walk depth of group type c
        picks = [0] * depth
        for _, count, verdict in _walk(layout, options, order, picks):
            if max_candidates is not None:
                count = min(count, max_candidates - explored)
            reasons[verdict[1]] += count
            explored += count
            if verdict[0] is not None:
                index = tuple(picks[d] for d in at)
                rules = tuple(opts[k][1] for opts, k in zip(options, index))
                rec = CandidateRecord(layout.grouping.sizes, rules, *verdict)
                feasible.append((verdict[0], gi, index, rec))
            if explored == max_candidates:
                break
        if explored == max_candidates:
            break

    # no two entries tie on (grouping index, option indices)
    best = min(feasible, default=None)
    return SearchResult(
        K=K,
        t=t,
        best=None if best is None else (candidate_to_design(K, t, best[3]), best[0]),
        pareto=sorted(
            (rec for *_, rec in feasible),
            key=lambda r: (r.f_pt, r.grouping, r.rules),
        ),
        records=CandidateRecords(searched, explored),
        explored=explored,
        infeasible={k: reasons[k] for k in ("no_lcm", "rate", "mc")},
        partial=explored == max_candidates,
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


SweepRow = namedtuple("SweepRow", "family label K f_pt f_jcm ratio bound")
# the rows, and a (K, reason) note per K the family skips
SweepResult = namedtuple("SweepResult", "rows skipped")


def _least_f_pt(designs: Sequence[DesignSpec]) -> int:
    """The least F_PT over designs that share one (grouping, t): their
    layout is built once and each design's rules are checked against it."""
    first = designs[0]
    layout = scheme_layout(make_grouping(first.K, first.grouping_sizes), first.t)
    return min(analyze_layout(layout, ds.tx_rules).f_pt for ds in designs)


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
                # at t_bar = 2 the two variants have the same rules
                variants = ("orderwise", "fallback") if t_bar > 2 else ("orderwise",)
                designs = [theorem1_design(K, t_bar, v) for v in variants]
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
        f_jcm, _ = jcm_baseline(K, designs[0].t)
        rows.append(
            SweepRow(family, label, K, f_pt, f_jcm, Fraction(f_pt, f_jcm), bound)
        )
    return SweepResult(rows, skipped)
