"""The symbolic pipeline, transmitter rules to split factors, without file
bytes: the layout of a (grouping, t), local split factors, their global
reconciliation, the rate stage and the memory-consistency check.

Each group type contributes one row of local split factors (one entry per
subfile type it involves, absent types marked with :data:`STAR`).  A scheme
is consistent only if a single global factor per subfile type scales every
row by a positive integer; ``vector_lcm`` finds the smallest such global
vector or reports that none exists.  ``analyze_layout`` runs the stages in
order and raises :class:`PlanError` at the first that rejects the rules.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm, prod

from .combinat import binomial, box_partition_counts
from .typevec import Grouping, TypeVector, enumerate_types, make_grouping
from .typevec import mgroup_structure

# Marks "this subfile type is not involved in this row".  Distinct from an
# explicit 0, which carries meaning (exclusion or wildcard, per policy).
STAR = None

FSEntry = int | None

# Most entries, group types times subfile types, in the split-factor table
# of one analysis.  analyze of thm3(31, 31, 20), 496,584 entries, takes
# 0.8 s and prints 7.2 MB on a 2-vCPU x86-64 host; thm3(31, 31, 30), 38M
# entries, took 42 s and printed 539 MB.
MAX_TABLE_ENTRIES = 2**20


class NoLcmError(ValueError):
    """Raised when no positive-integer row scaling reconciles the rows."""


class PlanError(ValueError):
    """Scheme rejected; ``stage`` names the failing pipeline step."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


# Reconciled split factors plus the minimal row scales that realize them.
GlobalFS = namedtuple("GlobalFS", "factors row_scales")
# The memory check's verdict; when it fails, the 1-based row i of the first
# violated pair (i, i + 1) and their two dot products.
MCResult = namedtuple("MCResult", "ok fail_index dots", defaults=(None, None))


def local_fs(structure: Sequence[tuple[int, object]], d_tx: Iterable[int]) -> dict:
    """Local split factors of one group type for transmitter selection ``d_tx``.

    ``structure`` holds each unique set's (size, key) pair, the key being the
    subfile type it owns or that type's column; ``d_tx`` holds 1-based
    unique-set indices.  Unique set i's factor counts the useful messages its
    members receive: every transmitter except (if i transmits) the member itself.
    """
    chosen = sorted(set(d_tx))
    if not chosen:
        raise ValueError("transmitter selection must be nonempty")
    n = len(structure)
    if any(not 1 <= i <= n for i in chosen):
        raise ValueError(f"selection {chosen} out of range 1..{n}")
    senders = sum(structure[i - 1][0] for i in chosen)
    out = {}
    for idx, (_, key) in enumerate(structure, start=1):
        out[key] = senders - 1 if idx in chosen else senders
    return out


class RatioForest:
    """Union-find over rows with exact rational scale ratios, kept flat.

    Every row stores its component's root and its scale relative to it,
    ``scale(i) = num[i] / den[i] * scale(root[i])``.  A union relabels the
    smaller component onto the larger and records the factor it scaled
    those rows by, so a depth-first search can add rows' constraints on the
    way down and :meth:`rollback` to a :meth:`mark` on the way up.  Scales
    are exact but not kept in lowest terms; :meth:`scales` gives the least
    integer ones.
    """

    def __init__(self, n: int) -> None:
        self.root = list(range(n))
        self.num = [1] * n
        self.den = [1] * n
        self.members = [[i] for i in range(n)]  # valid for roots only
        # per union: (kept root, relabelled root, x, y) with the relabelled
        # rows' scales multiplied by x / y; undone by dividing, exactly
        self._undo: list[tuple[int, int, int, int]] = []

    def relate(self, i: int, a: int, j: int, b: int) -> bool:
        """Impose ``scale(i) * a == scale(j) * b``; False on contradiction."""
        root, num, den = self.root, self.num, self.den
        # the constraint reads x * scale(ri) == y * scale(rj)
        x = num[i] * a * den[j]
        y = num[j] * b * den[i]
        ri, rj = root[i], root[j]
        if ri == rj:
            return x == y
        moved, kept = self.members[rj], self.members[ri]
        if len(moved) > len(kept):
            ri, rj, x, y, moved, kept = rj, ri, y, x, kept, moved
        g = gcd(x, y)
        x //= g
        y //= g
        for m in moved:  # scale(rj) = x / y * scale(ri)
            root[m] = ri
            num[m] *= x
            den[m] *= y
        kept += moved
        self._undo.append((ri, rj, x, y))
        return True

    def mark(self) -> int:
        return len(self._undo)

    def scales(self) -> list[int]:
        """The least positive integer scale of each row: per component, the
        exact ratios over their common denominator, divided by their gcd."""
        root, num, den = self.root, self.num, self.den
        out = [1] * len(root)
        for r, members in enumerate(self.members):
            if root[r] != r or len(members) == 1:
                continue
            denom = lcm(*(den[i] for i in members))
            nums = [num[i] * (denom // den[i]) for i in members]
            g = gcd(*nums)
            for i, n in zip(members, nums):
                out[i] = n // g
        return out

    def rollback(self, mark: int) -> None:
        """Undo every union made since ``mark``."""
        undo = self._undo
        root, num, den, members = self.root, self.num, self.den, self.members
        while len(undo) > mark:
            ri, rj, x, y = undo.pop()
            moved = members[rj]
            del members[ri][-len(moved):]
            for m in moved:
                root[m] = rj
                num[m] //= x
                den[m] //= y


def vector_lcm(
    rows: Sequence[Sequence[FSEntry]], zero_policy: str = "exclude"
) -> GlobalFS:
    """Reconcile local split-factor rows into one global vector.

    zero_policy="exclude": an explicit 0 anywhere in a column removes that
    subfile type from the scheme; entries in removed columns constrain
    nothing (a row left with no live entries is inert, scale 1).

    zero_policy="wildcard": a 0 matches any global value; only pairs of
    positive entries constrain each other.  Used for table regressions where
    0 denotes "unconstrained", never by the scheme pipeline.

    Scales are the componentwise-minimal positive integers: exact rational
    ratios are solved per connected component of a :class:`RatioForest`
    and normalised by :meth:`RatioForest.scales`.
    """
    if zero_policy not in ("exclude", "wildcard"):
        raise ValueError(f"unknown zero_policy {zero_policy!r}")
    if not rows:
        raise ValueError("need at least one row")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows must share one width")
    for r in rows:
        if all(e is STAR for e in r):
            raise ValueError("a row without entries constrains nothing")
        for e in r:
            if e is not STAR and (not isinstance(e, int) or e < 0):
                raise ValueError(f"entries must be STAR or ints >= 0, got {e!r}")

    excluded: set[int] = set()
    if zero_policy == "exclude":
        excluded = {
            j for j in range(width) if any(r[j] == 0 for r in rows)
        }

    forest = RatioForest(len(rows))
    for j in range(width):
        if j in excluded:
            continue
        live = [
            (i, r[j])
            for i, r in enumerate(rows)
            if r[j] is not STAR and r[j] != 0
        ]
        for (i1, a1), (i2, a2) in zip(live, live[1:]):
            if not forest.relate(i1, a1, i2, a2):
                raise NoLcmError(
                    f"column {j}: rows {i1} and {i2} need incompatible scales"
                )

    scales = forest.scales()
    factors = []
    for j in range(width):
        if j in excluded:
            factors.append(0)
            continue
        vals = {
            scales[i] * r[j]
            for i, r in enumerate(rows)
            if r[j] is not STAR and r[j] != 0
        }
        if not vals:
            factors.append(0)
        elif len(vals) == 1:
            factors.append(vals.pop())
        else:  # pragma: no cover - contradicts the union-find invariant
            raise NoLcmError(f"column {j} did not reconcile: {sorted(vals)}")
    return GlobalFS(tuple(factors), tuple(scales))


def mc_check(
    alpha_global: Sequence[int], user_counts: Sequence[Sequence[int]]
) -> MCResult:
    """Check that all user classes cache equally much.

    ``user_counts`` has one row per grouping block: entry j counts the
    subsets of subfile type j containing a fixed user of that block.  The
    global factors must give every row the same weighted total; the first
    violated adjacent pair is reported with both dot products.
    """
    dots = [
        sum(a * f for a, f in zip(alpha_global, row)) for row in user_counts
    ]
    for i in range(len(dots) - 1):
        if dots[i] != dots[i + 1]:
            return MCResult(False, i + 1, (dots[i], dots[i + 1]))
    return MCResult(True)


def subpacketization(
    alpha_global: Sequence[int], type_counts: Sequence[int]
) -> int:
    """Total packets per file: global factors dotted with type counts."""
    if len(alpha_global) != len(type_counts):
        raise ValueError("length mismatch")
    return sum(a * c for a, c in zip(alpha_global, type_counts))


# per group type, unique_sets holds its unique sets' (size, column) pairs and
# involved_masks the columns it involves; col maps a subfile type to its column
_LAYOUT = (
    "grouping t subfile_types type_counts group_types unique_sets col mc_rows "
    "involved_masks"
)


class SchemeLayout(namedtuple("SchemeLayout", _LAYOUT)):
    """The rules-independent bookkeeping of one (grouping, t): the subfile
    types (the columns of every split-factor row) with their counts, the
    group types (the rows) with their unique sets, and the table the memory
    check weighs the global factors with."""

    __slots__ = ()

    def row(self, i: int, selection: Iterable[int]) -> tuple[FSEntry, ...]:
        """Full-width local split-factor row of group type i transmitting
        with ``selection``; STAR in the columns it does not involve."""
        row: list[FSEntry] = [STAR] * len(self.subfile_types)
        for j, a in local_fs(self.unique_sets[i], selection).items():
            row[j] = a
        return tuple(row)

    def rate_masks(
        self, i: int, selection: "frozenset[int] | None"
    ) -> tuple[int, int]:
        """The column masks the rate stage reads for group type i sending
        with ``selection``: the columns it involves, and the column of
        ``selection`` when that is one single-user unique set (else -1,
        which equals no mask).  A skip involves nothing."""
        if selection is None:
            return 0, -1
        size, j = self.unique_sets[i][min(selection) - 1]
        return self.involved_masks[i], 1 << j if len(selection) == size == 1 else -1


# the memory-check table: per block, the subsets of each type that hold a
# fixed user of the block, count · |v ∩ block| / (β·ψ) from the counts in
# hand, the identity typevec.per_user_count documents
def _mc_rows(
    g: Grouping, typed: Sequence[tuple[TypeVector, int]]
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(c * sum(v.blocks[bi]) // (beta * psi) for v, c in typed)
        for bi, (beta, psi) in enumerate(g.blocks)
    )


# entry s, for s = 0..top <= g.K: the number of types of s users.  A type's
# block is a partition of the block's users in it into at most psi parts of
# at most beta, so the counts are those of each block, convolved.
def _type_totals(g: Grouping, top: int) -> list[int]:
    totals = [1]
    for beta, psi in g.blocks:
        box = box_partition_counts(psi, beta, min(top, beta * psi))
        out = [0] * min(len(totals) + len(box) - 1, top + 1)
        for i, x in enumerate(totals):
            for j, y in enumerate(box[: len(out) - i]):
                out[i + j] += x * y
        totals = out
    return totals


def scheme_layout(g: Grouping, t: int) -> SchemeLayout:
    """The layout of (g, t); a split-factor table above MAX_TABLE_ENTRIES
    entries, group types times subfile types, is refused with
    PlanError("size") before any type is listed.  The grouping's block
    profiles, the product of C(beta + psi, psi) over its blocks, bound
    both type lists, so only a grouping with more than the cap's square
    root of them has its types counted."""
    # the thm1 sweep's groupings of pairs are counted from K = 88 on;
    # counting every grouping made its job about 6% slower
    if prod(binomial(b + p, p) for b, p in g.blocks) ** 2 > MAX_TABLE_ENTRIES:
        *_, n_t, n_g = _type_totals(g, t + 1)
        if (entries := n_g * n_t) > MAX_TABLE_ENTRIES:
            raise PlanError(
                "size",
                f"the split-factor table would hold {entries:,} entries; the cap "
                f"is {MAX_TABLE_ENTRIES:,}",
            )
    typed = enumerate_types(g, t)
    vtypes = tuple(v for v, _ in typed)
    gtypes = tuple(v for v, _ in enumerate_types(g, t + 1))
    col = {v: j for j, v in enumerate(vtypes)}
    unique_sets = tuple(
        tuple((size, col[v]) for size, v in mgroup_structure(g, gt)) for gt in gtypes
    )
    return SchemeLayout(
        g,
        t,
        vtypes,
        tuple(c for _, c in typed),
        gtypes,
        unique_sets,
        col,
        _mc_rows(g, typed),
        tuple(sum(1 << j for _, j in us) for us in unique_sets),
    )


# after the layout's fields: tx_rules, normalized; fs_rows, aligned with
# rule_types, the group types that carry a row
_RULES = " K tx_rules fs_rows rule_types global_fs z_of excluded skipped_group_types f_pt"


class RuleAnalysis(namedtuple("RuleAnalysis", _LAYOUT + _RULES), SchemeLayout):
    """The layout plus everything the rules determine on it, without
    touching actual file bytes.  Cheap even for large K."""

    __slots__ = ()

    def factor_of(self, v: TypeVector) -> int:
        return self.global_fs.factors[self.col[v]]


def _normalize_rules(
    analysis_types: Sequence[TypeVector],
    tx_rules: Mapping[TypeVector, "Iterable[int] | None"],
) -> dict[TypeVector, frozenset[int] | None]:
    given = set(tx_rules)
    expected = set(analysis_types)
    if given != expected:
        missing = sorted(v.text() for v in expected - given)
        extra = sorted(v.text() for v in given - expected)
        raise PlanError(
            "rules",
            f"transmitter rules must cover exactly the realizable group types; "
            f"missing={missing} unknown={extra}",
        )
    out: dict[TypeVector, frozenset[int] | None] = {}
    for gt, sel in tx_rules.items():
        out[gt] = None if sel is None else frozenset(int(i) for i in sel)
    return out


def rate_failure(masks: Iterable[tuple[int, int]], zeroed: int) -> int:
    """The "rate" stage on column masks: the index of the first group type
    that fails it, or -1.

    ``masks`` holds each group type's ``SchemeLayout.rate_masks`` and
    ``zeroed`` the excluded columns.  Every transmission must serve t
    receivers.  A group member whose desired type is excluded receives
    nothing, so it may appear in a transmitting group type only as the lone
    transmitter; otherwise some message carries fewer than t payload terms
    and the delivery overshoots the K(1-M/N)/t rate.  So a group type fails
    when its excluded columns are neither none, nor all it involves (it then
    sends nothing), nor the lone single-user unique set that transmits.
    """
    for k, (involved, solo) in enumerate(masks):
        dead = involved & zeroed
        if dead and dead != involved and dead != solo:
            return k
    return -1


def analyze_rules(
    K: int,
    t: int,
    grouping_sizes: Iterable[int],
    tx_rules: Mapping[TypeVector, "Iterable[int] | None"],
) -> RuleAnalysis:
    """Run the symbolic half of the pipeline; raise PlanError when any stage
    rejects the rules."""
    if not (isinstance(t, int) and 1 <= t <= K - 1):
        raise PlanError("params", f"need integer 1 <= t <= K-1, got t={t}, K={K}")
    try:
        g = make_grouping(K, grouping_sizes)
    except ValueError as e:
        raise PlanError("grouping", str(e)) from e
    return analyze_layout(scheme_layout(g, t), tx_rules)


def analyze_layout(
    layout: SchemeLayout,
    tx_rules: Mapping[TypeVector, "Iterable[int] | None"],
) -> RuleAnalysis:
    """Check one set of transmitter rules against a layout built once for its
    (grouping, t), so that several rule sets can share it.  The stages run
    in order (lcm, then all excluded, skip, rate and mc) and the first that
    rejects the rules raises PlanError."""
    rules = _normalize_rules(layout.group_types, tx_rules)
    selections = [rules[gt] for gt in layout.group_types]
    rows: list[tuple[FSEntry, ...]] = []
    rule_types: list[TypeVector] = []
    for i, (gt, sel) in enumerate(zip(layout.group_types, selections)):
        if sel is None:
            continue
        try:
            rows.append(layout.row(i, sel))
        except ValueError as e:
            raise PlanError("rules", f"group type {gt}: {e}") from e
        rule_types.append(gt)
    if not rows:
        raise PlanError("rules", "every group type is marked skip; nothing to send")

    try:
        gfs = vector_lcm(rows, zero_policy="exclude")
    except NoLcmError as e:
        raise PlanError("lcm", f"no consistent global split factors: {e}") from e
    factors = gfs.factors
    if not any(factors):
        raise PlanError("lcm", "all subfile types excluded; nothing would be stored")
    zeroed = sum(1 << j for j, f in enumerate(factors) if not f)

    def involved(i: int, dead: bool) -> list[str]:
        """The types group type i involves that are excluded, or live."""
        return [
            layout.subfile_types[j].text()
            for _, j in layout.unique_sets[i]
            if (not factors[j]) == dead
        ]

    for i, (gt, sel) in enumerate(zip(layout.group_types, selections)):
        if sel is None and layout.involved_masks[i] & ~zeroed:
            raise PlanError(
                "skip",
                f"group type {gt} is marked skip but involves live subfile "
                f"type(s) {involved(i, False)}",
            )
    failed = rate_failure(
        [layout.rate_masks(i, sel) for i, sel in enumerate(selections)], zeroed
    )
    if failed >= 0:
        raise PlanError(
            "rate",
            f"group type {layout.group_types[failed]}: transmissions would reach "
            f"receivers with nothing to decode (excluded desired type(s) "
            f"{involved(failed, True)}); such members must transmit alone",
        )
    mc = mc_check(factors, layout.mc_rows)
    if not mc.ok:
        raise PlanError(
            "mc",
            f"user classes {mc.fail_index} and {mc.fail_index + 1} would cache "
            f"unequal amounts ({mc.dots[0]} vs {mc.dots[1]} weighted subsets)",
        )
    return RuleAnalysis(
        *layout,
        K=layout.grouping.K,
        tx_rules=rules,
        fs_rows=tuple(rows),
        rule_types=tuple(rule_types),
        global_fs=gfs,
        z_of=dict(zip(rule_types, gfs.row_scales)),
        excluded=frozenset(v for v, f in zip(layout.subfile_types, factors) if not f),
        skipped_group_types=frozenset(
            gt
            for gt, mask in zip(layout.group_types, layout.involved_masks)
            if not mask & ~zeroed
        ),
        f_pt=subpacketization(factors, layout.type_counts),
    )


def jcm_baseline(K: int, t: int) -> tuple[int, Fraction]:
    """Reference scheme's (subpacketization, delivery rate) at cache level t."""
    if not (isinstance(K, int) and isinstance(t, int) and 1 <= t <= K - 1):
        raise ValueError(f"need integers 1 <= t <= K-1, got K={K}, t={t}")
    return t * binomial(K, t), Fraction(K - t, t)


def fs_table_json(
    group_types: Sequence[TypeVector],
    rows: Sequence[Sequence[FSEntry]],
) -> dict[str, list[object]]:
    """JSON form of a split-factor table: rows keyed by group-type text,
    absent entries as the string "star"."""
    out: dict[str, list[object]] = {}
    for gt, row in zip(group_types, rows):
        out[gt.text()] = ["star" if e is STAR else e for e in row]
    return out
