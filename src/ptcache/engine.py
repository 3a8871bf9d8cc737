"""Scheme assembly, placement, XOR delivery, decoding, and measurement.

The pipeline is: transmitter rules -> local split-factor rows -> global
reconciliation -> memory-consistency check -> packet map.  A plan that
survives all four stages simulates losslessly: every user reassembles its
demanded file bit-exactly from its cache plus the broadcast, which the
tests check on real byte strings rather than symbolically.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .combinat import binomial_exceeds, subsets
from .fscalc import (
    STAR,
    FSEntry,
    GlobalFS,
    NoLcmError,
    local_fs,
    mc_check,
    subpacketization,
    vector_lcm,
)
from .typevec import (
    Grouping,
    MGroupStructure,
    TypeVector,
    canonical_type_order,
    enumerate_types,
    make_grouping,
    mgroup_structure,
    per_user_count,
    profile,
    type_of,
)

SCHEMA_VERSION = "1"
# Most t-subsets a plan's packet map holds, and most groups of t + 1 users
# its delivery schedule walks.  A simulation needs about 1.6 KB per group
# for the schedule and the group records (0.2 GB at the cap), 2 KB more once
# its transcript is read as messages, and a packet map about 0.2 KB per
# t-subset; thm2(14,6), with C(14, 7) = 3,432 groups, simulates and decodes
# in 0.15 s on a 2-vCPU x86-64 host.
MAX_SUBSETS = 2**17
# Most entries, group types times subfile types, in the split-factor table
# of one analysis.  analyze of thm3(31, 31, 20), 496,584 entries, takes
# 0.8 s and prints 7.2 MB on a 2-vCPU x86-64 host; thm3(31, 31, 30), 38M
# entries, took 42 s and printed 539 MB.
MAX_TABLE_ENTRIES = 2**20

# (file index 1-based, subset as sorted tuple, packet index 1-based)
PacketKey = tuple[int, tuple[int, ...], int]


class PlanError(ValueError):
    """Scheme rejected; ``stage`` names the failing pipeline step."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


class IntegrityError(RuntimeError):
    """An invariant that bit-exact delivery and decoding rely on is broken:
    a plan or session was built inconsistently or tampered with."""


@dataclass(frozen=True)
class SchemeLayout:
    """The rules-independent bookkeeping of one (grouping, t): the subfile
    types (the columns of every split-factor row) with their counts, the
    group types (the rows) with their structures, and the table the memory
    check weighs the global factors with."""

    grouping: Grouping
    t: int
    subfile_types: tuple[TypeVector, ...]
    type_counts: tuple[int, ...]
    group_types: tuple[TypeVector, ...]
    structures: tuple[MGroupStructure, ...]  # aligned with group_types
    col: Mapping[TypeVector, int]  # subfile type -> column
    mc_rows: tuple[tuple[int, ...], ...]
    involved_masks: tuple[int, ...]  # per group type, the columns it involves

    def row(self, i: int, selection: Iterable[int]) -> tuple[FSEntry, ...]:
        """Full-width local split-factor row of group type i transmitting
        with ``selection``; STAR in the columns it does not involve."""
        row: list[FSEntry] = [STAR] * len(self.subfile_types)
        for v, a in local_fs(self.structures[i], selection).items():
            row[self.col[v]] = a
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
        st = self.structures[i]
        solo = -1
        if len(selection) == 1:
            (k,) = selection
            if st.unique_sets[k - 1].size == 1:
                solo = 1 << self.col[st.involved[k - 1]]
        return self.involved_masks[i], solo


def scheme_layout(g: Grouping, t: int) -> SchemeLayout:
    """The layout of (g, t); a split-factor table above MAX_TABLE_ENTRIES is
    refused once the types are enumerated, before their structures and the
    memory-check table are built."""
    typed = enumerate_types(g, t)
    vtypes = tuple(v for v, _ in typed)
    gtypes = tuple(v for v, _ in enumerate_types(g, t + 1))
    if len(gtypes) * len(vtypes) > MAX_TABLE_ENTRIES:
        raise PlanError(
            "size",
            f"the split-factor table would hold {len(gtypes) * len(vtypes):,} "
            f"entries; the cap is {MAX_TABLE_ENTRIES:,}",
        )
    col = {v: j for j, v in enumerate(vtypes)}
    structures = tuple(mgroup_structure(g, gt) for gt in gtypes)
    return SchemeLayout(
        grouping=g,
        t=t,
        subfile_types=vtypes,
        type_counts=tuple(c for _, c in typed),
        group_types=gtypes,
        structures=structures,
        col=col,
        mc_rows=tuple(
            tuple(per_user_count(g, v, bi) for v in vtypes)
            for bi in range(1, len(g.blocks) + 1)
        ),
        involved_masks=tuple(
            sum(1 << col[v] for v in st.involved) for st in structures
        ),
    )


@dataclass(frozen=True)
class RuleAnalysis(SchemeLayout):
    """The layout plus everything the rules determine on it, without
    touching actual file bytes.  Cheap even for large K."""

    K: int
    tx_rules: Mapping[TypeVector, "frozenset[int] | None"]  # normalized
    fs_rows: tuple[tuple[FSEntry, ...], ...]  # aligned with rule_types
    rule_types: tuple[TypeVector, ...]  # group types that carry a row
    global_fs: GlobalFS
    z_of: Mapping[TypeVector, int]
    excluded: frozenset[TypeVector]
    skipped_group_types: frozenset[TypeVector]
    f_pt: int

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
    excluded = frozenset(v for v, f in zip(layout.subfile_types, factors) if not f)
    zeroed = sum(1 << j for j, f in enumerate(factors) if not f)

    def involved(i: int, dead: bool) -> list[str]:
        """The types group type i involves that are excluded, or live."""
        return [
            v.text() for v in layout.structures[i].involved if (v in excluded) == dead
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
        **{f.name: getattr(layout, f.name) for f in fields(SchemeLayout)},
        K=layout.grouping.K,
        tx_rules=rules,
        fs_rows=tuple(rows),
        rule_types=tuple(rule_types),
        global_fs=gfs,
        z_of=dict(zip(rule_types, gfs.row_scales)),
        excluded=excluded,
        skipped_group_types=frozenset(
            gt
            for gt, mask in zip(layout.group_types, layout.involved_masks)
            if not mask & ~zeroed
        ),
        f_pt=subpacketization(factors, layout.type_counts),
    )


@dataclass(frozen=True)
class SchemePlan:
    K: int
    N: int
    M: int
    t: int
    analysis: RuleAnalysis
    rate: Fraction
    # subset -> (first packet offset within a file, packet count), in offset order
    subset_map: Mapping[tuple[int, ...], tuple[int, int]]

    @property
    def f_pt(self) -> int:
        return self.analysis.f_pt

    @property
    def grouping(self) -> Grouping:
        return self.analysis.grouping


def check_plan_size(K: int, t: int) -> None:
    """Refuse, with PlanError("size"), a plan whose packet map would hold
    more than MAX_SUBSETS t-subsets or whose delivery schedule would walk
    more than MAX_SUBSETS groups of t + 1 users.  It takes a few dozen
    multiplications at most, whatever K and t are."""
    for n, what in ((t, "t-subsets"), (t + 1, "groups")):
        if binomial_exceeds(K, n, MAX_SUBSETS):
            raise PlanError(
                "size",
                f"K={K}, t={t} has C({K}, {n}) {what}; the cap is {MAX_SUBSETS:,}",
            )


def build_plan(
    K: int,
    N: int,
    M: int,
    grouping_sizes: Iterable[int],
    tx_rules: Mapping[TypeVector, "Iterable[int] | None"],
    *,
    analysis: RuleAnalysis | None = None,
) -> SchemePlan:
    """The plan of a scheme: its analysis and its packet map.  ``analysis``,
    when the caller already has it, is ``analyze_rules`` of the same
    arguments, and is used rather than run again.  The size cap is checked
    before either is built."""
    if N < 1 or M < 1 or M > N:
        raise PlanError("params", f"need 1 <= M <= N, got N={N}, M={M}")
    if (K * M) % N:
        raise PlanError(
            "params", f"K*M/N = {K}*{M}/{N} is not an integer cache level"
        )
    t = K * M // N
    check_plan_size(K, t)
    if analysis is None:
        analysis = analyze_rules(K, t, grouping_sizes, tx_rules)
    g = analysis.grouping
    # factor per profile: a subset's profile fixes its type
    factors: dict[tuple[int, ...], int] = {}
    subset_map: dict[tuple[int, ...], tuple[int, int]] = {}
    offset = 0
    for T in subsets(K, t):
        key = profile(g, T)
        a = factors.get(key)
        if a is None:
            a = factors[key] = analysis.factor_of(type_of(g, T))
        if a == 0:
            continue
        subset_map[T] = (offset, a)
        offset += a
    if offset != analysis.f_pt:
        raise IntegrityError(f"packet map holds {offset} packets, F_PT {analysis.f_pt}")
    return SchemePlan(
        K=K,
        N=N,
        M=M,
        t=t,
        analysis=analysis,
        rate=Fraction(K * (N - M), N * t),
        subset_map=subset_map,
    )


@dataclass(frozen=True, slots=True)
class Message:
    tx: int
    group: tuple[int, ...]
    rx: tuple[int, ...]
    terms: tuple[tuple[int, tuple[int, ...], int], ...]  # (receiver, subset, counter)
    payload: bytes


# (receiver k, its desired subset S minus k, first packet, packet count)
ScheduleEntry = tuple[int, tuple[int, ...], int, int]


@dataclass(frozen=True, slots=True)
class GroupSchedule:
    """The demand-independent delivery in one multicast group S: its
    further-splitting factor, its transmitters in canonical order, and one
    entry per member whose desired subset holds packets.  A member whose
    subset is excluded gets no entry, so it receives nothing."""

    z: int
    transmitters: tuple[int, ...]
    entries: tuple[ScheduleEntry, ...]

    def payloads(
        self, senders: Sequence[int], wanted: Sequence[bytes], B: int
    ) -> tuple[int, list[int]]:
        """The payloads of the messages ``senders`` send in turn, z * ``B``
        bytes each, concatenated as one int, and the number of chunks of z
        packets each entry gave.  The entry of receiver k adds one slice of
        ``wanted[k - 1]``, with a zero chunk wherever k is the sender."""
        z = self.z
        size = z * B
        n = len(senders)
        acc = 0
        chunks = []
        for k, T, base, alpha in self.entries:
            c = n - senders.count(k)
            if c * z > alpha:
                raise IntegrityError(
                    f"delivery counter overran subfile {T} ({alpha} packets)"
                )
            chunks.append(c)
            blob = wanted[k - 1][base * B : base * B + c * size]
            if c < n:
                for at, u in enumerate(senders):
                    if u == k:
                        blob = blob[: at * size] + bytes(size) + blob[at * size :]
            acc ^= int.from_bytes(blob, "big")
        return acc, chunks


def _compile_schedule(plan: SchemePlan) -> dict[tuple[int, ...], GroupSchedule]:
    """Everything delivery does that the demand does not change: the groups
    that send, in canonical order.  A group's type and transmitting unique
    sets depend only on its intersection size with each user group, so
    they are worked out once per such profile, not once per group: a user
    group transmits when its block and intersection size name a selected
    unique set."""
    g = plan.grouping
    a = plan.analysis
    structure_of = dict(zip(a.group_types, a.structures))
    bit = [1 << u for u in range(plan.K + 1)]
    # subset mask -> (subset, first packet, packet count), the subset being
    # the packet map's own key, which the cache views hold too: set lookups
    # of a scheduled subset then compare by identity
    span_of = {
        sum(map(bit.__getitem__, T)): (T, *span) for T, span in plan.subset_map.items()
    }
    # profile -> (z, user groups that transmit), None when skipped
    profiles: dict[tuple[int, ...], tuple[int, frozenset[int]] | None] = {}
    groups: dict[tuple[int, ...], GroupSchedule] = {}
    for S in subsets(plan.K, plan.t + 1):
        key = profile(g, S)
        if key not in profiles:
            gtype = type_of(g, S)
            sel = a.tx_rules[gtype]
            if gtype in a.skipped_group_types:
                profiles[key] = None
            elif sel is None:
                raise IntegrityError(f"group type {gtype} sends but is marked skip")
            else:
                sets = structure_of[gtype].unique_sets
                named = {(sets[i - 1].block, sets[i - 1].cardinality) for i in sel}
                pairs = zip(g.block_of_group, key)  # (block, intersection) per group
                tx = frozenset(gi for gi, p in enumerate(pairs) if p in named)
                profiles[key] = (a.z_of[gtype], tx)
        sending = profiles[key]
        if sending is None:
            continue
        z, tx_groups = sending
        mask = sum(map(bit.__getitem__, S))
        entries = []
        for k in S:
            span = span_of.get(mask ^ bit[k])
            if span is not None:
                entries.append((k, *span))
        groups[S] = GroupSchedule(
            z, tuple(u for u in S if g.group_of[u] in tx_groups), tuple(entries)
        )
    return groups


@dataclass(eq=False, repr=False)  # compare as a Mapping; never print the files
class CacheView(Mapping[PacketKey, bytes]):
    """One user's cache: every packet of every file's subfile T for the T in
    ``held``, read in place from the files through the plan's packet map.
    Keys, order and bytes are those of a per-packet copy: subset in map
    order, then file, then packet."""

    subset_map: Mapping[tuple[int, ...], tuple[int, int]]
    files: tuple[bytes, ...]
    B: int  # bytes per packet
    held: frozenset[tuple[int, ...]]

    def __getitem__(self, key: PacketKey) -> bytes:
        n, T, i = key
        if not (
            1 <= n <= len(self.files)
            and T in self.held
            and 1 <= i <= self.subset_map[T][1]
        ):
            raise KeyError(key)
        start = (self.subset_map[T][0] + i - 1) * self.B
        return self.files[n - 1][start : start + self.B]

    def __iter__(self) -> Iterator[PacketKey]:
        for T, (_, alpha) in self.subset_map.items():
            if T in self.held:
                for n in range(1, len(self.files) + 1):
                    for i in range(1, alpha + 1):
                        yield (n, T, i)

    def __len__(self) -> int:
        return len(self.files) * sum(self.subset_map[T][1] for T in self.held)


# (group S, its senders in send order, their payloads as one bytes)
GroupRecord = tuple[tuple[int, ...], tuple[int, ...], bytes]


class Transcript(Sequence[Message]):
    """What ``deliver`` stores and returns: the group records, and their
    messages in send order, built each time they are read (take a list to
    read them more than once); the length is read off the records."""

    def __init__(self, records: Sequence[GroupRecord], schedule: Mapping) -> None:
        self.records, self.schedule = records, schedule

    def __len__(self) -> int:
        return sum(len(senders) for _, senders, _ in self.records)

    def __getitem__(self, i):
        return list(self)[i]

    def __iter__(self) -> Iterator[Message]:
        for S, senders, payload in self.records:
            entries = self.schedule[S].entries
            size = len(payload) // len(senders)
            counters = [0] * len(entries)
            for i, tx in enumerate(senders):
                terms = []
                for j, (k, T, _, _) in enumerate(entries):
                    if k != tx:
                        terms.append((k, T, counters[j]))
                        counters[j] += 1
                rx = tuple(u for u in S if u != tx)
                yield Message(tx, S, rx, tuple(terms), payload[i * size : (i + 1) * size])


@dataclass
class Session:
    plan: SchemePlan
    files: tuple[bytes, ...]
    demand: tuple[int, ...]
    bytes_per_packet: int
    schedule: Mapping[tuple[int, ...], GroupSchedule]  # sending groups, in order
    caches: dict[int, CacheView] = field(default_factory=dict)
    transcript: Sequence[Message] = field(default_factory=list)  # see _records


@dataclass
class VerifyResult:
    ok: bool
    per_user: dict[int, bool]
    missing: dict[int, list[PacketKey]]


@dataclass(frozen=True)
class Measurement:
    total_bits: int
    rate: Fraction
    per_user_cache_bits: int
    message_count: int


def place(plan: SchemePlan, files: Sequence[bytes]) -> dict[int, CacheView]:
    """Every user's cache; exact, deterministic, demand-independent.  User k
    holds the subsets T with k in T; nothing is copied."""
    if len(files) != plan.N:
        raise ValueError(f"expected {plan.N} files, got {len(files)}")
    sizes = {len(f) for f in files}
    if len(sizes) != 1:
        raise ValueError("files must share one length")
    (L,) = sizes
    if L == 0 or L % plan.f_pt:
        raise ValueError(
            f"file length {L} bytes is not a whole number of packets "
            f"(subpacketization {plan.f_pt}); pad files to a multiple"
        )
    files_t = tuple(bytes(f) for f in files)
    held: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, plan.K + 1)}
    for T, (base, alpha) in plan.subset_map.items():
        if base < 0 or base + alpha > plan.f_pt:
            raise IntegrityError(
                f"subfile {T} spans packets {base}..{base + alpha} of a file of "
                f"{plan.f_pt}"
            )
        for k in T:
            held[k].append(T)
    return {
        k: CacheView(plan.subset_map, files_t, L // plan.f_pt, frozenset(Ts))
        for k, Ts in held.items()
    }


def _lacking(session: Session) -> dict[int, set[tuple[int, ...]]]:
    """Per user k, the packet map's subsets with k that its cache lacks:
    none for the caches ``place`` builds.  Only a user that lacks one can
    lack a subset it sends or decodes with."""
    caches = session.caches
    lacking: dict[int, set[tuple[int, ...]]] = {k: set() for k in caches}
    for T in session.plan.subset_map:
        for k in T:
            if T not in caches[k].held:
                lacking[k].add(T)
    return lacking


def _records(session: Session) -> Sequence[GroupRecord]:
    """The transcript as group records: a ``Transcript``'s own, or one per
    message of any other ``Message`` sequence."""
    if isinstance(session.transcript, Transcript):
        return session.transcript.records
    return [(m.group, (m.tx,), m.payload) for m in session.transcript]


def deliver(session: Session, order_seed: int | None = None) -> Transcript:
    """Generate the broadcast as one record per sending group, dropping the
    senders with no receiver, into ``session.transcript``, and return it.
    ``order_seed`` shuffles group and transmitter order (decoding is
    order-independent); None keeps the canonical ascending order."""
    groups = list(session.schedule.items())
    B = session.bytes_per_packet
    wanted = [session.files[n - 1] for n in session.demand]  # user k's at k-1
    lacking = _lacking(session)
    records: list[GroupRecord] = []
    rng = random.Random(order_seed) if order_seed is not None else None
    if rng:
        rng.shuffle(groups)
    for S, gs in groups:
        txs = list(gs.transmitters)
        if rng:
            rng.shuffle(txs)
        receivers = [k for k, _, _, _ in gs.entries]
        txs = [tx for tx in txs if len(receivers) > receivers.count(tx)]
        if not txs:
            continue
        sent = gs.payloads(txs, wanted, B)[0].to_bytes(len(txs) * gs.z * B, "big")
        for tx in txs:
            if lacking[tx]:
                for k, T, _, _ in gs.entries:
                    if k != tx and T in lacking[tx]:
                        raise IntegrityError(
                            f"transmitter {tx} does not cache subfile {T}"
                        )
        records.append((S, tuple(txs), sent))
    session.transcript = transcript = Transcript(records, session.schedule)
    return transcript


def simulate(
    plan: SchemePlan,
    files: Sequence[bytes],
    demand: Sequence[int],
    order_seed: int | None = None,
) -> Session:
    demand_t = tuple(int(d) for d in demand)
    if len(demand_t) != plan.K or any(not 1 <= d <= plan.N for d in demand_t):
        raise ValueError(f"demand must list {plan.K} file indices in 1..{plan.N}")
    caches = place(plan, files)
    session = Session(
        plan=plan,
        files=caches[1].files,
        demand=demand_t,
        bytes_per_packet=caches[1].B,
        schedule=_compile_schedule(plan),
        caches=caches,
    )
    deliver(session, order_seed=order_seed)
    return session


def decode_and_verify(session: Session) -> VerifyResult:
    """Replay the transcript at every user and check bit-exact recovery.

    Counters depend only on the messages of the same group before, so the
    transcript is replayed group by group, in transcript order within each.
    Receiver k recovers the payload XOR the other terms, its demanded
    packets exactly when the payload is the XOR of all terms: so comparing a
    group's payloads with ``GroupSchedule.payloads`` checks every receiver,
    and wrong messages are sought only when that fails.  Only users whose
    cache breaks the placement rule have side information checked per
    message.  Recovered packets are marked once per schedule entry.
    """
    plan = session.plan
    demand = session.demand
    B = session.bytes_per_packet
    wanted = [session.files[n - 1] for n in demand]  # user k's at k-1
    users = range(1, plan.K + 1)
    wrong: set[int] = set()  # users that recovered some packet incorrectly
    lacking = _lacking(session)
    # per user k, the subsets without k that its cache holds
    foreign = {k: {T for T in c.held if k not in T} for k, c in session.caches.items()}
    deviant = {k for k in lacking if lacking[k] or foreign[k]}
    by_group: dict[tuple[int, ...], list[GroupRecord]] = {}
    for rec in _records(session):
        if rec[0] not in session.schedule:
            raise IntegrityError(
                f"message for group {rec[0]}, which the plan never serves"
            )
        by_group.setdefault(rec[0], []).append(rec)

    got = {k: bytearray(plan.f_pt) for k in users}  # a flag per packet recovered
    for S, recs in by_group.items():
        gs = session.schedule[S]
        size = gs.z * B
        senders: list[int] = []
        for _, txs, payload in recs:
            if len(payload) != len(txs) * size:
                raise IntegrityError(
                    f"message of {len(payload)} bytes in a group sending {size}"
                )
            senders += txs
        for tx in senders if deviant else ():
            for k, T_own, _, _ in gs.entries:
                if k == tx or k not in deviant:
                    continue
                if T_own in foreign[k]:
                    raise IntegrityError(
                        f"user {k} decoded subfile {T_own} of file {demand[k - 1]}, "
                        f"already cached"
                    )
                if any(T in lacking[k] for u, T, _, _ in gs.entries if u != tx):
                    raise IntegrityError(
                        f"user {k} lacks side information for the message {tx} "
                        f"sends in group {S}"
                    )
        acc, chunks = gs.payloads(senders, wanted, B)
        expected = acc.to_bytes(len(senders) * size, "big")
        sent = b"".join([payload for _, _, payload in recs])
        if sent != expected:
            for i, tx in enumerate(senders):
                if sent[i * size : (i + 1) * size] != expected[i * size : (i + 1) * size]:
                    wrong.update(k for k, _, _, _ in gs.entries if k != tx)
        for (k, _, base, _), c in zip(gs.entries, chunks):
            got[k][base : base + c * gs.z] = b"\1" * (c * gs.z)

    per_user: dict[int, bool] = {}
    missing: dict[int, list[PacketKey]] = {}
    for k in users:
        want = demand[k - 1]
        flags = got[k]
        for T in session.caches[k].held:
            base, alpha = plan.subset_map[T]
            flags[base : base + alpha] = b"\1" * alpha
        if 0 in flags:
            missing[k] = [
                (want, T, i + 1)
                for T, (base, alpha) in plan.subset_map.items()
                for i in range(alpha)
                if not flags[base + i]
            ]
        per_user[k] = k not in missing and k not in wrong
    return VerifyResult(ok=all(per_user.values()), per_user=per_user, missing=missing)


def measure(session: Session) -> Measurement:
    records = _records(session)
    total_bits = 8 * sum(len(payload) for _, _, payload in records)
    L_bits = 8 * len(session.files[0])
    B = session.bytes_per_packet
    cache_bits = {8 * B * len(c) for c in session.caches.values()}
    if len(cache_bits) != 1:
        raise IntegrityError(f"caches are not uniform: {sorted(cache_bits)}")
    return Measurement(
        total_bits=total_bits,
        rate=Fraction(total_bits, L_bits),
        per_user_cache_bits=cache_bits.pop(),
        message_count=sum(len(senders) for _, senders, _ in records),
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def plan_json(plan: SchemePlan) -> dict[str, object]:
    a = plan.analysis
    return {
        "schema_version": SCHEMA_VERSION,
        "K": plan.K,
        "N": plan.N,
        "M": plan.M,
        "t": plan.t,
        "grouping": list(a.grouping.sizes),
        "tx_rules": rules_json(a.tx_rules),
        "global_fs": {
            "subfile_types": [v.text() for v in a.subfile_types],
            "factors": list(a.global_fs.factors),
            "row_scales": list(a.global_fs.row_scales),
        },
        "F_PT": a.f_pt,
        "rate": f"{plan.rate.numerator}/{plan.rate.denominator}",
        "excluded_types": sorted(v.text() for v in a.excluded),
    }


def rules_json(rules: Mapping[TypeVector, "Iterable[int] | None"]) -> dict[str, object]:
    """The JSON form of transmitter rules that :func:`rules_from_json` reads,
    group types in canonical order."""
    return {
        gt.text(): "skip" if (sel := rules[gt]) is None else sorted(sel)
        for gt in canonical_type_order(rules)
    }


def rules_from_json(data: object) -> dict[TypeVector, "frozenset[int] | None"]:
    """Transmitter rules from their JSON form: an object mapping group-type
    text to "skip" or a list of 1-based unique-set indices.  Anything else
    raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"rules must be a JSON object, not {type(data).__name__}")
    rules: dict[TypeVector, "frozenset[int] | None"] = {}
    for text, sel in data.items():
        if sel != "skip" and not (
            isinstance(sel, list) and all(type(i) is int for i in sel)
        ):
            raise ValueError(f'{text}: selection {sel!r} is not "skip" or int list')
        try:
            rules[TypeVector.parse(text)] = None if sel == "skip" else frozenset(sel)
        except ValueError as e:
            raise ValueError(f"bad group type {text!r}: {e}") from e
    return rules


def transcript_jsonl(transcript: Iterable[Message]) -> str:
    lines = []
    for m in transcript:
        lines.append(
            json.dumps(
                {
                    "tx": m.tx,
                    "group": list(m.group),
                    "rx": list(m.rx),
                    "counter_snapshot": {str(k): c for k, _, c in m.terms},
                    "payload_hex": m.payload.hex(),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
