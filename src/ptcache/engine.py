"""Scheme plans, placement, XOR delivery, decoding, and measurement.

A plan is a scheme that :func:`ptcache.fscalc.analyze_rules` admits, with
its packet map, built on first read: each t-subset's packets within a file.
A plan simulates losslessly: every user reassembles its demanded file
bit-exactly from its cache plus the broadcast, which the tests check on real
byte strings rather than symbolically.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .combinat import binomial, binomial_exceeds, subsets
from .fscalc import PlanError, RuleAnalysis, analyze_rules
from .typevec import (
    Grouping, TypeVector, canonical_type_order, profile, type_of, unique_set_names
)

SCHEMA_VERSION = "1"
# Most t-subsets a plan's packet map holds and most groups of t + 1 users its
# delivery schedule walks, and most users either lists, C(K, t) * t and
# C(K, t + 1) * (t + 1).  A plan takes about 160 + 8t bytes per t-subset; a
# simulation peaks at about 0.5 KB per group plus 50 bytes per listed user,
# 0.3 GB at the caps, and its transcript read as messages takes 0.25 KB plus
# 80 bytes per receiver a message.  thm2(14,6), with C(14, 7) = 3,432 groups,
# simulates and decodes a demand in 0.07 s on a 2-vCPU x86-64 host.
MAX_SUBSETS = 2**17
MAX_LISTED = 2**21

# (file index 1-based, subset as sorted tuple, packet index 1-based)
PacketKey = tuple[int, tuple[int, ...], int]


class IntegrityError(RuntimeError):
    """An invariant that bit-exact delivery and decoding rely on is broken:
    a plan or session was built inconsistently or tampered with."""


@dataclass(frozen=True)
class SchemePlan:
    K: int
    N: int
    M: int
    t: int
    analysis: RuleAnalysis
    rate: Fraction

    @cached_property
    def subset_map(self) -> Mapping[tuple[int, ...], tuple[int, int]]:
        """Subset -> (first packet offset within a file, packet count), in
        offset order: the packet map, built on first read (``design`` never
        reads it)."""
        a, g = self.analysis, self.grouping
        # factor per profile: a subset's profile fixes its type
        factors: dict[tuple[int, ...], int] = {}
        subset_map: dict[tuple[int, ...], tuple[int, int]] = {}
        offset = 0
        for T in subsets(self.K, self.t):
            key = profile(g, T)
            alpha = factors.get(key)
            if alpha is None:
                alpha = factors[key] = a.factor_of(type_of(g, T))
            if alpha == 0:
                continue
            subset_map[T] = (offset, alpha)
            offset += alpha
        if offset != a.f_pt:
            raise IntegrityError(f"packet map holds {offset} packets, F_PT {a.f_pt}")
        return subset_map

    @cached_property
    def own(self) -> Mapping[int, tuple[frozenset, int]]:
        """User k -> the subsets with k and their packet count: what place
        caches, built on first read (``design`` never reads it)."""
        lists: dict[int, list] = {k: [] for k in range(1, self.K + 1)}
        count = dict.fromkeys(lists, 0)
        for T, (_, alpha) in self.subset_map.items():
            for k in T:
                lists[k].append(T)
                count[k] += alpha
        # via a set, since a frozenset copied from a set is half one built from
        # a list; one set at a time, so that they do not raise the peak
        return {k: (frozenset(set(Ts)), count[k]) for k, Ts in lists.items()}

    @property
    def f_pt(self) -> int:
        return self.analysis.f_pt

    @property
    def grouping(self) -> Grouping:
        return self.analysis.grouping


def check_plan_size(K: int, t: int) -> None:
    """Refuse, with PlanError("size"), a plan whose packet map would hold
    more than MAX_SUBSETS t-subsets or whose delivery schedule would walk
    more than MAX_SUBSETS groups of t + 1 users, or either of which would
    list more than MAX_LISTED users.  It takes a few dozen multiplications
    at most, whatever K and t are."""
    for n, what in ((t, "t-subsets"), (t + 1, "groups")):
        if binomial_exceeds(K, n, MAX_SUBSETS):
            raise PlanError(
                "size",
                f"K={K}, t={t} has C({K}, {n}) {what}; the cap is {MAX_SUBSETS:,}",
            )
        if n > 0 and binomial_exceeds(K, n, MAX_LISTED // n):
            raise PlanError(
                "size",
                f"K={K}, t={t} lists {n} users in each of C({K}, {n}) = "
                f"{binomial(K, n):,} {what}; the cap is {MAX_LISTED:,} users",
            )


def build_plan(
    K: int,
    N: int,
    M: int,
    grouping_sizes: Iterable[int],
    tx_rules: Mapping[TypeVector, "Iterable[int] | None"],
) -> SchemePlan:
    """The plan of a scheme: its analysis, with the size cap checked before
    it is built.  The packet map is built when first read."""
    if N < 1 or M < 1 or M > N:
        raise PlanError("params", f"need 1 <= M <= N, got N={N}, M={M}")
    if (K * M) % N:
        raise PlanError(
            "params", f"K*M/N = {K}*{M}/{N} is not an integer cache level"
        )
    t = K * M // N
    check_plan_size(K, t)
    return SchemePlan(
        K=K,
        N=N,
        M=M,
        t=t,
        analysis=analyze_rules(K, t, grouping_sizes, tx_rules),
        rate=Fraction(K * (N - M), N * t),
    )


@dataclass(frozen=True, slots=True)
class Message:
    tx: int
    group: tuple[int, ...]
    rx: tuple[int, ...]
    terms: tuple[tuple[int, tuple[int, ...], int], ...]  # (receiver, subset, counter)
    payload: bytes


@dataclass(frozen=True, slots=True)
class GroupSchedule:
    """The demand-independent delivery in one multicast group S: its
    further-splitting factor, its transmitters in canonical order, and each
    member whose desired subset, S minus it, holds packets, with its span."""

    z: int
    transmitters: tuple[int, ...]
    receivers: tuple[int, ...]
    spans: tuple[tuple, ...]  # (subset, first packet, packet count)

    def payloads(
        self, senders: Sequence[int], wanted: Sequence[bytes], B: int
    ) -> tuple[int, list[int]]:
        """The payloads of the messages ``senders`` send in turn, z * ``B``
        bytes each, concatenated as one int, and the number of chunks of z
        packets each receiver got.  Receiver k adds one slice of
        ``wanted[k - 1]``, with a zero chunk wherever k is the sender."""
        z = self.z
        size = z * B
        n = len(senders)
        acc, chunks = 0, []
        for k, (T, base, alpha) in zip(self.receivers, self.spans):
            c = n - senders.count(k)
            if c * z > alpha:
                raise IntegrityError(
                    f"delivery counter overran subfile {T} ({alpha} packets)"
                )
            chunks.append(c)
            v = int.from_bytes(wanted[k - 1][base * B : base * B + c * size], "big")
            for at in range(n - 1, -1, -1) if c < n else ():
                if senders[at] == k:  # the chunks after ``at`` are placed
                    low = 8 * size * (n - 1 - at)
                    v = ((v >> low) << (low + 8 * size)) | (v & ((1 << low) - 1))
            acc ^= v
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
    bit = [1 << u for u in range(plan.K + 1)]
    # subset mask -> its span (subset, first packet, packet count), one tuple
    # shared by every group; the subset is the packet map's own key, which
    # the caches hold too, so set lookups of it compare by identity
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
                names = unique_set_names(gtype)
                named = {names[i - 1] for i in sel}
                pairs = zip(g.block_of_group, key)  # (block, intersection) per group
                tx = frozenset(gi for gi, p in enumerate(pairs) if p in named)
                profiles[key] = (a.z_of[gtype], tx)
        sending = profiles[key]
        if sending is None:
            continue
        z, tx_groups = sending
        mask = sum(map(bit.__getitem__, S))
        receivers, spans = [], []
        for k in S:
            span = span_of.get(mask ^ bit[k])
            if span is not None:
                receivers.append(k)
                spans.append(span)
        tx = tuple(u for u in S if g.group_of[u] in tx_groups)
        groups[S] = GroupSchedule(z, tx, tuple(receivers), tuple(spans))
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
            gs = self.schedule[S]
            size = len(payload) // len(senders)
            counters = [0] * len(gs.receivers)
            for i, tx in enumerate(senders):
                terms = []
                for j, (k, (T, _, _)) in enumerate(zip(gs.receivers, gs.spans)):
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
    holds the subsets T with k in T, ``plan.own[k]``; nothing is copied."""
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
    for T, (base, alpha) in plan.subset_map.items():
        if base < 0 or base + alpha > plan.f_pt:
            raise IntegrityError(
                f"subfile {T} spans packets {base}..{base + alpha} of a file of "
                f"{plan.f_pt}"
            )
    return {
        k: CacheView(plan.subset_map, files_t, L // plan.f_pt, held)
        for k, (held, _) in plan.own.items()
    }


# Per user k, by set difference with plan.own[k]: the subsets with k that its
# cache lacks, those without k that it holds (both empty for the caches place
# builds), and the packets it holds per file.
def _census(session: Session) -> dict[int, tuple]:
    own, spans = session.plan.own, session.plan.subset_map
    census = {}
    for k, cache in session.caches.items():
        mine, count = own[k]
        lacking, foreign = mine - cache.held, cache.held - mine
        count += sum(spans[T][1] for T in foreign) - sum(spans[T][1] for T in lacking)
        census[k] = (lacking, foreign, count)
    return census


def _records(session: Session) -> Sequence[GroupRecord]:
    """The transcript as group records: a ``Transcript``'s own, or one per
    message of any other ``Message`` sequence."""
    if isinstance(session.transcript, Transcript):
        return session.transcript.records
    return [(m.group, (m.tx,), m.payload) for m in session.transcript]


def deliver(session: Session, order_seed: int | None = None) -> Transcript:
    """Generate the broadcast as one record per sending group into
    ``session.transcript``, and return it.  Every transmitter sends: the
    rate stage admits no group type in which one has no receiver.
    ``order_seed`` shuffles group and transmitter order (decoding is
    order-independent); None keeps the canonical ascending order."""
    groups = list(session.schedule.items())
    B = session.bytes_per_packet
    wanted = [session.files[n - 1] for n in session.demand]  # user k's at k-1
    census = _census(session)
    records: list[GroupRecord] = []
    rng = random.Random(order_seed) if order_seed is not None else None
    if rng:
        rng.shuffle(groups)
    for S, gs in groups:
        txs = list(gs.transmitters)
        if rng:
            rng.shuffle(txs)
        sent = gs.payloads(txs, wanted, B)[0].to_bytes(len(txs) * gs.z * B, "big")
        for tx in txs:
            if lacking := census[tx][0]:
                for k, (T, _, _) in zip(gs.receivers, gs.spans):
                    if k != tx and T in lacking:
                        raise IntegrityError(f"transmitter {tx} does not cache subfile {T}")
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
    schedule = _compile_schedule(plan)
    session = Session(plan, caches[1].files, demand_t, caches[1].B, schedule, caches)
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
    message.  Recovered packets are counted, and listed only for a user
    that falls short.
    """
    plan = session.plan
    demand = session.demand
    B = session.bytes_per_packet
    wanted = [session.files[n - 1] for n in demand]  # user k's at k-1
    wrong: set[int] = set()  # users that recovered some packet incorrectly
    census = _census(session)
    deviant = {k for k, (lacking, foreign, _) in census.items() if lacking or foreign}
    by_group: dict[tuple[int, ...], list[GroupRecord]] = {}
    for rec in _records(session):
        if rec[0] not in session.schedule:
            raise IntegrityError(
                f"message for group {rec[0]}, which the plan never serves"
            )
        by_group.setdefault(rec[0], []).append(rec)

    decoded = [0] * (plan.K + 1)  # per user k, the packets it recovered
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
            carried = [T for u, (T, _, _) in zip(gs.receivers, gs.spans) if u != tx]
            for k, (T_own, _, _) in zip(gs.receivers, gs.spans):
                if k == tx or k not in deviant:
                    continue
                lacking, foreign, _ = census[k]
                if T_own in foreign:
                    raise IntegrityError(
                        f"user {k} decoded subfile {T_own} of file {demand[k - 1]}, "
                        f"already cached"
                    )
                if any(T in lacking for T in carried):
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
                    wrong.update(k for k in gs.receivers if k != tx)
        for k, c in zip(gs.receivers, chunks):
            decoded[k] += c * gs.z

    per_user: dict[int, bool] = {}
    missing: dict[int, list[PacketKey]] = {}
    # Counts are exact: a decoded subset has one receiver entry whose counter
    # stays in it, and a held subset sent to its user raised above.
    for k in range(1, plan.K + 1):
        if decoded[k] + census[k][2] != plan.f_pt:
            got = {}  # per subset, how many of its packets k recovered
            for S, recs in by_group.items():
                if k in (gs := session.schedule[S]).receivers:
                    T = gs.spans[gs.receivers.index(k)][0]
                    got[T] = gs.z * sum(len(txs) - txs.count(k) for _, txs, _ in recs)
            got.update((T, plan.subset_map[T][1]) for T in session.caches[k].held)
            missing[k] = [
                (demand[k - 1], T, i + 1)
                for T, (_, alpha) in plan.subset_map.items()
                for i in range(got.get(T, 0), alpha)
            ]
        per_user[k] = k not in missing and k not in wrong
    return VerifyResult(ok=all(per_user.values()), per_user=per_user, missing=missing)


def measure(session: Session) -> Measurement:
    records = _records(session)
    total_bits = 8 * sum(len(payload) for _, _, payload in records)
    L_bits = 8 * len(session.files[0])
    B = session.bytes_per_packet
    cache_bits = {8 * B * len(session.files) * n for *_, n in _census(session).values()}
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
