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
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import chain, cycle, product
from operator import attrgetter, getitem, itemgetter

from .combinat import binomial, binomial_exceeds, subsets
from .fscalc import PlanError, RuleAnalysis, analyze_rules
from .typevec import (
    Grouping, TypeVector, canonical_type_order, type_of, unique_set_names
)

SCHEMA_VERSION = "1"
# Most t-subsets a plan's packet map holds and most groups of t + 1 users its
# delivery schedule walks, and most users either lists, C(K, t) * t and
# C(K, t + 1) * (t + 1).  A plan takes about 160 + 8t bytes per t-subset; a
# simulation peaks at about 90 bytes per user its groups list, 0.2 GB at the
# caps, plus about five times its broadcast, which a demand's gathers hold at
# once as bytes and ints; its transcript read as messages takes 0.25 KB plus
# 80 bytes per receiver a message.  thm2(14,6), with C(14, 7) = 3,432 groups,
# simulates and decodes a demand in 0.05 s on a 2-vCPU x86-64 host.
MAX_SUBSETS = 2**17
MAX_LISTED = 2**21

# (file index 1-based, subset as sorted tuple, packet index 1-based)
PacketKey = tuple[int, tuple[int, ...], int]


class IntegrityError(RuntimeError):
    """An invariant that bit-exact delivery and decoding rely on is broken:
    a plan or session was built inconsistently or tampered with."""


class SchemePlan:
    """A scheme at the memory point (N, M), t = KM/N, with its analysis and
    delivery rate."""

    def __init__(self, K, N, M, t, analysis: RuleAnalysis, rate: Fraction):
        self.K, self.N, self.M, self.t = K, N, M, t
        self.analysis, self.rate = analysis, rate

    def __eq__(self, other):
        if other.__class__ is not SchemePlan:
            return NotImplemented
        # every field, as for DesignSpec; not the cached maps
        return _plan_fields(self) == _plan_fields(other)

    @cached_property
    def subset_map(self) -> Mapping[tuple[int, ...], tuple[int, int]]:
        """Subset -> (first packet offset within a file, packet count), in
        offset order: the packet map, built on first read (``design`` never
        reads it)."""
        a, g = self.analysis, self.grouping
        # factor per profile: a subset's profile, the number of its members in
        # each user group, fixes its type; the user group of each member, in
        # order, is that profile in another form, quicker to build
        factors: dict[tuple[int, ...], int] = {}
        subset_map: dict[tuple[int, ...], tuple[int, int]] = {}
        offset = 0
        for T in subsets(self.K, self.t):
            key = tuple(map(g.group_of.__getitem__, T))
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


_plan_fields = attrgetter("K", "N", "M", "t", "analysis", "rate")


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


# One transmission: its sender, group and receivers, a (receiver, subset,
# counter) term per receiver, and the payload, the XOR of the terms' packets.
Message = namedtuple("Message", "tx group rx terms payload")

# The demand-independent delivery in one multicast group S: its further-
# splitting factor, its transmitters in canonical order, and each member whose
# desired subset, S minus it, holds packets, with its span (subset, first
# packet, packet count).
GroupSchedule = namedtuple("GroupSchedule", "z transmitters receivers spans")


class Schedule(Mapping[tuple[int, ...], GroupSchedule]):
    """The groups that send: ``order``, (group, transmitters) in canonical
    order, and ``z``, their split factors.  A group's ``GroupSchedule`` is
    built when read."""

    def __init__(self, order, z, span_of, bit):
        # span_of: a subset's bit mask, the sum of bit[u] over its users u, ->
        # its span, one tuple per subset, whose subset is the packet map's key
        self.order, self.z, self.span_of, self.bit = order, z, span_of, bit
        self.compiled = ()  # the last send order, its B, slices and counts

    @cached_property
    def transmitters(self):
        return dict(self.order)

    def __getitem__(self, S):
        mask, spans = sum(map(self.bit.__getitem__, S)), {}
        for k in S:
            if span := self.span_of.get(mask ^ self.bit[k]):
                spans[k] = span
        return GroupSchedule(
            self.z[S], self.transmitters[S], tuple(spans), tuple(spans.values())
        )

    def __iter__(self):
        return iter(self.z)

    def __len__(self):
        return len(self.z)

    def broadcast(self, order, files, demand, B):
        """The broadcast sent in ``order``, one (group, senders) per sending
        group, and the packets each user decodes from it."""
        # Message i of group S carries, for each receiver k but its sender,
        # the next z packets of k's subset S minus k.  XOR is linear, so the
        # broadcast is the XOR of K shares, k's being slices of its demanded
        # file with a zero run wherever k adds nothing.  Per user, the
        # (start, stop) pairs of those slices, alternately of a zero run and
        # of the file, are compiled once per send order; a demand then costs
        # K gathers, K int.from_bytes and K - 1 XORs.
        if self.compiled[:2] != (order, B):
            bit = self.bit
            # an empty zero run and file slice first, for a run at 0 to extend
            cuts = [array("q", (0, 0, 0, 0)) for _ in bit]
            end = [0] * len(bit)  # per user, where its last file slice ends
            decoded = [0] * len(bit)  # per user, the packets it decodes
            pos = 0
            for S, senders in order:
                if (z := self.z.get(S)) is None:
                    raise IntegrityError(
                        f"message for group {S}, which the plan never serves"
                    )
                size, n = z * B, len(senders)
                mask = sum(map(bit.__getitem__, S))
                whole = ((pos, n * size),)
                for k in S:
                    if (span := self.span_of.get(mask ^ bit[k])) is None:
                        continue
                    # one run, or a zero chunk where k sends
                    runs = whole if k not in senders else [
                        (pos + i * size, size) for i, tx in enumerate(senders) if tx != k
                    ]
                    T, base, alpha = span
                    if (c := z * (n - senders.count(k))) > alpha:
                        raise IntegrityError(
                            f"delivery counter overran subfile {T} ({alpha} packets)"
                        )
                    decoded[k] += c
                    cut, a = cuts[k], base * B
                    for at, length in runs:
                        if at == end[k] and cut[-1] == a:  # runs on
                            cut[-1] = a + length
                        else:
                            cut.extend((0, at - end[k], a, a + length))
                        a += length
                        end[k] = at + length
                pos += n * size
            self.compiled = (order, B, cuts, decoded, pos)
        _, _, cuts, decoded, total = self.compiled
        # little-endian, so a share need not run on in zeros to the end
        zeros, acc = bytes(total), 0
        for k, n in enumerate(demand, 1):
            parts = map(slice, cuts[k][::2], cuts[k][1::2])
            acc ^= int.from_bytes(
                b"".join(map(getitem, cycle((zeros, files[n - 1])), parts)), "little"
            )
        return acc.to_bytes(total, "little"), decoded


# Everything delivery does that the demand does not change: the groups that
# send, in canonical order.  A group's type and transmitters depend only on
# its members' user groups, so they are worked out once per such tuple, not
# once per group: a user group transmits when its block and intersection size
# name a selected unique set.
def _compile_schedule(plan: SchemePlan) -> Schedule:
    g, a = plan.grouping, plan.analysis
    bit = [1 << u for u in range(plan.K + 1)]
    span_of = {}
    for T, span in plan.subset_map.items():
        span_of[sum(map(bit.__getitem__, T))] = (T, *span)
    # members' user groups -> (z, transmitters' places in S), None when skipped
    rules: dict[tuple[int, ...], tuple[int, tuple[int, ...]] | None] = {}
    order, z_of = [], {}
    for S in subsets(plan.K, plan.t + 1):
        ids = tuple(map(g.group_of.__getitem__, S))
        if ids not in rules:
            gtype = type_of(g, S)
            sel = a.tx_rules[gtype]
            if gtype in a.skipped_group_types:
                rules[ids] = None
            elif sel is None:
                raise IntegrityError(f"group type {gtype} sends but is marked skip")
            else:
                names = unique_set_names(gtype)
                named = {names[i - 1] for i in sel}
                rules[ids] = a.z_of[gtype], tuple(
                    i for i, gi in enumerate(ids)
                    if (g.block_of_group[gi], ids.count(gi)) in named
                )
        if rule := rules[ids]:
            z_of[S] = rule[0]
            order.append((S, tuple(map(S.__getitem__, rule[1]))))
    return Schedule(tuple(order), z_of, span_of, bit)


class CacheView(Mapping[PacketKey, bytes]):
    """One user's cache: every packet of every file's subfile T for the T in
    ``held``, read in place from the files through the plan's packet map.
    Keys, order and bytes are those of a per-packet copy: subset in map
    order, then file, then packet.  It compares as a Mapping."""

    def __init__(self, subset_map, files, B, held):  # B: bytes per packet
        self.subset_map, self.files, self.B, self.held = subset_map, files, B, held

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


class Transcript(Sequence[Message]):
    """What ``deliver`` stores and returns: the send order, one (group,
    senders) per sending group, and the broadcast as one byte string.  Its
    messages are built when read (take a list to read them more than once)."""

    def __init__(self, order, broadcast, schedule, B):
        self.order, self.broadcast, self.schedule, self.B = order, broadcast, schedule, B

    def __len__(self) -> int:
        return sum(map(len, map(itemgetter(1), self.order)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return next(self._messages(range(len(self))[i]))  # list semantics

    def _messages(self, i=0):  # from message i on, building none before it
        at = 0
        for S, senders in self.order:
            n, size = len(senders), self.schedule.z[S] * self.B
            gs = self.schedule[S] if i < n else None
            for j in range(i, n):
                tx = senders[j]
                # a receiver's counter: the messages before j that it received
                terms = tuple(
                    (k, T, j - senders[:j].count(k))
                    for k, (T, _, _) in zip(gs.receivers, gs.spans)
                    if k != tx
                )
                payload = self.broadcast[at + j * size : at + (j + 1) * size]
                yield Message(tx, S, tuple(filter(tx.__ne__, S)), terms, payload)
            i = max(i - n, 0)
            at += n * size

    __iter__ = _messages


class Session:
    """One simulated demand: the plan, files and demand, the schedule of
    sending groups, every user's cache and the transcript."""

    def __init__(
        self, plan, files, demand, bytes_per_packet, schedule, caches=None, transcript=None
    ):
        self.plan, self.files, self.demand = plan, files, demand
        self.bytes_per_packet, self.schedule = bytes_per_packet, schedule
        self.caches = {} if caches is None else caches
        self.transcript = [] if transcript is None else transcript


# per_user: user -> recovered its file exactly; missing: user -> the packets
# it did not recover, for users that fell short
VerifyResult = namedtuple("VerifyResult", "ok per_user missing")
Measurement = namedtuple(
    "Measurement", "total_bits rate per_user_cache_bits message_count"
)


def place(plan: SchemePlan, files: Sequence[bytes]) -> dict[int, CacheView]:
    """Every user's cache; exact, deterministic, demand-independent.  User k
    holds the subsets T with k in T, ``plan.own[k]``; nothing is copied."""
    if len(files) != plan.N:
        raise ValueError(f"expected {plan.N} files, got {len(files)}")
    sizes = set(map(len, files))
    if len(sizes) != 1:
        raise ValueError("files must share one length")
    (L,) = sizes
    if L == 0 or L % plan.f_pt:
        raise ValueError(
            f"file length {L} bytes is not a whole number of packets "
            f"(subpacketization {plan.f_pt}); pad files to a multiple"
        )
    files_t = tuple(map(bytes, files))
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
        for T in foreign:
            count += spans[T][1]
        for T in lacking:
            count -= spans[T][1]
        census[k] = (lacking, foreign, count)
    return census


def deliver(session: Session, order_seed: int | None = None) -> Transcript:
    """Generate the broadcast into ``session.transcript``, and return it.
    Every transmitter sends: the rate stage admits no group type in which
    one has no receiver.  ``order_seed`` shuffles group and transmitter
    order (decoding is order-independent); None keeps the canonical
    ascending order."""
    schedule = session.schedule
    order = schedule.order
    if order_seed is not None:
        rng = random.Random(order_seed)
        rng.shuffle(order := list(order))
        for i, (S, txs) in enumerate(order):
            rng.shuffle(txs := list(txs))
            order[i] = (S, tuple(txs))
        order = tuple(order)  # the compiled slices are kept for this order
    census = _census(session)
    for S, txs in order if any(map(itemgetter(0), census.values())) else ():
        gs = schedule[S]
        for tx, (k, (T, _, _)) in product(txs, zip(gs.receivers, gs.spans)):
            if k != tx and T in census[tx][0]:
                raise IntegrityError(f"transmitter {tx} does not cache subfile {T}")
    B = session.bytes_per_packet
    sent, _ = schedule.broadcast(order, session.files, session.demand, B)
    session.transcript = transcript = Transcript(order, sent, schedule, B)
    return transcript


def simulate(
    plan: SchemePlan,
    files: Sequence[bytes],
    demand: Sequence[int],
    order_seed: int | None = None,
) -> Session:
    demand_t = tuple(map(int, demand))
    if len(demand_t) != plan.K or any(not 1 <= d <= plan.N for d in demand_t):
        raise ValueError(f"demand must list {plan.K} file indices in 1..{plan.N}")
    caches = place(plan, files)
    schedule = _compile_schedule(plan)
    session = Session(plan, caches[1].files, demand_t, caches[1].B, schedule, caches)
    deliver(session, order_seed=order_seed)
    return session


def decode_and_verify(session: Session) -> VerifyResult:
    """Replay the transcript at every user and check bit-exact recovery.

    Counters depend only on the messages of the same group before, so a
    ``Message`` list is regrouped, group by group, in transcript order
    within each; a ``Transcript`` already is.  Receiver k recovers the
    payload XOR the other terms, its demanded packets exactly when the
    payload is the XOR of all terms: so one comparison of the whole
    broadcast with the schedule's, for the order received, checks every
    receiver, and wrong messages are sought only when that fails.  Only
    users whose cache breaks the placement rule have side information
    checked per message.  Recovered packets are counted, and listed only
    for a user that falls short.
    """
    plan, demand, schedule = session.plan, session.demand, session.schedule
    B = session.bytes_per_packet
    census = _census(session)
    deviant = {k for k, (lacking, foreign, _) in census.items() if lacking or foreign}
    if isinstance(tr := session.transcript, Transcript):
        order, sent = tr.order, tr.broadcast
    else:
        txs: dict[tuple[int, ...], list[int]] = {}  # per group, in first-seen order
        payloads: dict[tuple[int, ...], list[bytes]] = {}
        for m in tr:
            if (z := schedule.z.get(m.group)) and len(m.payload) != z * B:
                raise IntegrityError(
                    f"message of {len(m.payload)} bytes in a group sending {z * B}"
                )
            txs.setdefault(m.group, []).append(m.tx)
            payloads.setdefault(m.group, []).append(m.payload)
        order = list(zip(txs, map(tuple, txs.values())))
        sent = b"".join(chain.from_iterable(payloads.values()))
    # raises for unserved groups and overrun counters
    expected, decoded = schedule.broadcast(order, session.files, demand, B)
    for S, senders in order if deviant else ():
        gs = schedule[S]
        for tx, (k, (T_own, _, _)) in product(senders, zip(gs.receivers, gs.spans)):
            if k == tx or k not in deviant:
                continue
            lacking, foreign, _ = census[k]
            if T_own in foreign:
                raise IntegrityError(
                    f"user {k} decoded subfile {T_own} of file {demand[k - 1]}, "
                    f"already cached"
                )
            if any(T in lacking for u, (T, _, _) in zip(gs.receivers, gs.spans) if u != tx):
                raise IntegrityError(
                    f"user {k} lacks side information for the message {tx} "
                    f"sends in group {S}"
                )
    wrong: set[int] = set()  # users that recovered some packet incorrectly
    at = 0
    for S, senders in order if sent != expected else ():
        size = schedule.z[S] * B
        for tx in senders:
            # a Transcript's broadcast of another length: cut the message it ends in
            if at + size > len(sent) or at + size == len(expected) != len(sent):
                raise IntegrityError(
                    f"message of {len(sent) - at} bytes in a group sending {size}"
                )
            if sent[at : at + size] != expected[at : at + size]:
                wrong.update(filter(tx.__ne__, schedule[S].receivers))
            at += size

    per_user: dict[int, bool] = {}
    missing: dict[int, list[PacketKey]] = {}
    # Counts are exact: a decoded subset has one receiver entry whose counter
    # stays in it, and a held subset sent to its user raised above.
    for k in range(1, plan.K + 1):
        if decoded[k] + census[k][2] != plan.f_pt:
            got = {}  # per subset, how many of its packets k recovered
            for S, senders in order:
                if k in (gs := schedule[S]).receivers:
                    T = gs.spans[gs.receivers.index(k)][0]
                    got[T] = gs.z * (len(senders) - senders.count(k))
            got.update((T, plan.subset_map[T][1]) for T in session.caches[k].held)
            missing[k] = [
                (demand[k - 1], T, i + 1)
                for T, (_, alpha) in plan.subset_map.items()
                for i in range(got.get(T, 0), alpha)
            ]
        per_user[k] = k not in missing and k not in wrong
    return VerifyResult(all(per_user.values()), per_user, missing)


def measure(session: Session) -> Measurement:
    tr = session.transcript
    if isinstance(tr, Transcript):
        sent = len(tr.broadcast)
    else:
        sent = sum(map(len, map(attrgetter("payload"), tr)))
    bits = 8 * session.bytes_per_packet * len(session.files)  # per packet held
    cache_bits = {bits * n for *_, n in _census(session).values()}
    if len(cache_bits) != 1:
        raise IntegrityError(f"caches are not uniform: {sorted(cache_bits)}")
    return Measurement(
        total_bits=8 * sent,
        rate=Fraction(sent, len(session.files[0])),
        per_user_cache_bits=cache_bits.pop(),
        message_count=len(tr),
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
