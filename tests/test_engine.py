"""End-to-end engine checks: placement, XOR delivery, decoding, accounting.

The sharpest oracle is `run_jcm`, a from-scratch reference implementation of
the classic single-group scheme that shares no code with the planning
pipeline; with the trivial grouping the engine must reproduce its transcript
byte for byte.
"""

import ast
import hashlib
import os
import random
import subprocess
import sys
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

import ptcache
from conftest import roundtrip_design, unique_set_members
from ptcache.combinat import subsets
from ptcache.designs import (
    dpda_specials,
    jcm_design,
    special_designs,
    theorem1_design,
    theorem2_design,
    theorem3_design,
)
from ptcache.engine import (
    CacheView,
    IntegrityError,
    Schedule,
    SchemePlan,
    Session,
    Transcript,
    VerifyResult,
    build_plan,
    decode_and_verify,
    deliver,
    measure,
    place,
    plan_json,
    rules_from_json,
    simulate,
    transcript_jsonl,
)
from ptcache.fscalc import PlanError, analyze_rules
from ptcache.jcm import _xor, run_jcm
from ptcache.typevec import TypeVector, type_of


def make_files(n_files, length, seed=7):
    rng = random.Random(seed)
    return tuple(rng.randbytes(length) for _ in range(n_files))


def reordered(session, seed):
    """The messages of ``session``'s demand sent with its groups, and then
    each group's transmitters, shuffled by ``random.Random(seed)``: a
    ``Message`` list, which is decoded in the order received."""
    rng = random.Random(seed)
    schedule = session.plan.schedule
    rng.shuffle(order := list(schedule.order))
    for i, (S, txs) in enumerate(order):
        rng.shuffle(txs := list(txs))
        order[i] = (S, tuple(txs))
    shuffled = Schedule(tuple(order), schedule.z, schedule.span_of, schedule.bit)
    B = session.bytes_per_packet
    sent, _ = shuffled.broadcast(shuffled.order, session.files, session.demand, B)
    return list(Transcript(sent, shuffled, B))


# ------------------------------------------------- four users, two files


@pytest.fixture(scope="module")
def four_user_session():
    ds = theorem2_design(4, 2)
    plan = build_plan(4, 2, 1, ds.grouping_sizes, ds.tx_rules)
    files = make_files(2, plan.f_pt)
    return simulate(plan, files, demand=(1, 2, 2, 1))


class TestFourUserRegression:
    """The smallest interesting instance: K=4, N=2, M=1."""

    @pytest.fixture
    def session(self, four_user_session):
        return four_user_session

    def test_counts(self, session):
        assert session.plan.f_pt == 4
        m = measure(session)
        assert m.rate == 1
        assert m.message_count == 4
        assert m.total_bits == 8 * len(session.files[0])

    def test_lone_half_member_transmits(self, session):
        txs = {msg.group: msg.tx for msg in session.transcript}
        assert txs == {
            (1, 2, 3): 3,
            (1, 2, 4): 4,
            (1, 3, 4): 1,
            (2, 3, 4): 2,
        }
        for msg in session.transcript:
            assert len(msg.terms) == 2
            assert len(msg.payload) == 1  # z=1, one byte per packet

    def test_xor_of_the_two_cached_packets(self, session):
        # every payload equals the XOR of what the two receivers want,
        # reconstructed here straight from the files
        plan = session.plan
        for msg in session.transcript:
            want = b"\0"
            for (k2, T, c) in msg.terms:
                base, _ = plan.subset_map[T]
                n = session.demand[k2 - 1]
                byte = session.files[n - 1][base + c]
                want = bytes([want[0] ^ byte])
            assert msg.payload == want

    def test_user1_caches_only_cross_half_pairs(self, session):
        keys = {(n, T) for (n, T, _) in session.caches[1]}
        assert keys == {(n, T) for n in (1, 2) for T in [(1, 3), (1, 4)]}

    def test_decodes(self, session):
        res = decode_and_verify(session)
        assert res.ok
        assert res.missing == {}


# ------------------------------------------- nine users, three-way groups


@pytest.fixture(scope="module")
def nine_user_session():
    ds = special_designs("tbar3", 9)
    plan = build_plan(9, 3, 2, ds.grouping_sizes, ds.tx_rules)
    files = make_files(3, plan.f_pt)
    return simulate(plan, files, demand=(1, 2, 3, 1, 2, 3, 1, 2, 3))


class TestNineUserRegression:
    """K=9, N=3, M=2 with groups of three; checks the broadcast anatomy."""

    @pytest.fixture
    def session(self, nine_user_session):
        return nine_user_session

    def test_plan_numbers(self, session):
        plan = session.plan
        assert plan.f_pt == 270
        a = plan.analysis
        assert a.factor_of(TypeVector.parse("2,2,2")) == 4
        assert a.factor_of(TypeVector.parse("3,2,1")) == 3
        assert TypeVector.parse("3,3,0") in a.excluded
        # both realizable group types carry transmissions here
        assert not a.skipped_group_types

    def test_single_transmitter_group(self, session):
        [msg] = [m for m in session.transcript if m.group == tuple(range(1, 8))]
        assert msg.tx == 7
        assert len(msg.terms) == 6
        assert len(msg.payload) == 3  # z=3 packets
        assert {k for k, _, _ in msg.terms} == set(range(1, 7))
        # everyone's desired subfile for this group has three packets,
        # delivered in one shot
        assert all(c == 0 for _, _, c in msg.terms)

    def test_four_transmitter_group(self, session):
        S = (1, 2, 3, 4, 5, 7, 8)
        msgs = [m for m in session.transcript if m.group == S]
        assert [m.tx for m in msgs] == [4, 5, 7, 8]
        per_user = {}
        for m in msgs:
            assert len(m.payload) == 1  # z=1
            kinds = sorted(
                type_of(session.plan.grouping, T).text() for _, T, _ in m.terms
            )
            assert kinds == ["2,2,2"] * 3 + ["3,2,1"] * 3
            for k, _, c in m.terms:
                per_user.setdefault(k, []).append(c)
        # the three outsiders collect four packets, the transmitters three
        for k in (1, 2, 3):
            assert per_user[k] == [0, 1, 2, 3]
        for k in (4, 5, 7, 8):
            assert per_user[k] == [0, 1, 2]

    def test_cache_split_by_type(self, session):
        plan = session.plan
        by_type = {}
        for (n, T, i) in session.caches[1]:
            key = type_of(plan.grouping, T).text()
            by_type[key] = by_type.get(key, 0) + 1
        assert by_type == {"2,2,2": 216, "3,2,1": 324}
        m = measure(session)
        # 540 cached packets = 2 files' worth
        assert m.per_user_cache_bits == 2 * 8 * len(session.files[0])

    def test_decodes_with_half_rate(self, session):
        assert decode_and_verify(session).ok
        from fractions import Fraction

        assert measure(session).rate == Fraction(1, 2)


# ------------------------------------------------------- reference oracle


def test_trivial_grouping_reproduces_reference_exactly():
    for K, N, M in [(4, 2, 1), (4, 4, 2), (5, 5, 2), (6, 3, 1), (6, 3, 2)]:
        t = K * M // N
        ds = jcm_design(K, t)
        plan = build_plan(K, N, M, ds.grouping_sizes, ds.tx_rules)
        files = make_files(N, plan.f_pt, seed=K * 100 + M)
        rng = random.Random(K + N + M)
        demand = tuple(rng.randrange(1, N + 1) for _ in range(K))
        session = simulate(plan, files, demand)
        ref = run_jcm(K, N, M, files, demand)
        assert ref.all_decoded
        assert list(session.transcript) == ref.transcript  # same order, same bytes
        m = measure(session)
        assert m.total_bits == ref.total_bits
        assert m.per_user_cache_bits == ref.per_user_cache_bits


def test_reference_three_user_broadcast():
    """K=N=3, M=2: one group, three pairwise-coded messages."""
    f1 = bytes([1, 2, 3, 4, 5, 6])
    f2 = bytes([11, 12, 13, 14, 15, 16])
    f3 = bytes([21, 22, 23, 24, 25, 26])
    res = run_jcm(3, 3, 2, (f1, f2, f3), demand=(1, 2, 3))
    assert res.all_decoded
    assert len(res.transcript) == 3
    assert [m.tx for m in res.transcript] == [1, 2, 3]
    assert res.transcript[0].payload == bytes([f2[2] ^ f3[0]])
    assert res.transcript[1].payload == bytes([f1[4] ^ f3[1]])
    assert res.transcript[2].payload == bytes([f1[5] ^ f2[3]])
    from fractions import Fraction

    assert res.rate == Fraction(1, 2)  # K(N-M)/(Nt) = 3/(3*2)


# --------------------------------------------------------- property style


DESIGN_POOL = [
    (theorem2_design(4, 2), 2, 1),
    (theorem1_design(6, 2), 3, 2),
    (special_designs("k5_t3", 5), 5, 3),
    (dpda_specials("t2", 6), 6, 2),
    (special_designs("lemma2", 8, q=2), 4, 3),
    (theorem3_design(3, 3, 2), 9, 2),
]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, len(DESIGN_POOL) - 1),
    st.integers(0, 2 ** 31),
    st.integers(1, 2),
)
def test_any_demand_decodes_and_accounts_exactly(idx, seed, B):
    ds, N, M = DESIGN_POOL[idx]
    plan, session, res = roundtrip_design(
        ds, N=N, M=M, bytes_per_packet=B, seed=seed
    )
    assert res.ok, res.missing
    m = measure(session)
    L_bits = 8 * len(session.files[0])
    # delivered bits: K*(1-M/N)*L/t, exactly
    assert m.total_bits * plan.N * plan.t == plan.K * (plan.N - plan.M) * L_bits
    assert m.rate == plan.rate
    assert m.per_user_cache_bits == plan.M * L_bits
    for msg in session.transcript:
        assert msg.terms  # no vacuous broadcasts
        assert len(msg.payload) == session.bytes_per_packet * plan.analysis.z_of[
            type_of(plan.grouping, msg.group)
        ]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, len(DESIGN_POOL) - 1), st.integers(0, 2 ** 31))
def test_delivery_order_is_irrelevant(idx, order_seed):
    ds, N, M = DESIGN_POOL[idx]
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    files = make_files(N, plan.f_pt, seed=3)
    demand = tuple((i % N) + 1 for i in range(ds.K))
    canonical = simulate(plan, files, demand)
    shuffled = simulate(plan, files, demand)
    shuffled.transcript = reordered(shuffled, order_seed)
    assert decode_and_verify(shuffled).ok
    assert measure(shuffled).total_bits == measure(canonical).total_bits
    assert measure(shuffled).message_count == measure(canonical).message_count


def test_traffic_is_demand_independent():
    ds, N, M = DESIGN_POOL[2]
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    files = make_files(N, plan.f_pt)
    seen = {
        measure(simulate(plan, files, demand)).total_bits
        for demand in [(1,) * 5, (1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (2, 2, 4, 4, 1)]
    }
    assert len(seen) == 1


# ----------------------------------------------------------- serialization


def test_plan_json_fields():
    ds = theorem2_design(6, 2)
    plan = build_plan(6, 3, 1, ds.grouping_sizes, ds.tx_rules)
    data = plan_json(plan)
    assert data["schema_version"] == "1"
    assert data["F_PT"] == plan.f_pt
    assert (data["K"], data["N"], data["M"], data["t"]) == (6, 3, 1, 2)
    assert data["global_fs"]["factors"] == list(plan.analysis.global_fs.factors)
    assert rules_from_json(data["tx_rules"]) == plan.analysis.tx_rules


def test_rules_from_json_rejects_malformed_rules():
    for rules in ([1, 2], {"2,1": 2}, {"2,1": ["2"]}, {"2;1": [2]}):
        with pytest.raises(ValueError):
            rules_from_json(rules)


def test_transcript_jsonl_shape():
    ds = theorem2_design(4, 2)
    plan = build_plan(4, 2, 1, ds.grouping_sizes, ds.tx_rules)
    files = make_files(2, plan.f_pt)
    session = simulate(plan, files, (1, 1, 2, 2))
    text = transcript_jsonl(session.transcript)
    import json

    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == 4
    for rec in lines:
        assert set(rec) == {"tx", "group", "rx", "counter_snapshot", "payload_hex"}
        assert rec["tx"] not in rec["rx"]
        assert set(rec["rx"]) < set(rec["group"])
        bytes.fromhex(rec["payload_hex"])
    assert transcript_jsonl([]) == ""


@pytest.mark.parametrize(
    "ds,N,M,order_seed,digest",
    [
        (theorem2_design(4, 2), 2, 1, None,
         "ad8cdd61e0e0dbd70431710596653bf3046ef011ab63520486ab42f75967c219"),
        (special_designs("tbar3", 9), 3, 2, None,
         "c0878229596396b0d798ac24e71d9f6c04f1f7d705f751a0f2ff011cace52a70"),
        (special_designs("tbar3", 9), 3, 2, 5,
         "7fba9cee86da50a2dfc2bcd8c62c971ba1ded9dc80f8904184c273acf6ef3ac5"),
        (special_designs("tbar3", 9), 3, 2, 4,
         "07ae79f07e837695d6dcc227e4f00cb621fbe9756497acf919c45d84a874728c"),
        (theorem2_design(8, 4), 8, 4, None,
         "4f6d35c88123ef7ed63df02aad9558fbae28a2bd57461eae7df628f57d08c695"),
        (theorem2_design(8, 4), 8, 4, 4,
         "f64e5d763e74996c972ec92437a0cce7b456248da7989cb572566655d9f14687"),
    ],
)
def test_transcript_bytes_are_pinned(ds, N, M, order_seed, digest):
    """The JSONL transcript of fixed files and demand, byte for byte; with an
    order seed, that of its messages sent in the seeded order."""
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    rng = random.Random(7)
    files = [rng.randbytes(plan.f_pt * 2) for _ in range(N)]
    demand = [rng.randrange(1, N + 1) for _ in range(plan.K)]
    session = simulate(plan, files, demand)
    if order_seed is not None:
        session.transcript = reordered(session, order_seed)
    text = transcript_jsonl(session.transcript)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ------------------------------------------------------------ error paths


def stage_of(excinfo):
    return excinfo.value.stage


def test_plan_error_stages():
    ds = theorem2_design(4, 2)
    with pytest.raises(PlanError) as e:
        build_plan(4, 3, 2, ds.grouping_sizes, ds.tx_rules)
    assert stage_of(e) == "params"
    with pytest.raises(PlanError) as e:
        build_plan(4, 2, 3, ds.grouping_sizes, ds.tx_rules)
    assert stage_of(e) == "params"
    with pytest.raises(PlanError) as e:
        analyze_rules(4, 2, (5,), {})
    assert stage_of(e) == "grouping"
    with pytest.raises(PlanError) as e:
        analyze_rules(4, 2, (2, 2), {})
    assert stage_of(e) == "rules"
    with pytest.raises(PlanError) as e:
        analyze_rules(4, 2, (2, 2), {TypeVector.parse("2,1"): [7]})
    assert stage_of(e) == "rules"


def test_plan_error_skip_stage():
    # marking a group type skip while its subfile type stays live
    rules = {
        TypeVector.parse("1,1"): [1],
        TypeVector.parse("2,0"): None,
    }
    with pytest.raises(PlanError) as e:
        analyze_rules(4, 1, (2, 2), rules)
    assert stage_of(e) == "skip"


def test_plan_error_mc_stage():
    rules = {
        TypeVector.parse("3|0"): [1],
        TypeVector.parse("2|1"): [1],
    }
    with pytest.raises(PlanError) as e:
        analyze_rules(4, 2, (3, 1), rules)
    assert stage_of(e) == "mc"
    assert "unequal" in str(e.value)


def test_plan_error_lcm_stage():
    # three group types form a ratio cycle that cannot be reconciled
    rules = {
        TypeVector.parse("2,1|0"): [1],
        TypeVector.parse("1,1|1"): [1],
        TypeVector.parse("2,0|1"): [1],
    }
    with pytest.raises(PlanError) as e:
        analyze_rules(5, 2, (2, 2, 1), rules)
    assert stage_of(e) == "lcm"


def test_plan_error_rate_stage():
    # the half-pair's lone member excludes its own type by transmitting
    # alone in one group type, but in another group type the idle singleton
    # would sit among the receivers of the pair's messages, so those
    # messages carry fewer than t terms and the delivery over-transmits
    rules = {
        TypeVector.parse("2,1|0"): [2],
        TypeVector.parse("1,1|1"): [1, 2],
        TypeVector.parse("2,0|1"): [1],
    }
    with pytest.raises(PlanError) as e:
        analyze_rules(5, 2, (2, 2, 1), rules)
    assert stage_of(e) == "rate"
    assert "transmit alone" in str(e.value)


def test_place_validates_files():
    ds = theorem2_design(4, 2)
    plan = build_plan(4, 2, 1, ds.grouping_sizes, ds.tx_rules)
    with pytest.raises(ValueError):
        place(plan, [b"abcd"])  # wrong count
    with pytest.raises(ValueError):
        place(plan, [b"abcd", b"ab"])  # ragged
    with pytest.raises(ValueError):
        place(plan, [b"abcde", b"fghij"])  # 5 bytes over 4 packets
    caches = place(plan, [b"abcd", b"wxyz"])
    assert len(caches) == 4


def test_simulate_validates_demand():
    ds = theorem2_design(4, 2)
    plan = build_plan(4, 2, 1, ds.grouping_sizes, ds.tx_rules)
    files = make_files(2, 4)
    with pytest.raises(ValueError):
        simulate(plan, files, (1, 2))
    with pytest.raises(ValueError):
        simulate(plan, files, (1, 2, 3, 1))


# ------------------------------------------------- cache views and decoding


DATA_PLANE_CASES = [
    # design, N, M, and the packets each user misses without the final message
    (special_designs("tbar3", 9), 3, 2, {k: 3 for k in range(4, 10)}),
    (theorem2_design(4, 2), 2, 1, {3: 1, 4: 1}),
]


def data_plane_session(ds, N, M, order_seed=None):
    """A simulated session; with an order seed, its transcript is the list
    of its messages sent in the seeded order."""
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    files = make_files(N, 2 * plan.f_pt)
    demand = tuple((k % N) + 1 for k in range(ds.K))
    session = simulate(plan, files, demand)
    if order_seed is not None:
        session.transcript = reordered(session, order_seed)
    return session


@pytest.mark.parametrize("ds,N,M,_", DATA_PLANE_CASES)
def test_cache_view_equals_per_packet_copy(ds, N, M, _):
    """Each user's cache holds, in order, exactly the packets a per-packet
    copy of every cached subfile would hold, and raises KeyError for a
    subset its user does not hold, a file index outside 1..N and a packet
    index outside the subfile."""
    session = data_plane_session(ds, N, M)
    plan, B = session.plan, session.bytes_per_packet
    for k in range(1, plan.K + 1):
        copy = {}
        for T, (base, alpha) in plan.subset_map.items():
            if k in T:
                for n in range(1, plan.N + 1):
                    blob = session.files[n - 1][base * B : (base + alpha) * B]
                    for i in range(alpha):
                        copy[(n, T, i + 1)] = blob[i * B : (i + 1) * B]
        cache = session.caches[k]
        assert list(cache.items()) == list(copy.items())
        assert len(cache) == len(copy)
        assert dict(cache) == copy
        T_in = next(T for T in plan.subset_map if k in T)
        T_out = next(T for T in plan.subset_map if k not in T)
        alpha = plan.subset_map[T_in][1]
        for key in [(1, T_out, 1), (0, T_in, 1), (plan.N + 1, T_in, 1),
                    (1, T_in, 0), (1, T_in, alpha + 1)]:
            with pytest.raises(KeyError):
                cache[key]
            assert key not in cache


@pytest.mark.parametrize("ds,N,M,final_loss", DATA_PLANE_CASES)
def test_dropped_message_leaves_exactly_its_packets_missing(ds, N, M, final_loss):
    session = data_plane_session(ds, N, M)
    full = session.transcript
    z_of, g = session.plan.analysis.z_of, session.plan.grouping
    for S in (full[-1].group, full[len(full) // 2].group):
        drop = max(i for i, m in enumerate(full) if m.group == S)  # last of S
        msg = full[drop]
        z = z_of[type_of(g, S)]
        want = {
            k: [(session.demand[k - 1], T, c * z + j + 1) for j in range(z)]
            for k, T, c in msg.terms
        }
        session.transcript = full[:drop] + full[drop + 1 :]
        res = decode_and_verify(session)
        assert res.missing == want
        assert res.per_user == {k: k not in want for k in res.per_user}
        if drop == len(full) - 1:
            assert {k: len(v) for k, v in res.missing.items()} == final_loss


@pytest.mark.parametrize("ds,N,M,_", DATA_PLANE_CASES)
def test_flipped_payload_byte_fails_exactly_its_receivers(ds, N, M, _):
    session = data_plane_session(ds, N, M)
    i = len(session.transcript) // 3
    msgs = list(session.transcript)
    msg = msgs[i]
    flipped = bytes([msg.payload[0] ^ 0x5A]) + msg.payload[1:]
    msgs[i] = msg._replace(payload=flipped)
    session.transcript = msgs
    res = decode_and_verify(session)
    receivers = {k for k, T, c in msg.terms}
    assert res.per_user == {k: k not in receivers for k in res.per_user}
    assert res.missing == {}


def reference_decode(session):
    """The per-message, per-receiver decoder that ``decode_and_verify``
    replaced: its own counter replay, and each receiver's packets recovered
    as the payload XOR every other term, checked against its demanded file.
    Each group's split factor and receivers come from the plan's analysis
    and packet map, not from the session's schedule."""
    plan, demand, B = session.plan, session.demand, session.bytes_per_packet
    a = plan.analysis
    wanted = [session.files[n - 1] for n in demand]
    got = {k: bytearray(plan.f_pt) for k in range(1, plan.K + 1)}
    wrong = set()
    counters = {}
    for msg in session.transcript:
        S = msg.group
        gtype = type_of(plan.grouping, S) if len(S) == plan.t + 1 else None
        if gtype in a.skipped_group_types or a.tx_rules.get(gtype) is None:
            raise IntegrityError(f"unserved group {S}")
        z = a.z_of[gtype]
        # each member whose subset, S without it, holds packets
        receivers = [
            (k, T) for k in S if (T := tuple(u for u in S if u != k)) in plan.subset_map
        ]
        cnt = counters.setdefault(S, [0] * len(receivers))
        terms = []  # (receiver, subset, first packet)
        for j, (k, T) in enumerate(receivers):
            base, alpha = plan.subset_map[T]
            if k != msg.tx:
                if (cnt[j] + 1) * z > alpha:
                    raise IntegrityError(f"counter overran {T}")
                terms.append((k, T, base + cnt[j] * z))
                cnt[j] += 1
        size = z * B
        if len(msg.payload) != size:
            raise IntegrityError("payload length")

        def packets(k, first):
            return int.from_bytes(wanted[k - 1][first * B : first * B + size], "big")

        for k, T_own, first in terms:
            held = session.caches[k].held
            if T_own in held:
                raise IntegrityError(f"user {k} already caches {T_own}")
            acc = int.from_bytes(msg.payload, "big")
            for k2, T, f2 in terms:
                if k2 != k:
                    if T not in held:
                        raise IntegrityError(f"user {k} lacks {T}")
                    acc ^= packets(k2, f2)
            if acc != packets(k, first):
                wrong.add(k)
            got[k][first : first + z] = b"\1" * z
    per_user, missing = {}, {}
    for k in range(1, plan.K + 1):
        for T in session.caches[k].held:
            base, alpha = plan.subset_map[T]
            got[k][base : base + alpha] = b"\1" * alpha
        if 0 in got[k]:
            missing[k] = [
                (demand[k - 1], T, i + 1)
                for T, (base, alpha) in plan.subset_map.items()
                for i in range(alpha)
                if not got[k][base + i]
            ]
        per_user[k] = k not in missing and k not in wrong
    return VerifyResult(ok=all(per_user.values()), per_user=per_user, missing=missing)


EDIT_SESSIONS = {
    name: data_plane_session(ds, N, M, order_seed)
    for name, ds, N, M, order_seed in [
        ("tbar3-K9", special_designs("tbar3", 9), 3, 2, None),
        ("thm2-K8-t4", theorem2_design(8, 4), 8, 4, None),
        # 3-transmitter groups
        ("thm3-m3-q3-t2", theorem3_design(3, 3, 2), 9, 2, None),
        # groups and transmitters in shuffled order
        ("thm3-m3-q3-t2-shuffled", theorem3_design(3, 3, 2), 9, 2, 6),
    ]
}


def session_copy(base, transcript):
    """A copy of session ``base`` with ``transcript``, whose caches can be
    edited without touching the caches of ``base``."""
    caches = {
        k: CacheView(c.subset_map, c.files, c.B, c.held) for k, c in base.caches.items()
    }
    return Session(base.plan, base.files, base.demand, base.bytes_per_packet,
                   caches, transcript)


@st.composite
def edited_session(draw):
    """A fresh copy of one of EDIT_SESSIONS with one to three edits: a message
    dropped (first, middle, last or any), duplicated or swapped with another,
    a payload byte flipped, a payload truncated, a subset removed from a
    user's cache, or a packet-map subset without the user added to it."""
    base = EDIT_SESSIONS[draw(st.sampled_from(sorted(EDIT_SESSIONS)))]
    s = session_copy(base, list(base.transcript))
    msgs = s.transcript
    for _ in range(draw(st.integers(1, 3))):
        if not msgs:
            break
        n = len(msgs)
        i = draw(st.one_of(st.sampled_from([0, n // 2, n - 1]), st.integers(0, n - 1)))
        edit = draw(st.sampled_from(
            ["drop", "duplicate", "swap", "flip", "truncate", "forget", "learn"]
        ))
        if edit == "drop":
            del msgs[i]
        elif edit == "duplicate":
            msgs.insert(draw(st.integers(0, n)), msgs[i])
        elif edit == "swap":
            j = draw(st.integers(0, n - 1))
            msgs[i], msgs[j] = msgs[j], msgs[i]
        elif edit in ("flip", "truncate") and not msgs[i].payload:
            continue  # truncated to nothing by an earlier edit
        elif edit == "flip":
            p = msgs[i].payload
            at = draw(st.integers(0, len(p) - 1))
            bit = 1 << draw(st.integers(0, 7))
            flipped = p[:at] + bytes([p[at] ^ bit]) + p[at + 1 :]
            msgs[i] = msgs[i]._replace(payload=flipped)
        elif edit == "truncate":
            p = msgs[i].payload
            msgs[i] = msgs[i]._replace(payload=p[: draw(st.integers(0, len(p) - 1))])
        elif edit == "forget":  # a receiver of message i forgets a subset it holds
            k = draw(st.sampled_from([k for k, _, _ in msgs[i].terms]))
            cache = s.caches[k]
            cache.held = cache.held - {draw(st.sampled_from(sorted(cache.held)))}
        else:  # a receiver of message i caches a subset without it, its own first
            k, T_own, _ = draw(st.sampled_from(msgs[i].terms))
            others = sorted(T for T in s.plan.subset_map if k not in T and T != T_own)
            cache = s.caches[k]
            cache.held = cache.held | {draw(st.sampled_from([T_own, *others]))}
    return s


def outcome(decode, session):
    try:
        return decode(session)
    except Exception as e:  # compared by class
        return type(e)


@settings(max_examples=150, deadline=None)
@given(session=edited_session())
def test_decoder_agrees_with_reference_on_edited_transcripts(session):
    """On any edited transcript or cache, ``decode_and_verify`` returns the
    reference decoder's VerifyResult or raises the exception it raises."""
    assert outcome(decode_and_verify, session) == outcome(reference_decode, session)


@pytest.mark.parametrize("name", sorted(EDIT_SESSIONS))
def test_reference_decoder_accepts_the_unedited_transcripts(name):
    session = EDIT_SESSIONS[name]
    assert reference_decode(session) == decode_and_verify(session)
    assert reference_decode(session).ok


def edited_copy(name, keep):
    """A copy of EDIT_SESSIONS[name] whose transcript is the messages for
    which ``keep`` holds, and whose caches can be edited."""
    base = EDIT_SESSIONS[name]
    return session_copy(base, [m for m in base.transcript if keep(m)])


def test_decoder_counts_a_cached_subset_of_a_silent_group():
    """A receiver that caches its own subset in a group whose messages were
    all dropped raises nothing and still decodes: the count takes the
    subset's packets from its cache, not from the group."""
    S = (1, 2, 3, 4, 5)
    s = edited_copy("thm2-K8-t4", lambda m: m.group != S)
    k, T_own = 1, (2, 3, 4, 5)
    assert k in dict(s.plan.schedule.receivers(S)) and T_own in s.plan.subset_map
    s.caches[k].held |= {T_own}
    res = decode_and_verify(s)
    assert res == reference_decode(s)
    assert res.per_user[k] and k not in res.missing
    assert set(res.missing) == set(dict(s.plan.schedule.receivers(S))) - {k}


def test_decoder_counts_a_duplicated_message_of_three_transmitters():
    """In a thm3(3,3,2) group of three transmitters, the first message sent
    twice and the other two dropped: its copy counts as the next packets
    of the other receivers, who recover them wrongly, and its sender gets
    nothing of its subset."""
    S = (1, 4, 7)
    first = next(m for m in EDIT_SESSIONS["thm3-m3-q3-t2"].transcript if m.group == S)
    s = edited_copy("thm3-m3-q3-t2", lambda m: m.group != S)
    s.transcript += [first, first]
    assert dict(s.plan.schedule.order)[S] == S
    res = decode_and_verify(s)
    assert res == reference_decode(s)
    assert {k for k, ok in res.per_user.items() if not ok} == set(S)
    T = tuple(u for u in S if u != first.tx)
    want = s.demand[first.tx - 1]
    assert res.missing == {
        first.tx: [(want, T, i + 1) for i in range(s.plan.subset_map[T][1])]
    }


def test_decoder_lists_the_packets_of_a_forgotten_subset():
    """User 1 forgets a subset it caches, and every message that carries
    that subset is dropped, so nothing asks user 1 for it: user 1 misses
    exactly the forgotten subset's packets and those of the dropped groups
    it would have decoded."""
    k, T = 1, (1, 2, 3, 4)
    s = edited_copy("thm2-K8-t4", lambda m: not set(T) <= set(m.group))
    s.caches[k].held -= {T}
    res = decode_and_verify(s)
    assert res == reference_decode(s)
    lost = {T} | {
        U for U in s.plan.subset_map if k not in U and set(T) - {k} <= set(U)
    }
    assert res.missing[k] == [
        (s.demand[k - 1], U, i + 1)
        for U, (_, alpha) in s.plan.subset_map.items()
        if U in lost
        for i in range(alpha)
    ]


def test_schedule_shares_the_packet_maps_spans():
    """The schedule holds no per-group receivers: every group that sends a
    subset reads, through ``receivers``, one shared span object for it,
    whose subset is the packet map's own key."""
    ds = theorem2_design(8, 4)
    plan = build_plan(8, 8, 4, ds.grouping_sizes, ds.tx_rules)
    schedule = plan.schedule
    spans = [span for S, _ in schedule.order for _, span in schedule.receivers(S)]
    assert len({id(span) for span in spans}) == len({span[0] for span in spans})
    keys = {id(T) for T in plan.subset_map}
    assert all(id(span[0]) in keys for span in spans)
    assert len(spans) > len({id(span) for span in spans})


def test_schedule_types_each_intersection_profile_once(monkeypatch):
    """A plan's first simulation compiles its delivery schedule typing one
    group per intersection profile (the number of members in each user
    group), not every group; later simulations of the plan type none, and
    give the transcripts of a freshly built plan."""
    ds = special_designs("tbar3", 9)
    plan = build_plan(ds.K, 3, 2, ds.grouping_sizes, ds.tx_rules)
    plan.subset_map  # built on first read, typing the t-subsets' profiles
    files = make_files(3, 2 * plan.f_pt)
    g = plan.grouping
    profiles = {
        tuple(sum(g.group_of[u] == b for u in S) for b in range(len(g.sizes)))
        for S in subsets(ds.K, plan.t + 1)
    }
    calls = []

    def counting_type_of(g, subset):
        calls.append(subset)
        return type_of(g, subset)

    monkeypatch.setattr(ptcache.engine, "type_of", counting_type_of)
    rng = random.Random(11)
    typed = []  # type_of calls made by each simulation of ``plan``
    for _ in range(3):
        demand = tuple(rng.randint(1, 3) for _ in range(ds.K))
        before = len(calls)
        session = simulate(plan, files, demand)
        assert decode_and_verify(session).ok
        typed.append(len(calls) - before)
        fresh = build_plan(ds.K, 3, 2, ds.grouping_sizes, ds.tx_rules)
        expected = simulate(fresh, files, demand)
        assert transcript_jsonl(session.transcript) == transcript_jsonl(
            expected.transcript
        )
    assert typed == [len(profiles), 0, 0]


def test_one_gather_per_user_per_demand(monkeypatch):
    """A demand costs one gather per user, over that user's demanded file.
    The plan's schedule compiles the slices of its send order once: a
    second delivery and decoding the unedited transcript reuse them.  A
    message list is decoded in the order received: regrouped by group, its
    messages' transmitters in transcript order, also once a message or a
    whole group's messages are dropped, and a transcript with dropped
    messages still fails decoding."""
    ds = special_designs("tbar3", 9)
    plan = build_plan(ds.K, 3, 2, ds.grouping_sizes, ds.tx_rules)
    files = make_files(3, 2 * plan.f_pt)
    demand = (1, 2, 3, 1, 2, 3, 1, 2, 3)
    session = simulate(plan, files, demand)
    schedule = plan.schedule
    compiled = schedule.compiled
    wanted = [files[n - 1] for n in demand]  # user k's at k - 1
    gathered = []  # the file each gather reads beside the shared zero run
    real_cycle = ptcache.engine.cycle

    def counting_cycle(buffers):
        gathered.append(buffers[1])
        return real_cycle(buffers)

    def senders_by_group(transcript):
        by_group = {}
        for msg in transcript:
            by_group.setdefault(msg.group, []).append(msg.tx)
        return [(S, tuple(txs)) for S, txs in by_group.items()]

    monkeypatch.setattr(ptcache.engine, "cycle", counting_cycle)
    full = deliver(session)
    assert gathered == wanted
    assert list(schedule.order) == senders_by_group(full)
    assert schedule.compiled is compiled  # not compiled again
    gathered.clear()
    assert decode_and_verify(session).ok
    assert gathered == wanted
    assert schedule.compiled is compiled
    transmitters = dict(schedule.order)
    alone = next(m for m in full if len(transmitters[m.group]) == 1)
    several = next(m for m in full if len(transmitters[m.group]) > 1)
    for dropped in ([], [alone], [several], [alone, several]):
        session.transcript = [m for m in full if m not in dropped]
        gathered.clear()
        assert decode_and_verify(session).ok == (not dropped)
        assert gathered == wanted
        order = schedule.compiled[0]
        assert list(order) == senders_by_group(session.transcript)
        assert len(order) == len(schedule.order) - (alone in dropped)


@pytest.mark.parametrize("ds,N,M,_", DATA_PLANE_CASES)
def test_one_buffer_transcript_edits(ds, N, M, _):
    """A transcript keeps the broadcast as one byte string, its messages'
    payloads in send order.  Flipping one of its bytes marks wrong exactly
    the receivers of the message holding that byte, and every other user
    still decodes; a broadcast one byte short or long, or cut in half,
    raises IntegrityError."""
    session = data_plane_session(ds, N, M)
    transcript = session.transcript
    broadcast = transcript.broadcast
    msgs = list(transcript)
    assert b"".join(m.payload for m in msgs) == broadcast
    ends = list(accumulate(len(m.payload) for m in msgs))
    for at in (0, len(broadcast) // 3, len(broadcast) - 1):
        msg = msgs[bisect_right(ends, at)]
        flipped = broadcast[:at] + bytes([broadcast[at] ^ 0x5A]) + broadcast[at + 1 :]
        transcript.broadcast = flipped
        res = decode_and_verify(session)
        receivers = {k for k, _, _ in msg.terms}
        assert res.per_user == {k: k not in receivers for k in res.per_user}
        assert res.missing == {}
    size = len(msgs[-1].payload)
    for cut, got in [(broadcast[:-1], size - 1), (broadcast + b"\0", size + 1)]:
        transcript.broadcast = cut
        with pytest.raises(
            IntegrityError, match=rf"^message of {got} bytes in a group sending {size}$"
        ):
            decode_and_verify(session)
    transcript.broadcast = broadcast[: len(broadcast) // 2]
    with pytest.raises(IntegrityError, match="bytes in a group sending"):
        decode_and_verify(session)
    transcript.broadcast = broadcast
    assert decode_and_verify(session).ok


def test_transcript_index_builds_one_message(monkeypatch):
    """Indexing a transcript walks to message i, reading the schedule of
    its group alone, with list semantics: negative indices count from the
    end, an index out of range raises IndexError, and a slice is a list."""
    session = data_plane_session(special_designs("tbar3", 9), 3, 2)
    transcript = session.transcript
    msgs = list(transcript)
    reads = []
    real = Schedule.receivers

    def counting_read(self, S):
        reads.append(S)
        return real(self, S)

    monkeypatch.setattr(Schedule, "receivers", counting_read)
    for i in (0, -1, len(msgs) // 2, -len(msgs)):
        reads.clear()
        assert transcript[i] == msgs[i]
        assert reads == [msgs[i].group]
    for i in (len(msgs), -len(msgs) - 1):
        with pytest.raises(IndexError):
            transcript[i]
    assert transcript[1:4] == msgs[1:4] and transcript[-2:] == msgs[-2:]


def test_build_plan_types_each_subset_profile_once(monkeypatch):
    """``build_plan`` types no subset; the packet map, built on first read,
    types one t-subset per profile (the number of members in each user
    group), not every t-subset: tbar3(9) at t=6 has 84 subsets but 10
    profiles, and every subset still gets its type's factor."""
    ds = special_designs("tbar3", 9)
    calls = []

    def counting_type_of(g, subset):
        calls.append(subset)
        return type_of(g, subset)

    monkeypatch.setattr(ptcache.engine, "type_of", counting_type_of)
    plan = build_plan(ds.K, 3, 2, ds.grouping_sizes, ds.tx_rules)
    assert calls == [] and "subset_map" not in vars(plan)
    plan.subset_map
    g = plan.grouping
    profiles = {
        tuple(sum(g.group_of[u] == b for u in T) for b in range(len(g.sizes)))
        for T in subsets(ds.K, plan.t)
    }
    assert len(calls) == len(profiles) == 10
    for T in subsets(ds.K, plan.t):
        _, alpha = plan.subset_map.get(T, (None, 0))
        assert alpha == plan.analysis.factor_of(type_of(g, T))


def test_per_user_sets_are_built_on_the_first_place():
    """``design`` never reads a plan's per-user subset sets, so
    ``build_plan`` leaves them to the first ``place``."""
    ds = theorem2_design(8, 4)
    plan = build_plan(ds.K, 2, 1, ds.grouping_sizes, ds.tx_rules)
    assert "own" not in vars(plan)
    simulate(plan, make_files(2, 2 * plan.f_pt), (1, 2) * 4)
    assert "own" in vars(plan)
    for k, (held, count) in plan.own.items():
        assert held == {T for T in plan.subset_map if k in T}
        assert count == sum(plan.subset_map[T][1] for T in held)


def test_inconsistent_plan_raises_on_its_first_packet_map_read():
    """A plan whose F_PT disagrees with its types' factors raises
    IntegrityError when its packet map is first read, and differs from
    the plan it was edited from."""
    ds = theorem2_design(8, 4)
    plan = build_plan(ds.K, 2, 1, ds.grouping_sizes, ds.tx_rules)
    a = plan.analysis
    bad = SchemePlan(plan.K, plan.N, plan.M, plan.t, a._replace(f_pt=a.f_pt + 1), plan.rate)
    with pytest.raises(IntegrityError, match=rf"^packet map holds {a.f_pt} packets, "
                       rf"F_PT {a.f_pt + 1}$"):
        bad.subset_map
    assert len(plan.subset_map) > 0
    # plans compare field by field, whether or not their maps were read
    assert plan == build_plan(ds.K, 2, 1, ds.grouping_sizes, ds.tx_rules) != bad


def test_sending_group_type_marked_skip_is_an_integrity_error():
    """A group type the analysis let send, whose rule was then tampered to
    a skip, stops the schedule compile."""
    ds = theorem2_design(4, 2)
    plan = build_plan(ds.K, 2, 1, ds.grouping_sizes, ds.tx_rules)
    a = plan.analysis
    (sending,) = [gt for gt, sel in a.tx_rules.items() if sel is not None]
    bad = SchemePlan(plan.K, plan.N, plan.M, plan.t,
                     a._replace(tx_rules={**a.tx_rules, sending: None}), plan.rate)
    with pytest.raises(IntegrityError, match="sends but is marked skip"):
        simulate(bad, make_files(2, plan.f_pt), (1, 2, 2, 1))


def test_reference_rejects_bad_parameters():
    """``run_jcm`` refuses a fractional or out-of-range cache level, a bad
    demand vector and files of no whole number of packets; its XOR refuses
    chunks of unequal length."""
    files = make_files(4, 12)  # jcm(4, 2) has 2 * C(4, 2) = 12 packets
    for K, N, M, demand, message in [
        (4, 3, 2, (1, 2, 3, 1), r"K\*M/N = 4\*2/3 is not an integer"),
        (4, 4, 4, (1, 2, 3, 4), "need 1 <= t <= K-1, got t=4"),
        (4, 4, 2, (1, 2, 3), "bad demand vector"),
        (4, 4, 2, (1, 2, 3, 5), "bad demand vector"),
    ]:
        with pytest.raises(ValueError, match=message):
            run_jcm(K, N, M, files, demand)
    with pytest.raises(ValueError, match="file length 13 not a multiple of 12"):
        run_jcm(4, 4, 2, make_files(4, 13), (1, 2, 3, 4))
    with pytest.raises(IntegrityError, match="XOR of 2 and 1 bytes"):
        _xor(b"ab", b"a")


def test_schedule_transmitters_match_concrete_unique_sets():
    """The schedule picks each group's transmitters from the (block,
    cardinality) names of its type's unique sets; a brute-force bucketing
    of every sending group's own users must pick the same ones."""
    designs = [
        dpda_specials("t_km2", 7),
        special_designs("k5_t3", 5),
        special_designs("tbar3", 9),
        theorem1_design(8, 4),
        theorem2_design(8, 4),
        theorem3_design(3, 3, 2),
        dpda_specials("t2", 8),
    ]
    assert designs[0].grouping_sizes == (3, 2, 2)
    checked = 0
    for ds in designs:
        plan = build_plan(ds.K, ds.K, ds.t, ds.grouping_sizes, ds.tx_rules)
        g = plan.grouping
        schedule = plan.schedule
        assert schedule.order
        for S, transmitters in schedule.order:
            sel = ds.tx_rules[type_of(g, S)]
            chosen = {
                u
                for i, (_, users) in enumerate(unique_set_members(g, S), start=1)
                if i in sel
                for u in users
            }
            assert transmitters == tuple(u for u in S if u in chosen)
            # the rate stage leaves every transmitter a receiver
            receivers = {k for k, _ in schedule.receivers(S)}
            assert all(receivers - {tx} for tx in transmitters)
            checked += 1
    assert checked == 289


def test_src_holds_no_assert_statements():
    """``python -O`` strips assert statements, so no check in the package
    may be one."""
    pkg = os.path.dirname(ptcache.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [
                f"{name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
    assert found == []


def _names_read(tree):
    """Every name a module reads: loaded names, plus the names inside the
    quoted annotations and quoted type arguments that ``from __future__
    import annotations`` or a forward reference leaves as strings."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            hints = [node.returns] + [
                a.annotation
                for a in args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg] if a is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            hints = [node.annotation]
        elif isinstance(node, ast.Subscript):
            hints = [node.slice]
        else:
            continue
        for hint in filter(None, hints):
            for const in ast.walk(hint):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    try:
                        read |= _names_read(ast.parse(const.value, mode="eval"))
                    except SyntaxError:  # a string key, not a type
                        pass
    return read


def _unread_imports(directory, skip=()):
    """``file:line name`` for each imported name that no code in the same
    ``.py`` file of ``directory`` reads."""
    unread = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py") or name in skip:
            continue
        with open(os.path.join(directory, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{name}:{node.lineno} {bound}")
    return unread


def test_src_reads_every_name_it_imports():
    """An import no code in its module reads is left over from a removed
    caller; ``__init__.py`` imports only to re-export."""
    pkg = os.path.dirname(ptcache.__file__)
    assert _unread_imports(pkg, skip={"__init__.py"}) == []


def test_scripts_read_every_name_they_import():
    scripts = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")
    assert _unread_imports(scripts) == []


def test_tests_read_every_name_they_import():
    assert _unread_imports(os.path.dirname(os.path.abspath(__file__))) == []


def test_analysis_modules_import_nothing_from_engine():
    """The symbolic pipeline and the search run without the data plane:
    these modules import nothing from ``engine``, by any spelling."""
    pkg = os.path.dirname(ptcache.__file__)
    found = []
    for name in ("combinat", "typevec", "fscalc", "designs", "search"):
        with open(os.path.join(pkg, f"{name}.py")) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("engine" in target.split(".") for target in targets):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


def test_cli_imports_no_dataclasses_typing_or_inspect():
    """A bare interpreter (-S: site preloads nothing) imports the CLI without
    ``dataclasses``, ``typing`` or ``inspect``: the package's records are
    named tuples or small classes, which generate no code when defined."""
    src = os.path.dirname(os.path.dirname(ptcache.__file__))
    script = (
        "import sys, ptcache.cli; "
        "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_TAMPER = """
import random
from ptcache.designs import theorem2_design, theorem3_design
from ptcache.engine import (
    IntegrityError, build_plan, decode_and_verify, deliver, simulate,
)

def raises(fn, why):
    try:
        fn()
    except IntegrityError as e:
        return why in str(e)
    return False

ok = []
# thm3(3,3,2) has groups of three transmitters and groups with z = 2
for ds, N, M in [(theorem2_design(4, 2), 2, 1), (theorem3_design(3, 3, 2), 9, 2)]:
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    files = [random.Random(3).randbytes(plan.f_pt * 2) for _ in range(N)]
    demand = [1 + k % N for k in range(ds.K)]

    def fresh():
        return simulate(plan, files, demand)

    s = fresh()  # a truncated payload
    msgs = list(s.transcript)
    m = msgs[-1]
    msgs[-1] = m._replace(payload=m.payload[:-1])
    s.transcript = msgs
    ok.append(raises(lambda: decode_and_verify(s), "bytes in a group sending"))

    s = fresh()  # a message for a group the plan never serves
    msgs = list(s.transcript)
    m = msgs[0]
    msgs[0] = m._replace(group=m.group[:-1])
    s.transcript = msgs
    ok.append(raises(lambda: decode_and_verify(s), "never serves"))

    s = fresh()  # the packet a message carries is already in the receiver's cache
    k, T, c = s.transcript[-1].terms[-1]
    s.caches[k].held |= {T}
    ok.append(raises(lambda: decode_and_verify(s), "already cached"))

    s = fresh()  # a transmitter that does not cache a subfile it sends
    m = s.transcript[-1]
    s.caches[m.tx].held -= {m.terms[-1][1]}
    ok.append(raises(lambda: deliver(s), "does not cache"))

    T, (base, alpha) = next(iter(plan.subset_map.items()))
    plan.subset_map[T] = (base + plan.f_pt, alpha)  # packets past the file's end
    ok.append(raises(lambda: simulate(plan, files, demand), "spans packets"))

    # a fresh plan, whose schedule reads the edited packet map when first read
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    plan.subset_map[T] = (base, 0)  # shorter than the delivery counters need
    ok.append(raises(lambda: simulate(plan, files, demand), "overran"))
print(ok)
"""


def run_optimized(script):
    """The stdout of ``script`` run by ``python -O``, which strips assert
    statements."""
    src = os.path.dirname(os.path.dirname(ptcache.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_integrity_checks_survive_optimized_mode():
    """Tampered sessions raise IntegrityError even under ``python -O``,
    which strips assert statements."""
    assert run_optimized(_TAMPER) == str([True] * 12)


_MISSING_SIDE = """
import random
from ptcache.designs import theorem2_design, theorem3_design
from ptcache.engine import IntegrityError, build_plan, decode_and_verify, simulate

ok = []
# thm3(3,3,2) has groups of three transmitters, whose messages carry two terms
for ds, N, M in [(theorem2_design(4, 2), 2, 1), (theorem3_design(3, 3, 2), 9, 2)]:
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    files = [random.Random(3).randbytes(plan.f_pt * 2) for _ in range(N)]
    demand = [1 + k % N for k in range(ds.K)]
    several = [
        i for i, m in enumerate(simulate(plan, files, demand).transcript)
        if len(m.terms) >= 2
    ]
    for i in (several[0], several[-1]):
        for lacking, side in ((0, -1), (-1, 0)):  # first or last receiver
            s = simulate(plan, files, demand)
            terms = s.transcript[i].terms
            k, T_side = terms[lacking][0], terms[side][1]
            s.caches[k].held -= {T_side}  # k no longer caches its side information
            try:
                decode_and_verify(s)
                ok.append(False)
            except IntegrityError as e:
                ok.append("lacks side information" in str(e))
print(ok)
"""


def test_missing_side_information_is_an_integrity_error():
    """A receiver lacking a subset that a message XORs into its packet
    raises IntegrityError, also under ``python -O``."""
    assert run_optimized(_MISSING_SIDE) == str([True] * 8)


_UNEVEN_CACHES = """
from ptcache.designs import theorem2_design
from ptcache.engine import IntegrityError, build_plan, measure, simulate

ds = theorem2_design(4, 2)
plan = build_plan(4, 2, 1, ds.grouping_sizes, ds.tx_rules)
s = simulate(plan, [bytes(plan.f_pt)] * 2, (1, 2, 2, 1))
s.caches[1].held -= {min(s.caches[1].held)}  # user 1 now caches less
try:
    measure(s)
    print(False)
except IntegrityError:
    print(True)
"""


def test_uneven_caches_are_an_integrity_error():
    """``measure`` raises IntegrityError when the users cache unequal
    amounts, also under ``python -O``."""
    assert run_optimized(_UNEVEN_CACHES) == "True"


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
