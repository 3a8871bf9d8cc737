"""Acceptance gate: every promise the library makes, one test each.

The groups below pin the published small-case numbers, check the family
bounds across their whole parameter grids, verify delivery end to end with
exact bit accounting, cross-check independent implementations against each
other, make the search reproduce the best known four-user scheme, and
validate the figure-sweep invariants.  Groups that carry a wall-clock
budget time themselves and assert the limit after the content checks, so a
pass that has quietly become slow still fails here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import prod
from time import perf_counter

import pytest

from ptcache.combinat import binomial, integer_partitions
from ptcache.designs import (
    dpda_specials,
    jcm_design,
    special_designs,
    theorem1_bound,
    theorem1_design,
    theorem2_design,
    theorem3_design,
)
from ptcache.engine import (
    build_plan,
    decode_and_verify,
    measure,
    simulate,
    transcript_jsonl,
)
from ptcache.fscalc import STAR, analyze_rules, jcm_baseline, vector_lcm
from ptcache.jcm import run_jcm
from ptcache.search import candidate_to_design, exhaustive_search, sweep_ratios
from ptcache.typevec import enumerate_types, make_grouping, type_of


def _analyzed(ds):
    return analyze_rules(ds.K, ds.t, ds.grouping_sizes, ds.tx_rules)


def _round_trip(ds, N, M, rng):
    """Simulate demands against a design and check the exact accounting.

    Runs every demand vector when there are at most 256 of them, otherwise
    100 random ones.  Each session must decode bit-exactly, transmit
    exactly K(1 - M/N)L/t bits, and cache exactly M*L bits per user.
    Returns how many demands were exercised.
    """
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    files = tuple(rng.randbytes(plan.f_pt) for _ in range(N))
    L_bits = 8 * plan.f_pt
    if N**plan.K <= 256:
        demands = list(product(range(1, N + 1), repeat=plan.K))
    else:
        demands = [
            tuple(rng.randrange(1, N + 1) for _ in range(plan.K))
            for _ in range(100)
        ]
    for demand in demands:
        session = simulate(plan, files, demand)
        assert decode_and_verify(session).ok, (ds.name, demand)
        meas = measure(session)
        assert meas.total_bits * N * plan.t == plan.K * (N - M) * L_bits
        assert meas.per_user_cache_bits == M * L_bits
    return len(demands)


def test_published_small_case_values():
    t0 = perf_counter()

    # four users in two pairs, half the library cached: a third of the
    # baseline's split, at the baseline's rate
    ds = theorem2_design(4, 2)
    plan = build_plan(4, 2, 1, ds.grouping_sizes, ds.tx_rules)
    assert plan.f_pt == 4
    assert jcm_baseline(4, 2) == (12, Fraction(1))
    assert plan.rate == 1

    # eight users in two fours, three-eighths cached: the large type is
    # never stored and the small one splits three ways
    ds = special_designs("t3_halfsplit", 8)
    a = _analyzed(ds)
    counts = dict(zip(a.subfile_types, a.type_counts))
    assert [counts[v] for v in ds.type_order] == [8, 48]
    assert [a.factor_of(v) for v in ds.type_order] == [0, 3]
    assert a.f_pt == 144
    assert jcm_baseline(8, 3)[0] == 168

    # nine users in three threes, two-thirds cached -- the flagship case:
    # split vector, subpacketization, cache composition, and the exact
    # message anatomy, checked on a live simulation
    ds = special_designs("tbar3", 9)
    plan = build_plan(9, 3, 2, ds.grouping_sizes, ds.tx_rules)
    a = plan.analysis
    assert [a.factor_of(v) for v in ds.type_order] == [4, 3, 0]
    assert a.f_pt == 270
    assert jcm_baseline(9, 6)[0] == 504

    rng = random.Random(9)
    files = tuple(rng.randbytes(270) for _ in range(3))
    session = simulate(plan, files, (1, 2, 3, 1, 2, 3, 1, 2, 3))
    assert decode_and_verify(session).ok
    assert measure(session).per_user_cache_bits == 2 * 270 * 8  # M*L exactly

    by_type: dict[str, int] = {}
    for _n, T, _i in session.caches[1]:
        key = type_of(plan.grouping, T).text()
        by_type[key] = by_type.get(key, 0) + 1
    assert by_type == {"2,2,2": 216, "3,2,1": 324}

    per_group: dict[tuple[int, ...], list] = {}
    for msg in session.transcript:
        assert len(msg.terms) == 6  # every transmission serves t receivers
        per_group.setdefault(msg.group, []).append(msg)
    assert len(session.transcript) == 117
    shapes: dict[str, set] = {}
    for S, msgs in per_group.items():
        kind = type_of(plan.grouping, S).text()
        shape = (len(msgs), tuple(sorted(len(m.payload) for m in msgs)))
        shapes.setdefault(kind, set()).add(shape)
    # groups holding a whole block send one triple-packet message from the
    # lone outsider; balanced groups send four single-packet messages
    assert shapes == {"3,3,1": {(1, (3,))}, "3,2,2": {(4, (1, 1, 1, 1))}}
    cell = plan.grouping.group_of
    for S, msgs in per_group.items():
        if type_of(plan.grouping, S).text() == "3,3,1":
            # the transmitter is the one member whose cell contributes no
            # other user to the broadcast group
            assert all(cell[u] != cell[msgs[0].tx] for u in S if u != msgs[0].tx)

    # six users in three pairs, two-thirds cached
    ds = theorem1_design(6, 2)
    plan6 = build_plan(6, 3, 2, ds.grouping_sizes, ds.tx_rules)
    assert plan6.f_pt == 12
    assert jcm_baseline(6, 4)[0] == 60

    # the worked match-any reconciliation example
    g = vector_lcm(
        [(1, 2, 3, 0), (STAR, 4, STAR, 3), (STAR, 0, 2, 1)],
        zero_policy="wildcard",
    )
    assert g.factors == (2, 4, 6, 3)

    # five users in a three and a two, three-fifths cached
    ds = special_designs("k5_t3", 5)
    a5 = _analyzed(ds)
    assert [a5.factor_of(v) for v in ds.type_order] == [1, 2, 0]
    assert a5.f_pt == 15
    dots = [
        sum(f * c for f, c in zip(a5.global_fs.factors, row))
        for row in a5.mc_rows
    ]
    assert len(set(dots)) == 1  # equal cache loads in every block

    # the two extreme-memory families
    for K in (4, 6, 8, 10, 12):
        assert _analyzed(dpda_specials("t2", K)).f_pt == K * K // 4
        assert _analyzed(dpda_specials("t_km2", K)).f_pt == K * (K - 2) // 2
    for K in (7, 9, 11, 13):
        assert _analyzed(dpda_specials("t_km2", K)).f_pt == K * (K - 2)

    assert perf_counter() - t0 < 1.0


def test_family_bounds_across_the_grid():
    t0 = perf_counter()

    # staggered pair groups: the better of the two split variants stays
    # under the capped odd-product bound at every even size
    for K in range(4, 41, 2):
        for t_bar in range(2, K // 2 + 1, 2):
            variants = [
                theorem1_design(K, t_bar, v) for v in ("orderwise", "fallback")
            ]
            t = variants[0].t
            assert {ds.t for ds in variants} == {t}
            f_pt = min(_analyzed(ds).f_pt for ds in variants)
            f_jcm = t * binomial(K, t)
            cap = min(
                Fraction(prod(2 * i - 1 for i in range(1, t_bar // 2 + 1)), t),
                Fraction(1),
            )
            assert theorem1_bound(K, t_bar) == cap
            assert f_pt <= cap * f_jcm, (K, t_bar)

    # even-cache half split: never more than half the baseline
    spot = {}
    for K in range(4, 21, 2):
        for t in range(2, K - 1, 2):
            a = _analyzed(theorem2_design(K, t))
            f_jcm = t * binomial(K, t)
            assert 2 * a.f_pt <= f_jcm, (K, t)
            spot[(K, t)] = (a.f_pt, f_jcm)
    assert spot[(10, 4)] == (300, 840)
    assert spot[(8, 6)] == (72, 168)

    # equal m-by-q grids: the closed form holds exactly on the whole small
    # grid, and the savings approach their ceiling as groups grow
    seen = 0
    for t in (2, 3):
        for m in range(t + 1, 25):
            for q in range(t + 1, 25):
                if m * q > 24:
                    continue
                ds = theorem3_design(m, q, t)
                a = _analyzed(ds)
                assert a.f_pt == t * binomial(m * q, t) - m * t * binomial(q, t)
                seen += 1
    assert seen == 21
    for m, t in [(3, 2), (4, 2), (4, 3)]:
        a = _analyzed(theorem3_design(m, 200, t))
        ratio = Fraction(a.f_pt, t * binomial(200 * m, t))
        assert abs(ratio - (1 - Fraction(1, m ** (t - 1)))) < Fraction(1, 100)

    # among equal groupings at the near-full cache point, pairs win
    for K in (8, 12):
        table = {}
        for q in range(2, K):
            if K % q or K // q < 2:
                continue
            table[q] = _analyzed(special_designs("lemma2", K, q=q)).f_pt
        assert min(table.values()) == table[2] == K * (K - 2) // 2

    assert perf_counter() - t0 < 30.0


def test_delivery_is_bit_exact_and_rate_tight():
    t0 = perf_counter()
    rng = random.Random(20260823)

    regression = [
        (theorem2_design(4, 2), 2, 1),
        (special_designs("t3_halfsplit", 8), 8, 3),
        (special_designs("tbar3", 9), 3, 2),
        (theorem1_design(6, 2), 3, 2),
        (special_designs("k5_t3", 5), 5, 3),
        (dpda_specials("t2", 8), 8, 2),
        (dpda_specials("t_km2", 7), 7, 5),
    ]
    checked = sum(_round_trip(ds, N, M, rng) for ds, N, M in regression)
    assert checked == 16 + 6 * 100  # only the 2-file case enumerates fully

    # every search winner must survive the same treatment
    for K in range(2, 7):
        for t in range(1, K):
            res = exhaustive_search(K, t)
            assert res.best is not None, (K, t)
            _round_trip(res.best[0], K, t, rng)

    # cache composition under any equal grouping: each user holds exactly
    # t/K of every subfile type's population, confirmed by raw counting
    for K in range(2, 13):
        for q in range(1, K + 1):
            if K % q:
                continue
            g = make_grouping(K, (q,) * (K // q))
            for t in range(1, K):
                counts = dict(enumerate_types(g, t))
                mine: dict = {}
                for T in combinations(range(1, K + 1), t):
                    if 1 in T:
                        v = type_of(g, T)
                        mine[v] = mine.get(v, 0) + 1
                for v, count in counts.items():
                    assert K * mine.get(v, 0) == t * count

    assert perf_counter() - t0 < 60.0


def test_independent_reimplementations_agree():
    # type tallies against a raw subset census, for every grouping shape
    for K in range(2, 13):
        for sizes in integer_partitions(K):
            g = make_grouping(K, sizes)
            for t in range(1, K):
                want = dict(enumerate_types(g, t))
                got: dict = {}
                for T in combinations(range(1, K + 1), t):
                    v = type_of(g, T)
                    got[v] = got.get(v, 0) + 1
                assert got == want, (sizes, t)

    # the single-group scheme must replay the reference implementation's
    # transcript as a multiset
    for K in range(2, 7):
        for t in range(1, K):
            ds = jcm_design(K, t)
            plan = build_plan(K, K, t, ds.grouping_sizes, ds.tx_rules)
            rng = random.Random(100 * K + t)
            files = tuple(rng.randbytes(plan.f_pt) for _ in range(K))
            demand = tuple(rng.randrange(1, K + 1) for _ in range(K))
            session = simulate(plan, files, demand)
            ref = run_jcm(K, K, t, files, demand)
            assert ref.all_decoded
            assert sorted(transcript_jsonl(session.transcript).splitlines()) == sorted(
                transcript_jsonl(ref.transcript).splitlines()
            )

    # staggered pair-group split vectors: closed form vs the constraint
    # solver, for both variants, at sizes where all depths are exercised
    for t_bar in (2, 4, 6, 8):
        for K in (16, 18, 20):
            for variant in ("orderwise", "fallback"):
                ds = theorem1_design(K, t_bar, variant)
                a = _analyzed(ds)
                got = tuple(a.factor_of(v) for v in ds.type_order)
                assert got == ds.expected_global_fs, (K, t_bar, variant)


def test_four_user_search_recovers_best_known_scheme():
    res = exhaustive_search(4, 2)
    assert res.best is not None and res.best[1] == 4

    # every candidate the search reports feasible must actually deliver
    rng = random.Random(42)
    total = 0
    for rec in res.pareto:
        ds = candidate_to_design(4, 2, rec)
        total += _round_trip(ds, 4, 2, rng)
    assert total == len(res.pareto) * 256


def test_ratio_sweeps_stay_under_their_bounds():
    gaps: dict[str, list[tuple[int, Fraction]]] = {}

    for t_bar in (2, 4, 6, 8):
        res = sweep_ratios("thm1", range(4, 41), t_bar=t_bar)
        assert res.rows
        for row in res.rows:
            assert row.ratio <= row.bound, (t_bar, row.K)
            if t_bar == 2:
                assert row.ratio == Fraction(1, row.K - 1)
        gaps[f"pairs t_bar={t_bar}"] = [
            (row.K, row.bound - row.ratio) for row in res.rows
        ]

    for t in (2, 4, 6, 8):
        res = sweep_ratios("thm2", range(t + 2, 21), t=t)
        assert res.rows
        for row in res.rows:
            assert row.ratio <= row.bound, (t, row.K)
        gaps[f"half-split t={t}"] = [
            (row.K, row.bound - row.ratio) for row in res.rows
        ]
    # both shapes of the half-split construction appear in the data
    assert any(row.K < 2 * 8 for row in res.rows)
    assert any(row.K >= 2 * 8 for row in res.rows)

    # the bound-vs-actual gap trend is informational: report, don't gate
    for label, series in gaps.items():
        widening = all(b[1] >= a[1] for a, b in zip(series, series[1:]))
        narrowing = all(b[1] <= a[1] for a, b in zip(series, series[1:]))
        trend = "widening" if widening else "narrowing" if narrowing else "mixed"
        span = f"K={series[0][0]}..{series[-1][0]}"
        print(f"gap {label}: {trend} over {span}")


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
