"""Exhaustive search over (grouping, transmitter rules) candidates.

The K=4, t=2 census is small enough to freeze completely; it was verified
by hand (17 candidates, 8 memory-balance failures, best subpacketization 4)
and now pins the enumeration order, the feasibility verdicts and the
reported reasons.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import ptcache.engine
import ptcache.search
from ptcache.combinat import integer_partitions
from ptcache.designs import theorem1_design
from ptcache.engine import (
    PlanError,
    analyze_rules,
    build_plan,
    decode_and_verify,
    measure,
    rate_failure,
    rules_json,
    simulate,
)
from ptcache.fscalc import NoLcmError, mc_check, subpacketization, vector_lcm
from ptcache.search import (
    CandidateRecord,
    _options,
    _walk,
    candidate_to_design,
    exhaustive_search,
    search_space,
    sweep_ratios,
)
from ptcache.typevec import TypeVector


FROZEN_4_2 = [
    ((4,), {"3": (1,)}, 12, ""),
    ((3, 1), {"3|0": (1,), "2|1": (1,)}, None, "mc"),
    ((3, 1), {"3|0": (1,), "2|1": (2,)}, None, "mc"),
    ((3, 1), {"3|0": (1,), "2|1": (1, 2)}, 12, ""),
    ((2, 2), {"2,1": (1,)}, 8, ""),
    ((2, 2), {"2,1": (2,)}, 4, ""),
    ((2, 2), {"2,1": (1, 2)}, 12, ""),
    ((2, 1, 1), {"2|1,0": (1,), "1|1,1": (1,)}, None, "mc"),
    ((2, 1, 1), {"2|1,0": (1,), "1|1,1": (2,)}, 8, ""),
    ((2, 1, 1), {"2|1,0": (1,), "1|1,1": (1, 2)}, None, "mc"),
    ((2, 1, 1), {"2|1,0": (2,), "1|1,1": (1,)}, 4, ""),
    ((2, 1, 1), {"2|1,0": (2,), "1|1,1": (2,)}, None, "mc"),
    ((2, 1, 1), {"2|1,0": (2,), "1|1,1": (1, 2)}, None, "mc"),
    ((2, 1, 1), {"2|1,0": (1, 2), "1|1,1": (1,)}, None, "mc"),
    ((2, 1, 1), {"2|1,0": (1, 2), "1|1,1": (2,)}, None, "mc"),
    ((2, 1, 1), {"2|1,0": (1, 2), "1|1,1": (1, 2)}, 12, ""),
    ((1, 1, 1, 1), {"1,1,1,0": (1,)}, 12, ""),
]


def test_full_census_k4_t2():
    r = exhaustive_search(4, 2)
    assert r.explored == 17
    assert not r.partial
    assert r.infeasible == {"no_lcm": 0, "rate": 0, "mc": 8}
    got = [(c.grouping, dict(c.rules), c.f_pt, c.reason) for c in r.records]
    assert got == FROZEN_4_2
    ds, best = r.best
    assert best == 4
    assert ds.grouping_sizes == (2, 2)
    assert rules_json(ds.tx_rules) == {"2,1": [2]}
    assert [c.f_pt for c in r.pareto] == [4, 4, 8, 8, 12, 12, 12, 12, 12]


WINNERS = {
    (3, 1): 3,
    (3, 2): 6,
    (4, 1): 4,
    (4, 2): 4,
    (4, 3): 12,
    (5, 1): 5,
    (5, 2): 20,
    (5, 3): 15,
    (5, 4): 20,
    (6, 1): 6,
    (6, 2): 9,
    (6, 3): 54,
    (6, 4): 12,
    (6, 5): 30,
}


@pytest.mark.parametrize("K,t", sorted(WINNERS))
def test_best_values_up_to_six_users(K, t):
    r = exhaustive_search(K, t)
    assert r.best is not None
    assert r.best[1] == WINNERS[(K, t)]
    assert r.pareto[0].f_pt == WINNERS[(K, t)]


def test_census_sizes_frozen():
    # candidates that both over-transmit and fail the memory check land on
    # the rate reason: it is checked first, matching the engine's stages
    assert exhaustive_search(5, 2).infeasible == {"no_lcm": 5, "rate": 14, "mc": 33}
    assert exhaustive_search(6, 3).explored == 1451
    assert exhaustive_search(6, 4).explored == 215


@pytest.mark.parametrize("K", range(2, 7))
def test_preflight_count_is_the_census_size(K):
    for t in range(1, K):
        count, layouts = search_space(K, t)
        assert count == exhaustive_search(K, t).explored
        assert [lay.grouping.sizes for lay in layouts] == integer_partitions(K)


def test_preflight_count_of_larger_censuses():
    assert search_space(7, 3)[0] == 85_289
    assert search_space(8, 4)[0] == 4_507_484


def test_unread_census_builds_no_doomed_records(monkeypatch):
    """A subtree the LCM check cut is counted, not visited: until the
    records are read, no record is built for its leaves."""
    built = 0

    class Counted(CandidateRecord):
        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    monkeypatch.setattr(ptcache.search, "CandidateRecord", Counted)
    r = exhaustive_search(7, 4)
    assert r.infeasible["no_lcm"] == 21_948
    assert built <= r.explored - r.infeasible["no_lcm"]
    assert len(r.records) == r.explored == 23_549
    assert built <= r.explored - r.infeasible["no_lcm"]
    records = list(r.records)
    assert built >= r.explored
    assert Counter(c.reason for c in records) == Counter(
        {"": len(r.pareto), **r.infeasible}
    )


def test_search_is_deterministic():
    a = exhaustive_search(5, 3)
    b = exhaustive_search(5, 3)
    assert list(a.records) == list(b.records)
    assert a.best[1] == b.best[1]
    assert rules_json(a.best[0].tx_rules) == rules_json(b.best[0].tx_rules)


def test_budget_stops_early_and_flags_partial():
    r = exhaustive_search(6, 3, max_candidates=100)
    assert r.partial
    assert r.explored == 100
    assert len(r.records) == 100
    # best-so-far is reported even on a partial run
    assert r.best is not None and r.best[1] == 54
    full = exhaustive_search(6, 3)
    assert not full.partial
    assert full.best[1] == 54
    # budgets that end inside a subtree the LCM check cut (50, 100, 908 and
    # 1000 do) stop after exactly n leaves like any other
    full_records = list(full.records)
    for n in (1, 50, 100, 700, 908, 1000):
        r = exhaustive_search(6, 3, max_candidates=n)
        assert (r.explored, list(r.records)) == (n, full_records[:n])


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError):
        exhaustive_search(4, 0)
    with pytest.raises(ValueError):
        exhaustive_search(4, 4)


def test_no_lcm_records_really_fail_the_lcm_stage():
    r = exhaustive_search(5, 2)
    bad = [c for c in r.records if c.reason == "no_lcm"]
    assert len(bad) == 5
    for c in bad:
        rules = {TypeVector.parse(g): set(sel) for g, sel in c.rules}
        with pytest.raises(PlanError) as e:
            analyze_rules(5, 2, c.grouping, rules)
        assert e.value.stage == "lcm"


def test_search_reasons_follow_the_engine_stages():
    """Every record carries the reason and F_PT that analyze_rules gives;
    (6,1) has candidates whose every subfile type is excluded, which the
    engine rejects at its LCM stage.  The search runs the rate stage before
    the LCM on leaves the LCM cannot reject, and analyze_rules, which runs
    the LCM first, checks that order on (6,3) and its (3,2,1) rate cases."""
    reason_of = {"lcm": "no_lcm", "rate": "rate", "mc": "mc"}
    for K, t in [(5, 2), (6, 1), (6, 3), (6, 4)]:
        for c in exhaustive_search(K, t).records:
            rules = {TypeVector.parse(g): set(sel) for g, sel in c.rules}
            try:
                want = ("", analyze_rules(K, t, c.grouping, rules).f_pt)
            except PlanError as e:
                want = (reason_of[e.stage], None)
            assert (c.reason, c.f_pt) == want


def test_rate_records_really_fail_the_rate_stage():
    r = exhaustive_search(5, 2)
    bad = [c for c in r.records if c.reason == "rate"]
    assert len(bad) == 14
    for c in bad:
        rules = {TypeVector.parse(g): set(sel) for g, sel in c.rules}
        with pytest.raises(PlanError) as e:
            analyze_rules(5, 2, c.grouping, rules)
        assert e.value.stage == "rate"


def test_over_transmitting_candidate_is_rejected():
    """A selection can decode fine yet send more than K(1-M/N)L/t bits:
    with grouping (3,2,1) at t=3 a small-subpacketization candidate leaves
    members with excluded desired types sitting idle inside transmitting
    groups, so their messages carry fewer than t terms.  The search must
    not report it as feasible."""
    r = exhaustive_search(6, 3)
    rejected = [
        c for c in r.records
        if c.grouping == (3, 2, 1) and c.reason == "rate" and c.f_pt is None
    ]
    assert rejected, "expected rate-infeasible candidates at grouping (3,2,1)"
    assert all(c.f_pt is None for c in rejected)
    # the winner respects the rate on top of decoding
    ds, best = r.best
    assert best == 54
    plan = build_plan(6, 6, 3, ds.grouping_sizes, ds.tx_rules)
    files = tuple(random.Random(5).randbytes(plan.f_pt) for _ in range(6))
    session = simulate(plan, files, (1, 2, 3, 4, 5, 6))
    assert decode_and_verify(session).ok
    meas = measure(session)
    assert meas.total_bits == 8 * plan.f_pt  # K(N-M)/(N t) = 1 file here


def test_skipping_emerges_from_exclusion():
    """Candidates never enumerate an explicit 'skip'; the winner at (6,2)
    still ends up never transmitting in its all-on-one-side groups because
    their only involved subfile type is excluded."""
    ds, best = exhaustive_search(6, 2).best
    assert best == 9
    assert ds.grouping_sizes == (3, 3)
    assert all(sel for sel in ds.tx_rules.values())
    a = analyze_rules(6, 2, ds.grouping_sizes, ds.tx_rules)
    assert TypeVector.parse("3,0") in a.skipped_group_types
    assert TypeVector.parse("2,0") in a.excluded


def test_candidates_round_trip_through_the_engine():
    for K, t in [(4, 2), (5, 3)]:
        r = exhaustive_search(K, t)
        rng = random.Random(1)
        for rec in r.pareto:
            ds = candidate_to_design(K, t, rec)
            assert ds.expected_f_pt == rec.f_pt
            plan = build_plan(K, K, t, ds.grouping_sizes, ds.tx_rules)
            files = tuple(rng.randbytes(plan.f_pt) for _ in range(K))
            demand = tuple(rng.randrange(1, K + 1) for _ in range(K))
            assert decode_and_verify(simulate(plan, files, demand)).ok


def rate_violation(structure, selection, excluded):
    """Reference for the rate stage, on sets of types: the 1-based indices
    of the unique sets whose desired type is excluded, or [] when the group
    type sends at full rate or sends nothing at all.  A member whose desired
    type is excluded receives nothing, so it may appear in a transmitting
    group type only as the lone transmitter."""
    dead = [i for i, v in enumerate(structure.involved, 1) if v in excluded]
    if len(dead) == len(structure.involved):
        return []  # every involved type excluded: the group type is skipped
    n_dead = sum(structure.unique_sets[i - 1].size for i in dead)
    if n_dead == 0 or (n_dead == 1 and selection == frozenset(dead)):
        return []
    return dead


@pytest.mark.parametrize("K", range(2, 8))
def test_mask_rate_test_agrees_with_rate_violation(K):
    """For every option of every layout with this K, and every set of
    zeroed columns, the rate stage on column masks, which the engine and
    the search's leaf pre-filter both run, gives the verdict of the
    set-based reference."""
    for t in range(1, K):
        for layout in search_space(K, t)[1]:
            width = len(layout.subfile_types)
            for i, (st, opts) in enumerate(zip(layout.structures, _options(layout))):
                for opt in opts:
                    assert opt[3] == layout.rate_masks(i, frozenset(opt[1][1]))
                for zeroed in range(1 << width):
                    excluded = {
                        v for j, v in enumerate(layout.subfile_types)
                        if zeroed >> j & 1
                    }
                    for opt in opts:
                        want = bool(rate_violation(st, frozenset(opt[1][1]), excluded))
                        assert (rate_failure([opt[3]], zeroed) == 0) == want


def _vector_lcm_verdict(layout, selections):
    """A leaf's verdict the way the engine reached it before the search read
    split factors off its forest: ``vector_lcm`` on the canonical rows, then
    the all-excluded, rate (the set-based reference) and memory stages."""
    rows = [layout.row(i, sel) for i, sel in enumerate(selections)]
    try:
        gfs = vector_lcm(rows, "exclude")
    except NoLcmError:
        return None, "no_lcm"
    if not any(gfs.factors):
        return None, "no_lcm"
    excluded = {v for v, f in zip(layout.subfile_types, gfs.factors) if f == 0}
    for st, sel in zip(layout.structures, selections):
        if rate_violation(st, sel, excluded):
            return None, "rate"
    if not mc_check(gfs.factors, layout.mc_rows).ok:
        return None, "mc"
    return subpacketization(gfs.factors, layout.type_counts), ""


@pytest.mark.parametrize("K", range(2, 8))
def test_leaf_split_factors_from_the_forest_match_vector_lcm(K, monkeypatch):
    """Every leaf of every census at this K, walked in census order: the
    global split factors a live leaf reads off the search's ratio forest
    and hands to the memory stage equal ``vector_lcm`` of its canonical
    rows, and every leaf's verdict is the one ``vector_lcm`` and the stages
    give.  Only the leaves that end feasible or fail the memory stage read
    the forest: the others are settled on column masks."""
    read = []

    def spy(factors, user_counts):
        read.append(tuple(factors))
        return mc_check(factors, user_counts)

    monkeypatch.setattr(ptcache.search, "mc_check", spy)
    for t in range(1, K):
        live = reads = 0
        for layout in search_space(K, t)[1]:
            options = _options(layout)
            depth = len(options)
            order = range(depth - 1, -1, -1)
            picks = [0] * depth
            for d, _, verdict in _walk(layout, options, order, picks):
                if d < depth:
                    assert read == []  # a doomed subtree above the leaves
                    continue
                selections = [
                    frozenset(options[c][picks[depth - 1 - c]][1][1])
                    for c in range(depth)
                ]
                if read:
                    rows = [layout.row(i, sel) for i, sel in enumerate(selections)]
                    assert read == [vector_lcm(rows, "exclude").factors]
                    reads += 1
                    read.clear()
                assert verdict == _vector_lcm_verdict(layout, selections)
                live += verdict[1] in ("", "mc")
        assert reads == live


def _first_minimum(records):
    """The first record of least F_PT, scanning in record order."""
    best = None
    for rec in records:
        if rec.f_pt is not None and (best is None or rec.f_pt < best.f_pt):
            best = rec
    return best


@pytest.mark.parametrize("K", range(2, 8))
def test_best_is_the_first_minimum_in_canonical_order(K):
    """The census walks group types in another order, yet ``best`` is the
    first minimum F_PT met while reading the canonical records."""
    for t in range(1, K):
        r = exhaustive_search(K, t)
        first = _first_minimum(r.records)
        ds, f_pt = r.best
        assert f_pt == first.f_pt
        assert ds.grouping_sizes == first.grouping
        assert rules_json(ds.tx_rules) == rules_json(
            {TypeVector.parse(g): sel for g, sel in first.rules}
        )


@pytest.mark.parametrize("K,t", [(6, 2), (7, 5), (8, 2)])
def test_best_breaks_ties_inside_a_grouping_canonically(K, t, monkeypatch):
    """Each grouping searched alone: where several of its candidates share
    the least F_PT, ``best`` is still the first of them in canonical
    order, although the census walks its group types in another order."""
    count, layouts = search_space(K, t)
    for layout in layouts:
        monkeypatch.setattr(
            ptcache.search, "search_space", lambda K, t: (count, [layout])
        )
        r = exhaustive_search(K, t)
        first = _first_minimum(r.records)
        if first is None:
            assert r.best is None
            continue
        assert r.best[1] == first.f_pt
        assert rules_json(r.best[0].tx_rules) == rules_json(
            {TypeVector.parse(g): sel for g, sel in first.rules}
        )


# ------------------------------------------------------------------ sweeps


def test_sweep_pair_family_exact_curve():
    res = sweep_ratios("thm1", range(4, 21, 2), t_bar=2)
    assert not res.skipped
    for row in res.rows:
        assert row.ratio == Fraction(1, row.K - 1)
        assert row.bound == Fraction(1, row.K - 2)
        assert row.ratio <= row.bound


@pytest.mark.parametrize("t_bar", [2, 4, 6])
def test_thm1_sweep_builds_one_layout_per_k(t_bar, monkeypatch):
    built = []

    def counting(g, t, real=ptcache.engine.scheme_layout):
        built.append(g.K)
        return real(g, t)

    monkeypatch.setattr(ptcache.engine, "scheme_layout", counting)
    monkeypatch.setattr(ptcache.search, "scheme_layout", counting)
    res = sweep_ratios("thm1", range(4, 41), t_bar=t_bar)
    admitted = [K for K in range(4, 41) if K % 2 == 0 and 2 * t_bar <= K]
    assert [row.K for row in res.rows] == admitted
    assert built == admitted
    monkeypatch.undo()
    for row in res.rows:
        expected = min(
            analyze_rules(ds.K, ds.t, ds.grouping_sizes, ds.tx_rules).f_pt
            for ds in (
                theorem1_design(row.K, t_bar, "orderwise"),
                theorem1_design(row.K, t_bar, "fallback"),
            )
        )
        assert row.f_pt == expected


def test_thm1_analysis_and_sweep_at_k2400():
    """thm1(2400, 2) has a subfile type with 1,199 parts in one block; its
    analysis and its sweep point are exact, not a RecursionError."""
    ds = theorem1_design(2400, 2)
    assert analyze_rules(ds.K, ds.t, ds.grouping_sizes, ds.tx_rules).f_pt == 2_877_600
    (row,) = sweep_ratios("thm1", [2400], t_bar=2).rows
    assert (row.f_pt, row.ratio, row.bound) == (
        2_877_600, Fraction(1, 2399), Fraction(1, 2398)
    )


def test_sweep_skips_out_of_range_points():
    res = sweep_ratios("thm1", [4, 5, 6, 40], t_bar=4)
    ks = [row.K for row in res.rows]
    assert ks == [8, 40] or ks == [40]  # t_bar <= K/2 keeps K >= 8
    assert any(K == 5 for K, _ in res.skipped)
    assert any(K == 4 for K, _ in res.skipped)
    assert any(K == 6 for K, _ in res.skipped)


def test_sweep_half_split_families():
    even = sweep_ratios("thm2", range(4, 21, 2), t=4)
    for row in even.rows:
        assert row.bound == Fraction(1, 2)
        assert row.ratio <= row.bound
    odd = sweep_ratios("thm2", range(8, 15, 2), t=3)
    assert odd.rows[0].K == 8
    assert odd.rows[0].ratio == Fraction(6, 7) == odd.rows[0].bound
    for row in odd.rows[1:]:
        assert row.ratio < Fraction(6, 7)
    with pytest.raises(ValueError):
        sweep_ratios("thm2", [10])  # t is required
    with pytest.raises(ValueError):
        sweep_ratios("thm2", [10], t=5)  # no odd-t construction beyond 3


def test_sweep_grid_family():
    res = sweep_ratios("thm3", [6, 9, 10, 12, 15, 18, 21, 24], m=3, t=2)
    assert [row.K for row in res.rows] == [9, 12, 15, 18, 21, 24]
    for row in res.rows:
        assert row.bound == 1
        assert row.ratio < 1
    # K=6 gives groups smaller than t+1; K=10 is not divisible into 3 groups
    notes = dict(res.skipped)
    assert "m, q" in notes[6] or "q" in notes[6]
    assert "multiple" in notes[10]


def test_sweep_unknown_family():
    with pytest.raises(ValueError):
        sweep_ratios("thm9", [4])
    with pytest.raises(ValueError):
        sweep_ratios("thm3", [9], m=3)  # t missing


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
