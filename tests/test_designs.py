"""Each packaged design family carries its own predicted split factors and
subpacketization; here every prediction is re-derived through the generic
rule-analysis pipeline, which computes them from scratch."""

import hashlib
import json
from fractions import Fraction
from math import gcd, prod
from unittest import mock

import pytest

from ptcache.combinat import binomial
from ptcache.designs import (
    DPDA_MODES,
    SPECIAL_KINDS,
    _spec,
    dpda_specials,
    jcm_design,
    special_designs,
    theorem1_bound,
    theorem1_design,
    theorem2_design,
    theorem3_design,
)
from ptcache.engine import rules_json
from ptcache.fscalc import analyze_rules, jcm_baseline
from ptcache.typevec import TypeVector, make_grouping


def verify_design(ds):
    """Run the symbolic pipeline and compare against the design's own
    predictions; returns the analysis for further poking."""
    analysis = analyze_rules(ds.K, ds.t, ds.grouping_sizes, ds.tx_rules)
    got = tuple(analysis.factor_of(v) for v in ds.type_order)
    assert got == ds.expected_global_fs, (
        f"{ds.name}: pipeline {got} != predicted {ds.expected_global_fs}"
    )
    assert analysis.f_pt == ds.expected_f_pt, (
        f"{ds.name}: pipeline F={analysis.f_pt} != predicted {ds.expected_f_pt}"
    )
    assert set(ds.type_order) <= set(analysis.subfile_types)
    return analysis


# ----------------------------------------------------------------- baseline


@pytest.mark.parametrize("K,t", [(4, 2), (6, 3), (5, 1), (5, 4)])
def test_jcm_design(K, t):
    ds = jcm_design(K, t)
    analysis = verify_design(ds)
    assert analysis.f_pt == t * binomial(K, t)
    assert ds.expected_global_fs == (t,)


# ------------------------------------------------------- pair-group family


def thm1_grid(max_K):
    for K in range(4, max_K + 1, 2):
        for t_bar in range(2, K // 2 + 1, 2):
            yield K, t_bar


@pytest.mark.parametrize("variant", ["orderwise", "fallback"])
def test_pair_group_family_matches_pipeline(variant):
    for K, t_bar in thm1_grid(24):
        verify_design(theorem1_design(K, t_bar, variant))


def staggered_products(r):
    """The traditional closed-form factors for the staggered variant (before
    minimality normalization)."""
    return [
        prod(2 * k - 1 for k in range(1, i)) * prod(2 * k for k in range(i - 1, r))
        for i in range(2, r + 2)
    ]


def test_pair_group_factor_closed_form():
    """The staggered factors are the product formula divided by its gcd; the
    gcd is 1 up to r=3 and first bites at r=4."""
    for K, t_bar in [(8, 4), (12, 6), (16, 8), (24, 8), (40, 10)]:
        r = t_bar // 2
        raw = staggered_products(r)
        shrink = gcd(*raw)
        exp = theorem1_design(K, t_bar).expected_global_fs
        assert exp == (0, *[e // shrink for e in raw])
        # consecutive live factors keep the exact odd/even ratio
        for i in range(2, r + 1):
            assert exp[i] * (2 * i - 2) == exp[i - 1] * (2 * i - 1)
    assert gcd(*staggered_products(3)) == 1
    assert gcd(*staggered_products(4)) == 3


def test_pair_group_single_group_type_variants_coincide():
    for K in (4, 8, 14):
        order = theorem1_design(K, 2, "orderwise")
        fall = theorem1_design(K, 2, "fallback")
        assert order.tx_rules == fall.tx_rules
        assert order.expected_global_fs == fall.expected_global_fs == (0, 1)
        assert order.expected_f_pt == K * (K - 2) // 2


def test_pair_group_variants_can_disagree():
    order = theorem1_design(12, 6, "orderwise")
    fall = theorem1_design(12, 6, "fallback")
    assert order.expected_f_pt == 9600
    assert fall.expected_f_pt == 5424
    assert min(order.expected_f_pt, fall.expected_f_pt) == 5424


def test_pair_group_bound_values():
    assert theorem1_bound(8, 2) == Fraction(1, 6)
    assert theorem1_bound(16, 4) == Fraction(3, 12)
    assert theorem1_bound(16, 6) == 1  # raw 15/10 capped
    assert theorem1_bound(40, 8) == 1  # raw 105/32 capped
    assert theorem1_bound(120, 8) == Fraction(15, 16)


def test_pair_group_ratio_decays_with_slowly_growing_t_bar():
    """Doubly-logarithmic t_bar growth still drives the guaranteed ratio to
    zero; check three exact points far beyond anything simulable."""
    points = []
    for e in (8, 16, 32):
        K = 2 ** e
        t_bar = 2 * (e.bit_length() - 1)  # 2*floor(log2 e)
        points.append(theorem1_bound(K, t_bar))
    assert points[0] == Fraction(15, 2 ** 8 - 6)
    assert points[1] == Fraction(105, 2 ** 16 - 8)
    assert points[2] == Fraction(945, 2 ** 32 - 10)
    assert points[0] > points[1] > points[2]


# ------------------------------------------------------- half-split family


def thm2_grid(max_K):
    for K in range(4, max_K + 1, 2):
        for t in range(2, K - 1, 2):
            yield K, t


def test_half_split_family_matches_pipeline():
    for K, t in thm2_grid(20):
        ds = theorem2_design(K, t)
        analysis = verify_design(ds)
        f_jcm, _ = jcm_baseline(K, t)
        assert 2 * analysis.f_pt <= f_jcm


def test_half_split_spot_values():
    assert theorem2_design(10, 4).expected_f_pt == 300
    assert theorem2_design(8, 6).expected_f_pt == 72
    assert jcm_baseline(10, 4)[0] == 840
    assert jcm_baseline(8, 6)[0] == 168


def test_half_split_large_t_shifts_factors():
    # once t exceeds half the users, the factor ladder starts above zero
    ds = theorem2_design(8, 6)
    assert ds.expected_global_fs == (2, 3)
    assert theorem2_design(10, 6).expected_global_fs == (1, 2, 3)
    ds2 = theorem2_design(10, 4)
    assert ds2.expected_global_fs == (0, 1, 2)


def test_half_split_skips_single_sided_groups():
    analysis = verify_design(theorem2_design(10, 4))
    assert TypeVector(((5, 0),)) in analysis.skipped_group_types
    assert TypeVector(((4, 0),)) in analysis.excluded


# ------------------------------------------------------------- grid family


def thm3_grid(max_K):
    for t in (2, 3):
        for m in range(t + 1, max_K + 1):
            for q in range(t + 1, max_K + 1):
                if m * q <= max_K:
                    yield m, q, t


def test_grid_family_matches_pipeline():
    seen = 0
    for m, q, t in thm3_grid(24):
        ds = theorem3_design(m, q, t)
        analysis = verify_design(ds)
        assert analysis.f_pt == t * binomial(m * q, t) - m * t * binomial(q, t)
        seen += 1
    assert seen >= 15


def test_grid_family_ratio_limit():
    # as q grows, the ratio to the JCM subpacketization tends to 1 - 1/m^(t-1)
    for m, t in [(3, 2), (4, 2), (4, 3)]:
        q = 200
        f_pt = t * binomial(m * q, t) - m * t * binomial(q, t)
        ratio = Fraction(f_pt, t * binomial(m * q, t))
        assert abs(ratio - (1 - Fraction(1, m ** (t - 1)))) < Fraction(1, 100)


def test_grid_family_large_instance_analyzes_cheaply():
    # symbolic analysis never enumerates subsets, so K=600 is fine
    ds = theorem3_design(3, 200, 2)
    analysis = verify_design(ds)
    assert analysis.K == 600


# ----------------------------------------------------------- special cases


def test_special_kind_list_is_stable():
    assert SPECIAL_KINDS == (
        "lemma2",
        "odd_k_tbar2",
        "tbar3",
        "t3_halfsplit",
        "k5_t3",
    )
    assert DPDA_MODES == ("t2", "t_km2")


@pytest.mark.parametrize("K", [8, 12])
def test_lemma2_all_divisors(K):
    best = None
    for q in range(2, K):
        if K % q or K // q < 2:
            continue
        ds = special_designs("lemma2", K, q=q)
        verify_design(ds)
        assert ds.expected_f_pt == K * (q - 1) * (K - 2) // 2
        best = ds.expected_f_pt if best is None else min(best, ds.expected_f_pt)
    assert best == K * (K - 2) // 2  # q=2 wins


@pytest.mark.parametrize("K", [7, 9, 11, 13])
def test_odd_k_full_cache_design(K):
    ds = special_designs("odd_k_tbar2", K)
    verify_design(ds)
    assert ds.expected_f_pt == K * (K - 2)


@pytest.mark.parametrize("K,expect", [(9, 270), (12, 756), (15, 1620)])
def test_three_short_design(K, expect):
    ds = special_designs("tbar3", K)
    verify_design(ds)
    assert ds.expected_f_pt == expect == K * (K - 3) * (2 * K - 3) // 3


@pytest.mark.parametrize("K,expect", [(8, 144), (10, 300), (12, 540)])
def test_low_cache_half_split(K, expect):
    ds = special_designs("t3_halfsplit", K)
    analysis = verify_design(ds)
    assert ds.expected_f_pt == expect == 3 * K * K * (K - 2) // 8
    assert TypeVector(((4, 0),)) in analysis.skipped_group_types


def test_five_user_design():
    ds = special_designs("k5_t3", 5)
    analysis = verify_design(ds)
    assert analysis.f_pt == 15
    got = tuple(analysis.factor_of(v) for v in ds.type_order)
    assert got == (1, 2, 0)


@pytest.mark.parametrize("K", [4, 6, 8, 10, 12])
def test_low_memory_even_design(K):
    ds = dpda_specials("t2", K)
    verify_design(ds)
    assert ds.expected_f_pt == K * K // 4


_NAME_PREFIX = {
    "jcm": "jcm-",
    "k5_t3": "k5-t3",
    "lemma2": "lemma2-",
    "odd_k_tbar2": "oddk-tbar2-",
}


@pytest.mark.parametrize(
    "K,family,f_pt",
    [
        (3, "jcm", 3),
        (5, "k5_t3", 15),
        (8, "lemma2", 24),
        (9, "odd_k_tbar2", 63),
        (11, "odd_k_tbar2", 99),
        (12, "lemma2", 60),
    ],
)
def test_high_memory_dispatch(K, family, f_pt):
    ds = dpda_specials("t_km2", K)
    assert ds.name.startswith(_NAME_PREFIX[family])
    assert ds.expected_f_pt == f_pt
    verify_design(ds)


# ------------------------------------------------------------ rule digest


def family_calls():
    """(label, constructor call) over a fixed grid of every family."""
    for K in range(2, 11):
        for t in range(1, K):
            yield f"jcm {K} {t}", lambda K=K, t=t: jcm_design(K, t)
    for variant in ("orderwise", "fallback"):
        for K, t_bar in thm1_grid(24):
            yield f"thm1 {K} {t_bar} {variant}", (
                lambda K=K, t_bar=t_bar, v=variant: theorem1_design(K, t_bar, v)
            )
    for K, t in thm2_grid(20):
        yield f"thm2 {K} {t}", lambda K=K, t=t: theorem2_design(K, t)
    for t in range(2, 6):
        for m in range(t + 1, 7):
            for q in range(t + 1, 7):
                yield f"thm3 {m} {q} {t}", lambda m=m, q=q, t=t: theorem3_design(m, q, t)
    for K in range(2, 25):
        for kind in SPECIAL_KINDS:
            for q in range(1, K + 1) if kind == "lemma2" else (None,):
                yield f"{kind} {K} {q}", (
                    lambda kind=kind, K=K, q=q: special_designs(kind, K, q=q)
                )
        for mode in DPDA_MODES:
            yield f"dpda {mode} {K}", lambda mode=mode, K=K: dpda_specials(mode, K)


def test_family_rules_digest():
    """One canonical line per constructor call pins every family's name,
    grouping, transmitter rules, type order and expectations, and which
    calls each family refuses."""
    lines = []
    for label, call in family_calls():
        try:
            ds = call()
        except ValueError:
            lines.append(f"{label}: ValueError")
            continue
        lines.append(
            f"{label}: {ds.name} K={ds.K} t={ds.t} g={ds.grouping_sizes} "
            f"rules={json.dumps(rules_json(ds.tx_rules))} "
            f"order={' '.join(v.text() for v in ds.type_order)} "
            f"fs={ds.expected_global_fs} F={ds.expected_f_pt}"
        )
    assert len(lines) == 629
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "78f07bb5f3365223d903bcbc7bfce341fee282b781479ee62357230eb0406357"
    )


def test_families_build_no_structure():
    """Families name their transmitters from the group type alone: with
    ``mgroup_structure`` refused, through both the binding of ``typevec``
    and that of ``fscalc``, each call of the digest grid builds the same
    design, or refuses with a ValueError, exactly as it does without."""

    def outcomes():
        out = []
        for label, call in family_calls():
            try:
                out.append((label, call()))
            except ValueError:
                out.append((label, "ValueError"))
        return out

    built = AssertionError("a design built a group type's structure")
    with mock.patch("ptcache.typevec.mgroup_structure", side_effect=built), \
            mock.patch("ptcache.fscalc.mgroup_structure", side_effect=built):
        named = outcomes()
    assert named == outcomes()


# ------------------------------------------------------------- validations


@pytest.mark.parametrize("sender", [(0, 3), (1, 1), (0, 0)])
def test_unknown_unique_set_name_refused(sender):
    """A (block, cardinality) that the group type has no unique set for is
    refused, not resolved to some other set."""
    g = make_grouping(4, (2, 2))
    gtype = TypeVector(((2, 1),))
    block, cardinality = sender
    with pytest.raises(LookupError, match=f"block={block}, cardinality={cardinality}"):
        _spec("bad", g, 2, {gtype: sender}, (), ())


@pytest.mark.parametrize(
    "call",
    [
        lambda: jcm_design(4, 0),
        lambda: jcm_design(4, 4),
        lambda: theorem1_design(7, 2),
        lambda: theorem1_design(8, 3),
        lambda: theorem1_design(8, 6),
        lambda: theorem1_design(8, 2, variant="bogus"),
        lambda: theorem2_design(8, 3),
        lambda: theorem2_design(8, 8),
        lambda: theorem2_design(5, 2),
        lambda: theorem3_design(2, 4, 2),
        lambda: theorem3_design(4, 4, 1),
        lambda: theorem3_design(3, 3, 3),
        lambda: special_designs("lemma2", 8),
        lambda: special_designs("lemma2", 8, q=3),
        lambda: special_designs("odd_k_tbar2", 8),
        lambda: special_designs("odd_k_tbar2", 5),
        lambda: special_designs("tbar3", 8),
        lambda: special_designs("t3_halfsplit", 6),
        lambda: special_designs("k5_t3", 7),
        lambda: special_designs("nope", 5),
        lambda: dpda_specials("t2", 7),
        lambda: dpda_specials("t9", 8),
        lambda: dpda_specials("t_km2", 2),
    ],
)
def test_out_of_range_parameters_rejected(call):
    with pytest.raises(ValueError):
        call()


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
