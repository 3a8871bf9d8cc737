"""Constructors for the known good scheme families.

Each constructor validates its applicability window, builds the grouping and
the per-group-type transmitter rules, and records the expected reconciled
split factors (in the family's traditional column order) plus a closed-form
subpacketization where one is known.  The engine re-derives both from
scratch, so the expectations double as an end-to-end cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Mapping

from .combinat import binomial
from .fscalc import jcm_baseline
from .typevec import (
    Grouping,
    TypeVector,
    enumerate_types,
    make_grouping,
    mgroup_structure,
    type_count,
)

# tx_rules values: frozenset of 1-based unique-set indices, or None for an
# explicit "skip this group type" (only valid when everything it involves is
# excluded anyway; the engine enforces that).  The constructors below name the
# transmitting unique sets by (block, cardinality) through _select.
TxRules = Mapping[TypeVector, "frozenset[int] | None"]

SPECIAL_KINDS = ("lemma2", "odd_k_tbar2", "tbar3", "t3_halfsplit", "k5_t3")
DPDA_MODES = ("t2", "t_km2")


@dataclass(frozen=True)
class DesignSpec:
    name: str
    K: int
    t: int
    grouping_sizes: tuple[int, ...]
    tx_rules: TxRules
    type_order: tuple[TypeVector, ...]
    expected_global_fs: tuple[int, ...] | None = None
    expected_f_pt: int | None = None


def _select(
    g: Grouping, gtype: TypeVector, name: tuple[int, int] | None = None
) -> frozenset[int]:
    """The selection of ``gtype``'s unique set named ``name`` = (block,
    cardinality), or of all its unique sets when ``name`` is None."""
    names = [(u.block, u.cardinality) for u in mgroup_structure(g, gtype).unique_sets]
    if name is None:
        return frozenset(range(1, len(names) + 1))
    if name not in names:
        block, cardinality = name
        raise LookupError(
            f"no unique set with block={block}, cardinality={cardinality} in {gtype}"
        )
    return frozenset({names.index(name) + 1})


def _dot_expectation(
    g: Grouping, order: tuple[TypeVector, ...], factors: tuple[int, ...]
) -> int:
    return sum(f * type_count(g, v) for v, f in zip(order, factors))


def jcm_design(K: int, t: int) -> DesignSpec:
    """Single-group baseline: everyone transmits in every group."""
    if not 1 <= t <= K - 1:
        raise ValueError(f"need 1 <= t <= K-1, got K={K}, t={t}")
    g = make_grouping(K, (K,))
    rules = {gt: _select(g, gt) for gt, _ in enumerate_types(g, t + 1)}
    order = tuple(v for v, _ in enumerate_types(g, t))
    return DesignSpec(
        name=f"jcm-K{K}-t{t}",
        K=K,
        t=t,
        grouping_sizes=(K,),
        tx_rules=rules,
        type_order=order,
        expected_global_fs=(t,),
        expected_f_pt=jcm_baseline(K, t)[0],
    )


def theorem1_design(K: int, t_bar: int, variant: str = "orderwise") -> DesignSpec:
    """Pair-group family for large caches (t = K - t_bar, t_bar even).

    "orderwise" staggers transmitter sets so that factors grow slowly along
    the type chain; "fallback" lets everyone transmit except in the first
    group type, giving the flat (0, t, ..., t) factor profile.  With t_bar=2
    there is only one group type and the two variants coincide.
    """
    if variant not in ("orderwise", "fallback"):
        raise ValueError(f"unknown variant {variant!r}")
    if K % 2 or K < 4:
        raise ValueError(f"K must be even and >= 4, got {K}")
    if t_bar % 2 or t_bar < 2 or t_bar > K // 2:
        raise ValueError(f"t_bar must be even with 2 <= t_bar <= K/2, got {t_bar}")
    m, r, t = K // 2, t_bar // 2, K - t_bar
    g = make_grouping(K, (2,) * m)

    def vtype(i: int) -> TypeVector:
        return TypeVector(
            ((2,) * (m - r - i + 1) + (1,) * (2 * (i - 1)) + (0,) * (r - i + 1),)
        )

    def stype(i: int) -> TypeVector:
        return TypeVector(
            ((2,) * (m - r - i + 1) + (1,) * (2 * i - 1) + (0,) * (r - i),)
        )

    staggered = variant == "orderwise"
    rules = {
        stype(i): _select(g, stype(i), (0, 1) if staggered or i == 1 else None)
        for i in range(1, r + 1)
    }

    order = tuple(vtype(i) for i in range(1, r + 2))
    if staggered or r == 1:
        # the traditional staggered products can share a common factor (first
        # at r=4, where it is 3); the reconciled factors are minimal, so
        # normalize by the gcd
        expected = [
            prod(2 * k - 1 for k in range(1, i))
            * prod(2 * k for k in range(i - 1, r))
            for i in range(2, r + 2)
        ]
        shrink = gcd(*expected)
        expected = [0] + [e // shrink for e in expected]
    else:
        expected = [0] + [t] * r
    exp = tuple(expected)
    return DesignSpec(
        name=f"thm1-K{K}-tbar{t_bar}-{variant}",
        K=K,
        t=t,
        grouping_sizes=(2,) * m,
        tx_rules=rules,
        type_order=order,
        expected_global_fs=exp,
        expected_f_pt=_dot_expectation(g, order, exp),
    )


def theorem1_bound(K: int, t_bar: int) -> Fraction:
    """Guaranteed subpacketization ratio for the pair-group family."""
    t = K - t_bar
    raw = Fraction(prod(2 * i - 1 for i in range(1, t_bar // 2 + 1)), t)
    return min(raw, Fraction(1))


def theorem2_design(K: int, t: int) -> DesignSpec:
    """Half-split family: two groups of K/2, even t."""
    if K % 2 or K < 4:
        raise ValueError(f"K must be even and >= 4, got {K}")
    if t % 2 or not 2 <= t <= K - 2:
        raise ValueError(f"t must be even with 2 <= t <= K-2, got {t}")
    q, r = K // 2, t // 2
    x = max(t - q, 0)
    y = max(t + 1 - q, 0)
    num_v = r + 1 - x
    g = make_grouping(K, (q, q))

    order = tuple(
        TypeVector(((t - x - i + 1, x + i - 1),)) for i in range(1, num_v + 1)
    )
    rules = {}
    for low in range(y, r + 1):
        s = TypeVector(((t + 1 - low, low),))
        rules[s] = _select(g, s, (0, low) if low else None)  # all send in (t+1, 0)
    expected = tuple(range(max(y - 1, 0), max(y - 1, 0) + num_v))
    return DesignSpec(
        name=f"thm2-K{K}-t{t}",
        K=K,
        t=t,
        grouping_sizes=(q, q),
        tx_rules=rules,
        type_order=order,
        expected_global_fs=expected,
        expected_f_pt=_dot_expectation(g, order, expected),
    )


def theorem3_design(m: int, q: int, t: int) -> DesignSpec:
    """m groups of q with both dimensions comfortably above t.

    t = 1 is rejected: the construction then excludes its only subfile type
    and nothing would ever be placed or sent.
    """
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    if m < t + 1 or q < t + 1:
        raise ValueError(f"need m, q >= t+1, got m={m}, q={q}, t={t}")
    K = m * q
    g = make_grouping(K, (q,) * m)
    split = TypeVector(((t, 1) + (0,) * (m - 2),))
    rules = {
        gt: _select(g, gt, (0, 1) if gt == split else None)
        for gt, _ in enumerate_types(g, t + 1)
    }
    order = tuple(v for v, _ in enumerate_types(g, t))
    expected = (0,) + (t,) * (len(order) - 1)
    return DesignSpec(
        name=f"thm3-m{m}-q{q}-t{t}",
        K=K,
        t=t,
        grouping_sizes=(q,) * m,
        tx_rules=rules,
        type_order=order,
        expected_global_fs=expected,
        expected_f_pt=t * binomial(K, t) - m * t * binomial(q, t),
    )


def _lemma2(K: int, q: int) -> DesignSpec:
    if q < 2 or K % q or K // q < 2:
        raise ValueError(f"need q >= 2 dividing K with at least two groups, got K={K}, q={q}")
    m = K // q
    t = K - 2
    g = make_grouping(K, (q,) * m)
    s = TypeVector(((q,) * (m - 1) + (q - 1,),))
    rules = {s: _select(g, s, (0, q - 1))}
    order = (
        TypeVector(((q,) * (m - 1) + (q - 2,),)),
        TypeVector(((q,) * (m - 2) + (q - 1, q - 1),)),
    )
    return DesignSpec(
        name=f"lemma2-K{K}-q{q}",
        K=K,
        t=t,
        grouping_sizes=(q,) * m,
        tx_rules=rules,
        type_order=order,
        expected_global_fs=(q - 2, q - 1),
        expected_f_pt=K * (q - 1) * (K - 2) // 2,
    )


def _odd_k_tbar2(K: int) -> DesignSpec:
    if K % 2 == 0 or K < 7:
        raise ValueError(f"K must be odd and >= 7, got {K}")
    m = (K - 1) // 2
    t = K - 2
    sizes = (3,) + (2,) * (m - 1)
    g = make_grouping(K, sizes)
    s1 = TypeVector(((2,), (2,) * (m - 1)))
    s2 = TypeVector(((3,), (2,) * (m - 2) + (1,)))
    rules = {s1: _select(g, s1, (0, 2)), s2: _select(g, s2, (1, 1))}
    order = (
        TypeVector(((1,), (2,) * (m - 1))),
        TypeVector(((2,), (2,) * (m - 2) + (1,))),
        TypeVector(((3,), (2,) * (m - 3) + (1, 1))),
        TypeVector(((3,), (2,) * (m - 2) + (0,))),
    )
    return DesignSpec(
        name=f"oddk-tbar2-K{K}",
        K=K,
        t=t,
        grouping_sizes=sizes,
        tx_rules=rules,
        type_order=order,
        expected_global_fs=(1, 2, 2, 0),
        expected_f_pt=K * (K - 2),
    )


def _tbar3(K: int) -> DesignSpec:
    if K % 3 or K < 9:
        raise ValueError(f"K must be a multiple of 3 with at least 3 groups, got {K}")
    m = K // 3
    t = K - 3
    g = make_grouping(K, (3,) * m)
    s1 = TypeVector(((3,) * (m - 1) + (1,),))
    s2 = TypeVector(((3,) * (m - 2) + (2, 2),))
    rules = {s1: _select(g, s1, (0, 1)), s2: _select(g, s2, (0, 2))}
    order = (
        TypeVector(((3,) * (m - 3) + (2, 2, 2),)),
        TypeVector(((3,) * (m - 2) + (2, 1),)),
        TypeVector(((3,) * (m - 1) + (0,),)),
    )
    return DesignSpec(
        name=f"tbar3-K{K}",
        K=K,
        t=t,
        grouping_sizes=(3,) * m,
        tx_rules=rules,
        type_order=order,
        expected_global_fs=(4, 3, 0),
        expected_f_pt=K * (K - 3) * (2 * K - 3) // 3,
    )


def _t3_halfsplit(K: int) -> DesignSpec:
    if K % 2 or K < 8:
        raise ValueError(f"K must be even and >= 8, got {K}")
    q = K // 2
    g = make_grouping(K, (q, q))
    s_top = TypeVector(((4, 0),))
    s_mid = TypeVector(((3, 1),))
    s_pair = TypeVector(((2, 2),))
    rules = {
        s_top: _select(g, s_top),
        s_mid: _select(g, s_mid, (0, 1)),
        s_pair: _select(g, s_pair),
    }
    order = (TypeVector(((3, 0),)), TypeVector(((2, 1),)))
    return DesignSpec(
        name=f"t3-halfsplit-K{K}",
        K=K,
        t=3,
        grouping_sizes=(q, q),
        tx_rules=rules,
        type_order=order,
        expected_global_fs=(0, 3),
        expected_f_pt=3 * K * K * (K - 2) // 8,
    )


def _k5_t3(K: int) -> DesignSpec:
    if K != 5:
        raise ValueError(f"this design is specific to K=5, got {K}")
    g = make_grouping(5, (3, 2))
    s1 = TypeVector(((2,), (2,)))
    s2 = TypeVector(((3,), (1,)))
    rules = {s1: _select(g, s1, (0, 2)), s2: _select(g, s2, (1, 1))}
    order = (
        TypeVector(((1,), (2,))),
        TypeVector(((2,), (1,))),
        TypeVector(((3,), (0,))),
    )
    return DesignSpec(
        name="k5-t3",
        K=5,
        t=3,
        grouping_sizes=(3, 2),
        tx_rules=rules,
        type_order=order,
        expected_global_fs=(1, 2, 0),
        expected_f_pt=15,
    )


def special_designs(kind: str, K: int, q: int | None = None) -> DesignSpec:
    """Hand-crafted schemes outside the three parmetrized families."""
    if kind == "lemma2":
        if q is None:
            raise ValueError("lemma2 needs the group size q")
        return _lemma2(K, q)
    if kind == "odd_k_tbar2":
        return _odd_k_tbar2(K)
    if kind == "tbar3":
        return _tbar3(K)
    if kind == "t3_halfsplit":
        return _t3_halfsplit(K)
    if kind == "k5_t3":
        return _k5_t3(K)
    raise ValueError(f"unknown special design {kind!r} (choose from {SPECIAL_KINDS})")


def _t2(K: int) -> DesignSpec:
    if K % 2 or K < 4:
        raise ValueError(f"K must be even and >= 4, got {K}")
    q = K // 2
    g = make_grouping(K, (q, q))
    mixed = TypeVector(((2, 1),))
    rules = {
        gt: _select(g, gt, (0, 1) if gt == mixed else None)
        for gt, _ in enumerate_types(g, 3)
    }
    order = tuple(v for v, _ in enumerate_types(g, 2))
    return DesignSpec(
        name=f"dpda-t2-K{K}",
        K=K,
        t=2,
        grouping_sizes=(q, q),
        tx_rules=rules,
        type_order=order,
        expected_global_fs=(0, 1),
        expected_f_pt=K * K // 4,
    )


def dpda_specials(t_mode: str, K: int) -> DesignSpec:
    """Lowest-subpacketization schemes at the two extreme cache points."""
    if t_mode == "t2":
        return _t2(K)
    if t_mode == "t_km2":
        if K < 3:
            raise ValueError(f"K must be >= 3, got {K}")
        if K == 3:
            return jcm_design(3, 1)
        if K == 5:
            return _k5_t3(5)
        if K % 2 == 0:
            return _lemma2(K, 2)
        return _odd_k_tbar2(K)
    raise ValueError(f"unknown mode {t_mode!r} (choose from {DPDA_MODES})")
