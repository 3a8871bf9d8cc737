"""Constructors for the known good scheme families.

Each constructor validates its applicability window, builds the grouping,
names the transmitting unique sets of each group type, and records the
expected reconciled split factors (in the family's traditional column order)
plus a closed-form subpacketization where one is known; without one, the
expected subpacketization is computed when it is first read.  The engine
re-derives both from scratch, so the expectations double as an end-to-end
cross-check.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from .combinat import binomial
from .fscalc import jcm_baseline
from .typevec import (
    Grouping,
    TypeVector,
    enumerate_types,
    make_grouping,
    type_count,
    unique_set_names,
)

# tx_rules values: frozenset of 1-based unique-set indices, or None for an
# explicit "skip this group type" (only valid when everything it involves is
# excluded anyway; the engine enforces that).  The constructors below name the
# transmitting unique sets by (block, cardinality) and _spec resolves them.
TxRules = Mapping[TypeVector, "frozenset[int] | None"]

SPECIAL_KINDS = ("lemma2", "odd_k_tbar2", "tbar3", "t3_halfsplit", "k5_t3")
DPDA_MODES = ("t2", "t_km2")


class DesignSpec:
    """A named scheme: (K, t), grouping, transmitter rules, and the expected
    global split factors of the types in ``type_order`` and F_PT."""

    def __init__(
        self, name, K, t, grouping_sizes, tx_rules: TxRules, type_order,
        expected_global_fs=None, expected_f_pt=None,
    ):
        self.name, self.K, self.t, self.grouping_sizes = name, K, t, grouping_sizes
        self.tx_rules, self.type_order = tx_rules, type_order
        self.expected_global_fs = expected_global_fs
        if expected_f_pt is not None:
            self.expected_f_pt = expected_f_pt

    def __eq__(self, other):
        if other.__class__ is not DesignSpec:
            return NotImplemented
        # every field; the expected F_PT first, so that both hold it
        return (self.expected_f_pt, vars(self)) == (other.expected_f_pt, vars(other))

    @cached_property
    def expected_f_pt(self) -> int | None:
        """The value given or, given None with expected factors, their
        count-weighted sum over type_order, computed on the first read (a
        sweep reads neither expectation)."""
        if self.expected_global_fs is None:
            return None
        g = make_grouping(self.K, self.grouping_sizes)
        pairs = zip(self.expected_global_fs, self.type_order)
        return sum(f * type_count(g, v) for f, v in pairs)


def _spec(
    name: str,
    g: Grouping,
    t: int,
    senders: Mapping[TypeVector, tuple[int, int] | None],
    order: tuple[TypeVector, ...],
    fs: tuple[int, ...],
    f_pt: int | None = None,
) -> DesignSpec:
    """The design ``name``: ``senders`` maps each transmitting group type to
    the (block, cardinality) of its one transmitting unique set, or to None
    when all of them transmit.  ``fs`` are the expected factors of the types
    in ``order``; without a closed form ``f_pt``, the expected F_PT is their
    count-weighted sum, computed when read."""
    rules = {}
    for gtype, sender in senders.items():
        names = unique_set_names(gtype)
        if sender is None:
            rules[gtype] = frozenset(range(1, len(names) + 1))
        elif sender in names:
            rules[gtype] = frozenset({names.index(sender) + 1})
        else:
            block, cardinality = sender
            raise LookupError(
                f"no unique set with block={block}, cardinality={cardinality} in {gtype}"
            )
    return DesignSpec(name, g.K, t, g.sizes, rules, order, fs, f_pt)


def _types(g: Grouping, total: int) -> tuple[TypeVector, ...]:
    return tuple(v for v, _ in enumerate_types(g, total))


def jcm_design(K: int, t: int) -> DesignSpec:
    """Single-group baseline: everyone transmits in every group."""
    if not 1 <= t <= K - 1:
        raise ValueError(f"need 1 <= t <= K-1, got K={K}, t={t}")
    g = make_grouping(K, (K,))
    senders = dict.fromkeys(_types(g, t + 1))
    return _spec(
        f"jcm-K{K}-t{t}", g, t, senders, _types(g, t), (t,), jcm_baseline(K, t)[0]
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
    senders = {
        stype(i): (0, 1) if staggered or i == 1 else None for i in range(1, r + 1)
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
    name = f"thm1-K{K}-tbar{t_bar}-{variant}"
    return _spec(name, g, t, senders, order, tuple(expected))


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
    senders = {  # all send in (t+1, 0)
        TypeVector(((t + 1 - low, low),)): (0, low) if low else None
        for low in range(y, r + 1)
    }
    expected = tuple(range(max(y - 1, 0), max(y - 1, 0) + num_v))
    return _spec(f"thm2-K{K}-t{t}", g, t, senders, order, expected)


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
    senders = {gt: (0, 1) if gt == split else None for gt in _types(g, t + 1)}
    order = _types(g, t)
    expected = (0,) + (t,) * (len(order) - 1)
    f_pt = t * binomial(K, t) - m * t * binomial(q, t)
    return _spec(f"thm3-m{m}-q{q}-t{t}", g, t, senders, order, expected, f_pt)


def _lemma2(K: int, q: int) -> DesignSpec:
    if q < 2 or K % q or K // q < 2:
        raise ValueError(f"need q >= 2 dividing K with at least two groups, got K={K}, q={q}")
    m = K // q
    g = make_grouping(K, (q,) * m)
    senders = {TypeVector(((q,) * (m - 1) + (q - 1,),)): (0, q - 1)}
    order = (
        TypeVector(((q,) * (m - 1) + (q - 2,),)),
        TypeVector(((q,) * (m - 2) + (q - 1, q - 1),)),
    )
    f_pt = K * (q - 1) * (K - 2) // 2
    return _spec(f"lemma2-K{K}-q{q}", g, K - 2, senders, order, (q - 2, q - 1), f_pt)


def _odd_k_tbar2(K: int) -> DesignSpec:
    if K % 2 == 0 or K < 7:
        raise ValueError(f"K must be odd and >= 7, got {K}")
    m = (K - 1) // 2
    g = make_grouping(K, (3,) + (2,) * (m - 1))
    senders = {
        TypeVector(((2,), (2,) * (m - 1))): (0, 2),
        TypeVector(((3,), (2,) * (m - 2) + (1,))): (1, 1),
    }
    order = (
        TypeVector(((1,), (2,) * (m - 1))),
        TypeVector(((2,), (2,) * (m - 2) + (1,))),
        TypeVector(((3,), (2,) * (m - 3) + (1, 1))),
        TypeVector(((3,), (2,) * (m - 2) + (0,))),
    )
    f_pt = K * (K - 2)
    return _spec(f"oddk-tbar2-K{K}", g, K - 2, senders, order, (1, 2, 2, 0), f_pt)


def _tbar3(K: int) -> DesignSpec:
    if K % 3 or K < 9:
        raise ValueError(f"K must be a multiple of 3 with at least 3 groups, got {K}")
    m = K // 3
    g = make_grouping(K, (3,) * m)
    senders = {
        TypeVector(((3,) * (m - 1) + (1,),)): (0, 1),
        TypeVector(((3,) * (m - 2) + (2, 2),)): (0, 2),
    }
    order = (
        TypeVector(((3,) * (m - 3) + (2, 2, 2),)),
        TypeVector(((3,) * (m - 2) + (2, 1),)),
        TypeVector(((3,) * (m - 1) + (0,),)),
    )
    f_pt = K * (K - 3) * (2 * K - 3) // 3
    return _spec(f"tbar3-K{K}", g, K - 3, senders, order, (4, 3, 0), f_pt)


def _t3_halfsplit(K: int) -> DesignSpec:
    if K % 2 or K < 8:
        raise ValueError(f"K must be even and >= 8, got {K}")
    g = make_grouping(K, (K // 2, K // 2))
    senders = {
        TypeVector(((4, 0),)): None,
        TypeVector(((3, 1),)): (0, 1),
        TypeVector(((2, 2),)): None,
    }
    order = (TypeVector(((3, 0),)), TypeVector(((2, 1),)))
    f_pt = 3 * K * K * (K - 2) // 8
    return _spec(f"t3-halfsplit-K{K}", g, 3, senders, order, (0, 3), f_pt)


def _k5_t3(K: int) -> DesignSpec:
    if K != 5:
        raise ValueError(f"this design is specific to K=5, got {K}")
    g = make_grouping(5, (3, 2))
    senders = {TypeVector(((2,), (2,))): (0, 2), TypeVector(((3,), (1,))): (1, 1)}
    order = (
        TypeVector(((1,), (2,))),
        TypeVector(((2,), (1,))),
        TypeVector(((3,), (0,))),
    )
    return _spec("k5-t3", g, 3, senders, order, (1, 2, 0), 15)


def special_designs(kind: str, K: int, q: int | None = None) -> DesignSpec:
    """Hand-crafted schemes outside the three parametrized families."""
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
    g = make_grouping(K, (K // 2, K // 2))
    mixed = TypeVector(((2, 1),))
    senders = {gt: (0, 1) if gt == mixed else None for gt in _types(g, 3)}
    return _spec(f"dpda-t2-K{K}", g, 2, senders, _types(g, 2), (0, 1), K * K // 4)


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
