"""Tests for user groupings, intersection-profile types and group anatomy.

The load-bearing oracle here is brute force: classify every t-subset of the
user set by its intersection profile and compare against the closed-form
enumeration/counting.  Everything else (unique sets, per-user counts) is
checked the same way on small instances, plus frozen values worked out by
hand.
"""

import gc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import grouping_with_t, unique_set_members
from ptcache.combinat import binomial, integer_partitions
from ptcache.typevec import (
    TypeVector,
    enumerate_types,
    is_realizable,
    make_grouping,
    mgroup_structure,
    per_user_count,
    profile,
    type_count,
    type_of,
    unique_set_names,
)


# ---------------------------------------------------------------- groupings


def test_make_grouping_basic():
    g = make_grouping(7, (3, 2, 1, 1))
    assert g.K == 7
    assert g.sizes == (3, 2, 1, 1)
    assert g.blocks == ((3, 1), (2, 1), (1, 2))
    assert len(g.sizes) == 4
    assert g.group_members == ((1, 2, 3), (4, 5), (6,), (7,))
    assert g.block_of_group[g.group_of[1]] == 0
    assert g.block_of_group[g.group_of[4]] == 1
    assert g.block_of_group[g.group_of[7]] == 2


def test_make_grouping_canonicalizes_order():
    g = make_grouping(7, (1, 3, 2, 1))
    assert g.sizes == (3, 2, 1, 1)


def test_make_grouping_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_grouping(5, (3, 3))  # sums to 6
    with pytest.raises(ValueError):
        make_grouping(4, (4, 0))
    with pytest.raises(ValueError):
        make_grouping(3, ())


G22 = make_grouping(4, (2, 2))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: type_of(G22, (0, 1)), r"subset \[0, 1\] not within users 1..4"),
        (lambda: type_of(G22, (1, 5)), r"subset \[1, 5\] not within users 1..4"),
        (lambda: enumerate_types(G22, -1), "total -1 out of range for K=4"),
        (lambda: enumerate_types(G22, 5), "total 5 out of range for K=4"),
        (lambda: per_user_count(G22, type_of(G22, (1, 3)), 0), "block index 0 out of range"),
        (lambda: per_user_count(G22, type_of(G22, (1, 3)), 2), "block index 2 out of range"),
    ],
)
def test_typevec_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_block_structure_merges_equal_sizes():
    g = make_grouping(8, (2, 2, 2, 2))
    assert g.blocks == ((2, 4),)
    assert g.block_groups == ((0, 1, 2, 3),)
    g2 = make_grouping(9, (3, 3, 3))
    assert g2.blocks == ((3, 3),)


# ------------------------------------------------------------------- types


def test_type_of_frozen():
    g = make_grouping(10, (3, 2, 2, 1, 1, 1))
    v = type_of(g, {1, 2, 5, 6, 7, 8})
    assert v.text() == "2|2,1|1,0,0"
    assert sum(v.flat) == 6
    assert type_of(g, ()) == TypeVector(((0,), (0, 0), (0, 0, 0)))


def test_profile_counts_members_per_group():
    g = make_grouping(10, (3, 2, 2, 1, 1, 1))
    assert profile(g, (1, 2, 5, 6, 7, 8)) == (2, 1, 2, 1, 0, 0)
    assert profile(g, ()) == (0,) * 6


def test_type_text_parse_roundtrip():
    g = make_grouping(10, (3, 2, 2, 1, 1, 1))
    for T in [(1, 4, 6), (8, 9, 10), (1, 2, 3), (3, 5, 7)]:
        v = type_of(g, T)
        assert TypeVector.parse(v.text()) == v


def test_type_vector_validation():
    """Each refusal names its reason; a negative entry is reported first,
    even in a block that also increases."""
    cases = {
        ((-1, 2),): "negative entry",
        ((2, -1),): "negative entry",
        ((1, 2),): "not non-increasing",
        ((2, 2), (0, 1)): "not non-increasing",
    }
    for blocks, message in cases.items():
        with pytest.raises(ValueError, match=message):
            TypeVector(blocks)


def test_trusted_type_vector_equals_a_checked_one():
    """A type built without the checks, as enumeration and ``type_of``
    build them, equals and hashes like one built by ``TypeVector(...)``,
    and no type can be changed."""
    blocks = ((2, 1, 0), (1,))
    checked, trusted = TypeVector(blocks), TypeVector._trusted(blocks)
    assert checked == trusted and hash(checked) == hash(trusted)
    assert {trusted: 1}[checked] == 1
    g = make_grouping(7, (2, 2, 2, 1))
    assert type_of(g, (1, 2, 3, 7)) == checked
    assert checked in dict(enumerate_types(g, 4))
    assert checked != TypeVector(((2, 1, 0), (0,))) and checked != blocks
    for name in ("blocks", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(checked, name, ((1, 1, 1), (1,)))
    with pytest.raises(AttributeError):
        del checked.blocks
    assert checked.blocks == blocks and hash(checked) == hash(trusted)


def test_enumerate_types_frozen_counts():
    g = make_grouping(8, (4, 4))
    got = {v.text(): c for v, c in enumerate_types(g, 3)}
    assert got == {"3,0": 8, "2,1": 48}
    g2 = make_grouping(9, (3, 3, 3))
    got2 = {v.text(): c for v, c in enumerate_types(g2, 6)}
    assert got2 == {"3,3,0": 3, "3,2,1": 54, "2,2,2": 27}


def brute_type_census(g, t):
    return Counter(type_of(g, T) for T in combinations(range(1, g.K + 1), t))


@settings(max_examples=60, deadline=None)
@given(grouping_with_t(max_K=8))
def test_enumerate_types_matches_brute_force(params):
    K, sizes, t = params
    g = make_grouping(K, sizes)
    brute = brute_type_census(g, t)
    typed = enumerate_types(g, t)
    assert dict(typed) == dict(brute)
    # enumeration is in canonical (descending flat profile) order
    flats = [v.flat for v, _ in typed]
    assert flats == sorted(flats, reverse=True)
    # ... and counts cover every subset exactly once
    assert sum(c for _, c in typed) == binomial(K, t)
    for v, c in typed:
        assert is_realizable(g, v)
        assert type_count(g, v) == c


@pytest.mark.parametrize("sizes", [(3, 3, 2, 1, 1), (2, 2, 1), (4, 2, 2, 1), (3, 1, 1, 1)])
def test_enumerate_types_matches_brute_force_on_tight_blocks(sizes):
    """Multi-block groupings whose later blocks bound what earlier ones take."""
    g = make_grouping(sum(sizes), sizes)
    for t in range(g.K + 1):
        typed = enumerate_types(g, t)
        assert dict(typed) == dict(brute_type_census(g, t))
        flats = [v.flat for v, _ in typed]
        assert flats == sorted(flats, reverse=True)


def test_enumerate_types_only_builds_partitions_it_uses(monkeypatch):
    """Pair groups at total K-1: the single block must take all 99 users, so
    exactly one partition list is built."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integer_partitions(*args, **kwargs)

    monkeypatch.setattr("ptcache.typevec.integer_partitions", counted)
    typed = enumerate_types(make_grouping(100, (2,) * 50), 99)
    assert len(calls) == 1
    assert [(v.text(), c) for v, c in typed] == [(",".join(["2"] * 49 + ["1"]), 100)]


def test_enumerate_types_of_a_thousand_singletons():
    """1,000 groups of one user each at total 1,000: the block's partition
    into 1,000 ones is built without a RecursionError."""
    typed = enumerate_types(make_grouping(1000, [1] * 1000), 1000)
    assert typed == [(TypeVector(((1,) * 1000,)), 1)]


def test_enumeration_leaves_no_cyclic_garbage():
    """``enumerate_types`` and ``integer_partitions`` recurse through inner
    functions that refer to themselves; each drops its own once done, so
    the types and partitions it built are freed when the caller drops them,
    not whenever the cycle collector next runs."""
    gc.collect()
    gc.disable()
    try:
        enumerate_types(make_grouping(6, (2, 2, 1, 1)), 3)
        integer_partitions(7)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(grouping_with_t(max_K=8), st.randoms(use_true_random=False))
def test_type_is_invariant_under_symmetry(params, rnd):
    """Permuting same-size groups or users within a group keeps the type."""
    K, sizes, t = params
    g = make_grouping(K, sizes)
    T = rnd.sample(range(1, K + 1), t)
    v = type_of(g, T)

    # relabel users within each group
    perm = {}
    for members in g.group_members:
        shuffled = list(members)
        rnd.shuffle(shuffled)
        perm.update(dict(zip(members, shuffled)))
    assert type_of(g, [perm[u] for u in T]) == v

    # swap two whole groups of equal size
    same = [
        (a, b)
        for a in range(len(g.sizes))
        for b in range(a + 1, len(g.sizes))
        if g.sizes[a] == g.sizes[b]
    ]
    if same:
        a, b = rnd.choice(same)
        swap = dict(zip(g.group_members[a], g.group_members[b]))
        swap.update(dict(zip(g.group_members[b], g.group_members[a])))
        assert type_of(g, [swap.get(u, u) for u in T]) == v


# ------------------------------------------------------------- unique sets


def named_structure(g, text):
    """(name, size, involved type text) of each unique set of the group type
    ``text``: ``mgroup_structure``'s pairs zipped with their names."""
    gt = TypeVector.parse(text)
    pairs = mgroup_structure(g, gt)
    assert len(pairs) == len(unique_set_names(gt))
    return [
        (name, size, v.text()) for name, (size, v) in zip(unique_set_names(gt), pairs)
    ]


def test_unique_sets_split_by_block_and_cardinality():
    g = make_grouping(8, (4, 4))
    assert named_structure(g, "3,1") == [((0, 3), 3, "2,1"), ((0, 1), 1, "3,0")]


def test_unique_sets_merge_within_block_only():
    # two groups with the same intersection size in the same block merge ...
    g = make_grouping(9, (3, 3, 3))
    assert [(name, size) for name, size, _ in named_structure(g, "3,3,1")] == [
        ((0, 3), 6),
        ((0, 1), 1),
    ]
    # ... but the same cardinality in different blocks stays separate
    g2 = make_grouping(5, (3, 2))
    assert named_structure(g2, "2|2") == [((0, 2), 2, "1|2"), ((1, 2), 2, "2|1")]


def test_unrealizable_group_type_rejected():
    g = make_grouping(4, (2, 2))
    with pytest.raises(ValueError):
        mgroup_structure(g, TypeVector(((3, 0),)))


def test_unrealizable_type_is_not_counted():
    """A type with the wrong number of blocks, a block of the wrong width
    or an entry above its group size is not realizable, and ``type_count``
    refuses it."""
    g = make_grouping(4, (2, 2))  # one block of two groups of two
    assert is_realizable(g, TypeVector(((2, 1),)))
    for v in (TypeVector(((2, 1), (0,))), TypeVector(((2,),)), TypeVector(((3, 0),))):
        assert not is_realizable(g, v)
        with pytest.raises(ValueError, match="is not realizable"):
            type_count(g, v)


@settings(max_examples=60, deadline=None)
@given(grouping_with_t(max_K=8), st.randoms(use_true_random=False))
def test_structure_is_representative_independent(params, rnd):
    K, sizes, t = params
    g = make_grouping(K, sizes)
    # pick a random concrete group and compare to the canonical structure
    S = tuple(sorted(rnd.sample(range(1, K + 1), t)))
    gt = type_of(g, S)
    st_ = mgroup_structure(g, gt)
    concrete = unique_set_members(g, S)
    assert unique_set_names(gt) == tuple(name for name, _ in concrete)
    assert [(name, len(users)) for name, users in concrete] == [
        (name, size) for name, (size, _) in zip(unique_set_names(gt), st_)
    ]
    # removing any member of unique set i from S realizes involved type i
    for (_, users), (_, want) in zip(concrete, st_):
        for member in users:
            rest = tuple(x for x in S if x != member)
            assert type_of(g, rest) == want


@settings(max_examples=60, deadline=None)
@given(grouping_with_t(max_K=8))
def test_involved_types_are_distinct_and_owned(params):
    K, sizes, t = params
    g = make_grouping(K, sizes)
    for gt, _ in enumerate_types(g, t + 1):
        st_ = mgroup_structure(g, gt)
        assert len(st_) == len(unique_set_names(gt))
        involved = [v for _, v in st_]
        assert len(set(involved)) == len(st_)
        for i, v in enumerate(involved, start=1):
            assert involved.index(v) + 1 == i


# --------------------------------------------------------- per-user counts


def test_per_user_count_frozen_mixed_grouping():
    g = make_grouping(7, (3, 2, 2))
    cases = {
        "1|2,2": (1, 3),
        "2|2,1": (8, 9),
        "3|1,1": (4, 2),
        "3|2,0": (2, 1),
    }
    for text, (big, small) in cases.items():
        v = TypeVector.parse(text)
        assert per_user_count(g, v, 1) == big
        assert per_user_count(g, v, 2) == small


def brute_per_user(g, v, block_index):
    # pick the first user of the first group in the block
    gi = g.block_groups[block_index - 1][0]
    u = g.group_members[gi][0]
    t = sum(v.flat)
    return sum(
        1
        for T in combinations(range(1, g.K + 1), t)
        if u in T and type_of(g, T) == v
    )


@settings(max_examples=40, deadline=None)
@given(grouping_with_t(max_K=7))
def test_per_user_count_matches_brute_force(params):
    K, sizes, t = params
    g = make_grouping(K, sizes)
    for v, _ in enumerate_types(g, t):
        for bi in range(1, len(g.blocks) + 1):
            assert per_user_count(g, v, bi) == brute_per_user(g, v, bi)


@pytest.mark.parametrize("K", range(2, 13))
def test_equal_grouping_per_user_identity(K):
    """With all groups the same size every user holds t*F(v)/K subsets of
    each type."""
    for q in range(1, K + 1):
        if K % q:
            continue
        g = make_grouping(K, (q,) * (K // q))
        for t in range(1, K):
            for v, c in enumerate_types(g, t):
                assert K * per_user_count(g, v, 1) == t * c


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
