"""Exact-arithmetic checks for the counting helpers.

Oracles used here are deliberately independent implementations: Pascal's
triangle for binomials, the pentagonal-number recurrence for partition
counts, and factorial ratios for multinomials.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ptcache.combinat import (
    binomial,
    binomial_exceeds,
    box_partition_counts,
    integer_partitions,
    multinomial,
    subsets,
)


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        tri.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return tri


def partition_count_oracle(n):
    """p(n) via Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, sign = 1, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            p[m] += sign * p[m - g1]
            if g2 <= m:
                p[m] += sign * p[m - g2]
            k += 1
            sign = -sign
    return p[n]


def test_binomial_matches_pascal():
    tri = pascal_triangle(25)
    for n in range(25):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]


def test_binomial_frozen_values():
    assert binomial(4, 2) == 6
    assert binomial(8, 3) == 56
    assert binomial(9, 6) == 84
    assert binomial(12, 6) == 924
    assert binomial(40, 20) == 137846528820


@given(
    n=st.integers(-3, 70), k=st.integers(-3, 70), cap=st.integers(0, 2**40)
)
def test_binomial_exceeds_matches_the_exact_count(n, k, cap):
    exact = math.comb(n, k) if 0 <= k <= n else 0
    assert binomial_exceeds(n, k, cap) == (exact > cap)


def test_binomial_exceeds_stops_early_on_huge_arguments():
    """C(10^40, 5 * 10^39) has about 10^40 bits; the check needs two steps."""
    assert binomial_exceeds(10**40, 5 * 10**39, 2**17)
    assert binomial_exceeds(10**40, 10**40 - 1, 2**17)
    assert not binomial_exceeds(10**40, 10**40, 2**17)
    assert not binomial_exceeds(10**40, 10**40 + 1, 2**17)


def test_binomial_out_of_range():
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_multinomial_is_factorial_ratio(counts):
    total = sum(counts)
    expect = math.factorial(total)
    for c in counts:
        expect //= math.factorial(c)
    assert multinomial(counts) == expect


def test_partition_counts_frozen():
    got = [len(integer_partitions(n)) for n in range(10)]
    assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


@given(st.integers(0, 14))
def test_partition_count_matches_pentagonal_recurrence(n):
    assert len(integer_partitions(n)) == partition_count_oracle(n)


@given(st.integers(1, 12))
def test_partitions_are_valid_and_ordered(n):
    parts = integer_partitions(n)
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert sum(p) == n
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert all(x >= 1 for x in p)
    # reverse-lexicographic: each tuple strictly dominates the next
    for a, b in zip(parts, parts[1:]):
        assert a > b


def test_partitions_constrained():
    assert integer_partitions(6, max_parts=3, max_part=3) == [
        (3, 3),
        (3, 2, 1),
        (2, 2, 2),
    ]
    assert integer_partitions(5, max_part=2) == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert integer_partitions(0) == [()]
    assert integer_partitions(4, max_parts=1) == [(4,)]
    with pytest.raises(ValueError):
        integer_partitions(3, max_parts=-1)
    with pytest.raises(ValueError):
        integer_partitions(3, max_part=-1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: multinomial([2, -1]), "multiplicities must be >= 0"),
        (lambda: integer_partitions(-1), "n must be >= 0"),
        (lambda: subsets(-1, 0), "ground and size must be >= 0"),
        (lambda: subsets(3, -1), "ground and size must be >= 0"),
    ],
)
def test_combinat_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_bounded_partitions_equal_filtered_unbounded():
    """The bounded enumeration keeps exactly the unbounded list's partitions
    that fit both bounds, in the same order (0 bounds included)."""
    for n in range(15):
        every = integer_partitions(n)
        for max_parts in range(16):
            for max_part in range(16):
                want = [
                    p for p in every
                    if len(p) <= max_parts and all(x <= max_part for x in p)
                ]
                assert integer_partitions(n, max_parts, max_part) == want


def test_partitions_take_one_frame_per_distinct_part():
    """Partitions far longer than Python's recursion limit come back: the
    recursion goes one level per distinct part value, not per part."""
    assert integer_partitions(3000, max_part=1) == [(1,) * 3000]
    halves = integer_partitions(1000, max_part=2)
    assert len(halves) == 501
    assert (halves[0], halves[-1]) == ((2,) * 500, (1,) * 1000)


def test_subsets_are_lexicographic():
    got = list(subsets(4, 2))
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert got == sorted(got)


@given(st.integers(1, 9), st.integers(0, 9))
def test_subsets_against_itertools(ground, size):
    if size > ground:
        with pytest.raises(ValueError):
            list(subsets(ground, size))
        return
    got = list(subsets(ground, size))
    assert got == list(combinations(range(1, ground + 1), size))
    assert len(got) == binomial(ground, size)


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 30))
def test_box_partition_counts_match_the_listed_partitions(parts, largest, top):
    assert box_partition_counts(parts, largest, top) == [
        len(integer_partitions(s, max_parts=parts, max_part=largest))
        for s in range(top + 1)
    ]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
