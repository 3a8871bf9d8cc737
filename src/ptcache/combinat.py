"""Small exact-combinatorics helpers shared by the whole package.

Everything here is deliberately boring: binomials, integer partitions in
reverse-lexicographic order, and fixed-size subset enumeration.  All values
are exact Python ints (arbitrary precision).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import combinations


# C(n, k) as an exact int: 0 for k > n, ValueError for a negative n or k
binomial = math.comb


def binomial_exceeds(n: int, k: int, cap: int) -> bool:
    """Whether C(n, k) > cap, without computing a C(n, k) far above it.

    C(n, 1), C(n, 2), ... up to k or n - k, whichever is smaller, grow by a
    factor of at least (n - i) / (i + 1) >= 1 each, so the walk stops at the
    first partial product above ``cap``: about log2(cap) steps, however large
    n and k are.  Out-of-range k counts as C(n, k) = 0.
    """
    k = min(k, n - k)
    if k < 0:
        return False  # C(n, k) = 0
    c = 1
    for i in range(k):
        if c > cap:
            return True
        c = c * (n - i) // (i + 1)
    return c > cap


def multinomial(counts: Sequence[int]) -> int:
    """Number of distinct orderings of a multiset with the given multiplicities."""
    total = 0
    out = 1
    for c in counts:
        if c < 0:
            raise ValueError("multiplicities must be >= 0")
        total += c
        out *= math.comb(total, c)
    return out


def integer_partitions(
    n: int,
    max_parts: int | None = None,
    max_part: int | None = None,
) -> list[tuple[int, ...]]:
    """All partitions of n into at most ``max_parts`` parts, each <= ``max_part``.

    Parts are non-increasing within a partition; partitions are returned in
    reverse-lexicographic order, i.e. (n,) first and (1,)*n last.  n = 0
    yields the single empty partition ().  A recursive frame takes one part
    value v, most copies first, then recurses on the parts below v: the
    depth is the number of distinct parts, at most sqrt(2n).  A value and a
    count are tried only if the parts still allowed can hold the rest, so
    every branch yields a partition and the work is proportional to the output.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_parts is None:
        max_parts = n
    if max_part is None:
        max_part = n
    if max_parts < 0 or max_part < 0:
        raise ValueError("max_parts and max_part must be >= 0")
    if n > max_parts * max_part:
        return []
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, slots: int, prefix: tuple[int, ...]) -> None:
        # invariant: remaining <= cap * slots
        if remaining == 0:
            out.append(prefix)
            return
        # a part below ceil(remaining / slots) leaves more than the slots hold
        for v in range(min(cap, remaining), -(-remaining // slots) - 1, -1):
            # c parts v, most first; parts below v fill the slots left, so
            # the rest fits only if c >= remaining - (v - 1) * slots
            fewest = max(1, remaining - (v - 1) * slots)
            for c in range(min(remaining // v, slots), fewest - 1, -1):
                rec(remaining - c * v, v - 1, slots - c, prefix + (v,) * c)

    rec(n, max_part, max_parts, ())
    del rec  # it refers to itself: free it, and what it holds, now
    return out


def box_partition_counts(parts: int, largest: int, top: int) -> list[int]:
    """Entry s, for s = 0..top: the partitions of s into at most ``parts``
    parts, each at most ``largest``, which fit in a parts-by-largest box."""
    # their generating function is the Gaussian binomial, the product over
    # i = 1..k of (1 - q^(n+i)) / (1 - q^i), k and n the box's shorter and
    # longer side: one pass over the coefficients up to top per factor
    k, n = sorted((parts, largest))
    out = [1] + [0] * top
    for i in range(1, k + 1):
        for s in range(top, n + i - 1, -1):  # times 1 - q^(n+i)
            out[s] -= out[s - n - i]
        for s in range(i, top + 1):  # over 1 - q^i
            out[s] += out[s - i]
    return out


def subsets(ground: int, size: int) -> Iterator[tuple[int, ...]]:
    """Size-``size`` subsets of {1, ..., ground} in lexicographic order.

    Yields sorted tuples.  size > ground is an error rather than an empty
    iterator, because in this codebase it always indicates a bad parameter
    upstream (t chosen larger than the user count).
    """
    if size < 0 or ground < 0:
        raise ValueError("ground and size must be >= 0")
    if size > ground:
        raise ValueError(f"cannot choose {size} elements from {ground}")
    return combinations(range(1, ground + 1), size)
