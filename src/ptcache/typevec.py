"""Groupings of users into equal-size classes, and the type calculus on them.

A grouping splits the users {1, ..., K} into groups with non-increasing
sizes; maximal runs of equal-size groups form *blocks*.  The type of a user
subset records, block by block, the non-increasing profile of its
intersection sizes with the block's groups.  Types are the unit of
aggregation for everything downstream: all subsets of one type are treated
identically by placement and delivery, which is what makes the schemes'
bookkeeping polynomial instead of exponential.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain
from math import prod

from .combinat import binomial, integer_partitions, multinomial


class Grouping(namedtuple("Grouping", "K sizes")):
    """A partition of users {1..K} into consecutively numbered groups.

    ``sizes`` is non-increasing; use :func:`make_grouping` instead of the
    raw constructor so that validation and canonicalization happen.  A
    named tuple with an instance dict, which holds the cached properties.
    """

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """(group size, group count) per block; sizes strictly decreasing."""
        out: list[tuple[int, int]] = []
        for size in self.sizes:
            if out and out[-1][0] == size:
                out[-1] = (size, out[-1][1] + 1)
            else:
                out.append((size, 1))
        return tuple(out)

    @cached_property
    def group_members(self) -> tuple[tuple[int, ...], ...]:
        out = []
        nxt = 1
        for size in self.sizes:
            out.append(tuple(range(nxt, nxt + size)))
            nxt += size
        return tuple(out)

    @cached_property
    def group_of(self) -> tuple[int, ...]:
        """Map user -> group index (0-based); entry 0 is padding."""
        lookup = [-1] * (self.K + 1)
        for gi, members in enumerate(self.group_members):
            for u in members:
                lookup[u] = gi
        return tuple(lookup)

    @cached_property
    def block_of_group(self) -> tuple[int, ...]:
        out = []
        for bi, (_, count) in enumerate(self.blocks):
            out.extend([bi] * count)
        return tuple(out)

    @cached_property
    def block_groups(self) -> tuple[tuple[int, ...], ...]:
        """Group indices belonging to each block."""
        out: list[list[int]] = [[] for _ in self.blocks]
        for gi, bi in enumerate(self.block_of_group):
            out[bi].append(gi)
        return tuple(tuple(x) for x in out)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.sizes) + ")"


def make_grouping(K: int, sizes: Iterable[int]) -> Grouping:
    """Canonicalize ``sizes`` (sort non-increasing) and validate against K."""
    tup = tuple(sorted(sizes, reverse=True))
    if not tup:
        raise ValueError("grouping needs at least one group")
    if tup[-1] <= 0:  # the smallest size
        raise ValueError(f"group sizes must be positive, got {tup}")
    if sum(tup) != K:
        raise ValueError(f"group sizes {tup} sum to {sum(tup)}, expected K={K}")
    return Grouping(K=K, sizes=tup)


class TypeVector:
    """Per-block, non-increasing intersection-size profile of a user subset.

    Entries are kept padded to the full block width (trailing zeros
    retained) so that equality and dict keys are unambiguous.  Immutable;
    its hash is computed once, since types are dict keys on hot paths.
    """

    __slots__ = ("blocks", "_hash")

    def __new__(cls, blocks: tuple[tuple[int, ...], ...]) -> TypeVector:
        for blk in blocks:
            if blk and min(blk) < 0:
                raise ValueError(f"negative entry in type vector {blocks}")
            if list(blk) != sorted(blk, reverse=True):
                raise ValueError(f"block {blk} is not non-increasing")
        return cls._trusted(blocks)

    @classmethod  # for blocks known to be valid: no checks
    def _trusted(cls, blocks: tuple[tuple[int, ...], ...]) -> TypeVector:
        v = object.__new__(cls)
        _set_blocks(v, blocks)
        _set_hash(v, hash((blocks,)))
        return v

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not TypeVector:
            return NotImplemented
        return self._hash == other._hash and self.blocks == other.blocks

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TypeVector(blocks={self.blocks!r})"

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.blocks))

    def text(self) -> str:
        """Canonical text form, e.g. ``2|2,1|1,0,0`` (full padding kept)."""
        return "|".join(",".join(str(e) for e in blk) for blk in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "TypeVector":
        blocks = tuple(
            tuple(int(e) for e in part.split(",")) for part in text.split("|")
        )
        return cls(blocks=blocks)

    def __str__(self) -> str:
        return self.text()


# the slots' own setters, which the immutable class's __setattr__ refuses
_set_blocks, _set_hash = TypeVector.blocks.__set__, TypeVector._hash.__set__


def canonical_type_order(types: Iterable[TypeVector]) -> list[TypeVector]:
    """Reverse-lexicographic (descending) order on the flattened vector."""
    return sorted(types, key=lambda v: v.flat, reverse=True)


def profile(g: Grouping, S: Iterable[int]) -> tuple[int, ...]:
    """Number of members of ``S`` in each user group.  A subset's type and
    unique sets depend only on this profile."""
    sizes = [0] * len(g.sizes)
    for u in S:
        sizes[g.group_of[u]] += 1
    return tuple(sizes)


def type_of(g: Grouping, subset: Iterable[int]) -> TypeVector:
    """Type of a user subset under grouping ``g``."""
    chosen = set(subset)
    if not chosen <= set(range(1, g.K + 1)):
        raise ValueError(f"subset {sorted(chosen)} not within users 1..{g.K}")
    sizes = profile(g, chosen)
    return TypeVector._trusted(
        tuple(
            tuple(sorted((sizes[gi] for gi in gis), reverse=True))
            for gis in g.block_groups
        )
    )


def is_realizable(g: Grouping, v: TypeVector) -> bool:
    if len(v.blocks) != len(g.blocks):
        return False
    for blk, (beta, psi) in zip(v.blocks, g.blocks):
        if len(blk) != psi or blk[0] > beta:  # blocks are non-increasing
            return False
    return True


def _block_arrangements(entries: Sequence[int], beta: int) -> int:
    # Distinct orderings of the profile across the block's groups, times the
    # number of ways to pick each intersection inside its group.
    mult = {e: entries.count(e) for e in set(entries)}
    return multinomial(list(mult.values())) * prod(
        binomial(beta, e) ** n for e, n in mult.items()
    )


def type_count(g: Grouping, v: TypeVector) -> int:
    """Number of user subsets with type ``v``."""
    if not is_realizable(g, v):
        raise ValueError(f"type {v} is not realizable under grouping {g}")
    return prod(
        _block_arrangements(blk, beta) for blk, (beta, _) in zip(v.blocks, g.blocks)
    )


def enumerate_types(g: Grouping, total: int) -> list[tuple[TypeVector, int]]:
    """All realizable types of ``total`` users, canonically ordered, with counts.

    Every recursive branch yields a type: a block takes s users only if the
    later blocks can hold the rest, and its partitions are built per branch.
    A type is realizable by construction, so it is counted as it is built,
    one block's arrangements per branch.
    """
    if total < 0 or total > g.K:
        raise ValueError(f"total {total} out of range for K={g.K}")
    # room[bi]: users that blocks bi, bi+1, ... can hold together
    room = [0] * (len(g.blocks) + 1)
    for bi in range(len(g.blocks) - 1, -1, -1):
        beta, psi = g.blocks[bi]
        room[bi] = room[bi + 1] + beta * psi

    found: dict[TypeVector, int] = {}

    def rec(bi: int, remaining: int, prefix: list[tuple[int, ...]], count: int) -> None:
        if bi == len(g.blocks):
            found[TypeVector._trusted(tuple(prefix))] = count
            return
        beta, psi = g.blocks[bi]
        most = min(remaining, beta * psi)
        least = max(0, remaining - room[bi + 1])
        for s in range(most, least - 1, -1):
            for p in integer_partitions(s, max_parts=psi, max_part=beta):
                blk = p + (0,) * (psi - len(p))
                prefix.append(blk)
                rec(bi + 1, remaining - s, prefix, count * _block_arrangements(blk, beta))
                prefix.pop()

    rec(0, total, [], 1)
    del rec  # it refers to itself: free it, and what it holds, now
    return [(v, found[v]) for v in canonical_type_order(found)]


def unique_set_names(gtype: TypeVector) -> tuple[tuple[int, int], ...]:
    """(block, cardinality) of each of ``gtype``'s unique sets, block
    ascending and then cardinality descending: the order in which 1-based
    unique-set indices count.

    A unique set holds the users of a group type's groups that are
    interchangeable: two users of a concrete group merge exactly when their
    groups lie in one block *and* meet the group in one intersection size,
    so the type alone names the set.  Merging on cardinality alone would be
    wrong: dropping a user must yield the same subfile type for every
    member, and that only holds per block."""
    return tuple(
        (bi, card)
        for bi, blk in enumerate(gtype.blocks)
        for card in sorted(set(blk) - {0}, reverse=True)
    )


def mgroup_structure(
    g: Grouping, gtype: TypeVector
) -> tuple[tuple[int, TypeVector], ...]:
    """(size, involved type) of each of ``gtype``'s unique sets, in
    :func:`unique_set_names` order, derived from the type alone.

    Dropping a member of a unique set lowers the last entry equal to its
    cardinality by one, which keeps the block non-increasing: that is the
    set's involved type, the subfile type it owns for delivery.
    """
    if not is_realizable(g, gtype):
        raise ValueError(f"group type {gtype} is not realizable under {g}")
    out = []
    for bi, card in unique_set_names(gtype):
        blk = gtype.blocks[bi]
        last = len(blk) - 1 - blk[::-1].index(card)
        lowered = blk[:last] + (card - 1,) + blk[last + 1 :]
        involved = gtype.blocks[:bi] + (lowered,) + gtype.blocks[bi + 1 :]
        out.append((card * blk.count(card), TypeVector._trusted(involved)))
    return tuple(out)


def per_user_count(g: Grouping, v: TypeVector, block_index: int) -> int:
    """Number of subsets of type ``v`` containing a fixed user whose group
    lies in grouping block ``block_index`` (1-based).

    The memory-consistency check needs this per block.  The block's β·ψ
    users are interchangeable, so each lies in equally many subsets of type
    ``v``; counting (user, subset) pairs both ways gives
    type_count · |v ∩ block| / (β·ψ).
    """
    if not 1 <= block_index <= len(g.blocks):
        raise ValueError(f"block index {block_index} out of range")
    beta, psi = g.blocks[block_index - 1]
    return type_count(g, v) * sum(v.blocks[block_index - 1]) // (beta * psi)
