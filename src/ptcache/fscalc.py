"""Further-split calculus: local split factors, their global reconciliation,
and the memory-consistency check.

Each group type contributes one row of local split factors (one entry per
subfile type it involves, absent types marked with :data:`STAR`).  A scheme
is consistent only if a single global factor per subfile type scales every
row by a positive integer; ``vector_lcm`` finds the smallest such global
vector or reports that none exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .combinat import binomial
from .typevec import MGroupStructure, TypeVector

# Marks "this subfile type is not involved in this row".  Distinct from an
# explicit 0, which carries meaning (exclusion or wildcard, per policy).
STAR = None

FSEntry = int | None


class NoLcmError(ValueError):
    """Raised when no positive-integer row scaling reconciles the rows."""


@dataclass(frozen=True)
class GlobalFS:
    """Reconciled split factors plus the minimal row scales that realize them."""

    factors: tuple[int, ...]
    row_scales: tuple[int, ...]


@dataclass(frozen=True)
class MCResult:
    ok: bool
    fail_index: int | None = None  # 1-based row i of the first violated pair
    dots: tuple[int, int] | None = None


def local_fs(structure: MGroupStructure, d_tx: Iterable[int]) -> dict[TypeVector, int]:
    """Local split factors of one group type for transmitter selection ``d_tx``.

    ``d_tx`` holds 1-based unique-set indices.  The factor for the type owned
    by unique set i counts the useful messages its members receive: every
    transmitter except (if i transmits) one slot for the member itself.
    """
    chosen = sorted(set(d_tx))
    if not chosen:
        raise ValueError("transmitter selection must be nonempty")
    n = structure.num_unique_sets
    if any(not 1 <= i <= n for i in chosen):
        raise ValueError(f"selection {chosen} out of range 1..{n}")
    senders = sum(structure.unique_sets[i - 1].size for i in chosen)
    out: dict[TypeVector, int] = {}
    for idx, vtype in enumerate(structure.involved, start=1):
        out[vtype] = senders - 1 if idx in chosen else senders
    return out


class RatioForest:
    """Union-find over rows with exact rational scale ratios, kept flat.

    Every row stores its component's root and its scale relative to it,
    ``scale(i) = num[i] / den[i] * scale(root[i])``.  A union relabels the
    smaller component onto the larger and records the factor it scaled
    those rows by, so a depth-first search can add rows' constraints on the
    way down and :meth:`rollback` to a :meth:`mark` on the way up.  Scales
    are exact but not kept in lowest terms; :meth:`scales` gives the least
    integer ones.
    """

    def __init__(self, n: int) -> None:
        self.root = list(range(n))
        self.num = [1] * n
        self.den = [1] * n
        self.members = [[i] for i in range(n)]  # valid for roots only
        # per union: (kept root, relabelled root, x, y) with the relabelled
        # rows' scales multiplied by x / y; undone by dividing, exactly
        self._undo: list[tuple[int, int, int, int]] = []

    def relate(self, i: int, a: int, j: int, b: int) -> bool:
        """Impose ``scale(i) * a == scale(j) * b``; False on contradiction."""
        root, num, den = self.root, self.num, self.den
        # the constraint reads x * scale(ri) == y * scale(rj)
        x = num[i] * a * den[j]
        y = num[j] * b * den[i]
        ri, rj = root[i], root[j]
        if ri == rj:
            return x == y
        moved, kept = self.members[rj], self.members[ri]
        if len(moved) > len(kept):
            ri, rj, x, y, moved, kept = rj, ri, y, x, kept, moved
        g = gcd(x, y)
        x //= g
        y //= g
        for m in moved:  # scale(rj) = x / y * scale(ri)
            root[m] = ri
            num[m] *= x
            den[m] *= y
        kept += moved
        self._undo.append((ri, rj, x, y))
        return True

    def mark(self) -> int:
        return len(self._undo)

    def scales(self) -> list[int]:
        """The least positive integer scale of each row: per component, the
        exact ratios over their common denominator, divided by their gcd."""
        root, num, den = self.root, self.num, self.den
        out = [1] * len(root)
        for r, members in enumerate(self.members):
            if root[r] != r or len(members) == 1:
                continue
            denom = lcm(*(den[i] for i in members))
            nums = [num[i] * (denom // den[i]) for i in members]
            g = gcd(*nums)
            for i, n in zip(members, nums):
                out[i] = n // g
        return out

    def rollback(self, mark: int) -> None:
        """Undo every union made since ``mark``."""
        undo = self._undo
        root, num, den, members = self.root, self.num, self.den, self.members
        while len(undo) > mark:
            ri, rj, x, y = undo.pop()
            moved = members[rj]
            del members[ri][-len(moved):]
            for m in moved:
                root[m] = rj
                num[m] //= x
                den[m] //= y


def vector_lcm(
    rows: Sequence[Sequence[FSEntry]], zero_policy: str = "exclude"
) -> GlobalFS:
    """Reconcile local split-factor rows into one global vector.

    zero_policy="exclude": an explicit 0 anywhere in a column removes that
    subfile type from the scheme; entries in removed columns constrain
    nothing (a row left with no live entries is inert, scale 1).

    zero_policy="wildcard": a 0 matches any global value; only pairs of
    positive entries constrain each other.  Used for table regressions where
    0 denotes "unconstrained", never by the scheme pipeline.

    Scales are the componentwise-minimal positive integers: exact rational
    ratios are solved per connected component of a :class:`RatioForest`
    and normalised by :meth:`RatioForest.scales`.
    """
    if zero_policy not in ("exclude", "wildcard"):
        raise ValueError(f"unknown zero_policy {zero_policy!r}")
    if not rows:
        raise ValueError("need at least one row")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows must share one width")
    for r in rows:
        if all(e is STAR for e in r):
            raise ValueError("a row without entries constrains nothing")
        for e in r:
            if e is not STAR and (not isinstance(e, int) or e < 0):
                raise ValueError(f"entries must be STAR or ints >= 0, got {e!r}")

    excluded: set[int] = set()
    if zero_policy == "exclude":
        excluded = {
            j for j in range(width) if any(r[j] == 0 for r in rows)
        }

    forest = RatioForest(len(rows))
    for j in range(width):
        if j in excluded:
            continue
        live = [
            (i, r[j])
            for i, r in enumerate(rows)
            if r[j] is not STAR and r[j] != 0
        ]
        for (i1, a1), (i2, a2) in zip(live, live[1:]):
            if not forest.relate(i1, a1, i2, a2):
                raise NoLcmError(
                    f"column {j}: rows {i1} and {i2} need incompatible scales"
                )

    scales = forest.scales()
    factors = []
    for j in range(width):
        if j in excluded:
            factors.append(0)
            continue
        vals = {
            scales[i] * r[j]
            for i, r in enumerate(rows)
            if r[j] is not STAR and r[j] != 0
        }
        if not vals:
            factors.append(0)
        elif len(vals) == 1:
            factors.append(vals.pop())
        else:  # pragma: no cover - contradicts the union-find invariant
            raise NoLcmError(f"column {j} did not reconcile: {sorted(vals)}")
    return GlobalFS(factors=tuple(factors), row_scales=tuple(scales))


def mc_check(
    alpha_global: Sequence[int], user_counts: Sequence[Sequence[int]]
) -> MCResult:
    """Check that all user classes cache equally much.

    ``user_counts`` has one row per grouping block: entry j counts the
    subsets of subfile type j containing a fixed user of that block.  The
    global factors must give every row the same weighted total; the first
    violated adjacent pair is reported with both dot products.
    """
    dots = [
        sum(a * f for a, f in zip(alpha_global, row)) for row in user_counts
    ]
    for i in range(len(dots) - 1):
        if dots[i] != dots[i + 1]:
            return MCResult(ok=False, fail_index=i + 1, dots=(dots[i], dots[i + 1]))
    return MCResult(ok=True)


def subpacketization(
    alpha_global: Sequence[int], type_counts: Sequence[int]
) -> int:
    """Total packets per file: global factors dotted with type counts."""
    if len(alpha_global) != len(type_counts):
        raise ValueError("length mismatch")
    return sum(a * c for a, c in zip(alpha_global, type_counts))


def jcm_baseline(K: int, t: int) -> tuple[int, Fraction]:
    """Reference scheme's (subpacketization, delivery rate) at cache level t."""
    if not (isinstance(K, int) and isinstance(t, int) and 1 <= t <= K - 1):
        raise ValueError(f"need integers 1 <= t <= K-1, got K={K}, t={t}")
    return t * binomial(K, t), Fraction(K - t, t)


def fs_table_json(
    group_types: Sequence[TypeVector],
    rows: Sequence[Sequence[FSEntry]],
) -> dict[str, list[object]]:
    """JSON form of a split-factor table: rows keyed by group-type text,
    absent entries as the string "star"."""
    out: dict[str, list[object]] = {}
    for gt, row in zip(group_types, rows):
        out[gt.text()] = ["star" if e is STAR else e for e in row]
    return out
