"""Split-factor arithmetic: local factors, the vector-LCM merge, and the
memory-consistency check."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ptcache.fscalc
from conftest import grouping_params
from ptcache.combinat import binomial, integer_partitions
from ptcache.fscalc import (
    STAR,
    NoLcmError,
    RatioForest,
    _type_totals,
    analyze_rules,
    fs_table_json,
    jcm_baseline,
    local_fs,
    mc_check,
    scheme_layout,
    subpacketization,
    vector_lcm,
)
from ptcache.typevec import (
    TypeVector,
    enumerate_types,
    make_grouping,
    mgroup_structure,
    per_user_count,
    type_count,
)


# ---------------------------------------------------------------- local FS


def test_local_fs_by_transmitter_choice():
    g = make_grouping(8, (4, 4))
    st_ = mgroup_structure(g, TypeVector.parse("3,1"))
    by_text = lambda d: {v.text(): a for v, a in d.items()}
    # unique set 1 is the three-user set, unique set 2 the singleton
    assert by_text(local_fs(st_, {1})) == {"2,1": 2, "3,0": 3}
    assert by_text(local_fs(st_, {2})) == {"2,1": 1, "3,0": 0}
    assert by_text(local_fs(st_, {1, 2})) == {"2,1": 3, "3,0": 3}


def test_local_fs_rejects_bad_selection():
    g = make_grouping(8, (4, 4))
    st_ = mgroup_structure(g, TypeVector.parse("3,1"))
    with pytest.raises(ValueError):
        local_fs(st_, set())
    with pytest.raises(ValueError):
        local_fs(st_, {3})


def test_local_fs_zero_only_for_lone_singleton_owner():
    """The owned factor hits zero exactly when a singleton set sends alone."""
    g = make_grouping(5, (3, 2))
    st_ = mgroup_structure(g, TypeVector.parse("3|1"))
    assert local_fs(st_, {2})[TypeVector.parse("3|0")] == 0
    assert local_fs(st_, {1})[TypeVector.parse("2|1")] == 2


# -------------------------------------------------------------- vector LCM


def test_vector_lcm_wildcard_regression():
    rows = [
        (1, 2, 3, 0),
        (STAR, 4, STAR, 3),
        (STAR, 0, 2, 1),
    ]
    out = vector_lcm(rows, zero_policy="wildcard")
    assert out.factors == (2, 4, 6, 3)
    assert out.row_scales == (2, 1, 3)


def test_vector_lcm_exclude_zeroes_column():
    out = vector_lcm([(0, 1), (STAR, 3), (3, STAR)], zero_policy="exclude")
    assert out.factors == (0, 3)
    assert out.row_scales == (3, 1, 1)  # all-excluded row is inert


def test_vector_lcm_couples_columns():
    out = vector_lcm([(3, 2), (STAR, 3)], zero_policy="exclude")
    assert out.factors == (9, 6)
    assert out.row_scales == (3, 2)


def test_vector_lcm_no_solution():
    with pytest.raises(NoLcmError):
        vector_lcm([(1, 2), (2, 3)])
    with pytest.raises(NoLcmError):
        vector_lcm([(1, 2), (2, 3)], zero_policy="wildcard")


def test_vector_lcm_single_row_is_identity():
    out = vector_lcm([(2, 5, 1)])
    assert out.factors == (2, 5, 1)
    assert out.row_scales == (1,)


def test_vector_lcm_rejects_malformed_rows():
    with pytest.raises(ValueError):
        vector_lcm([])
    with pytest.raises(ValueError):
        vector_lcm([(1, 2), (1,)])
    with pytest.raises(ValueError):
        vector_lcm([(STAR, STAR)])
    with pytest.raises(ValueError):
        vector_lcm([(1, 2)], zero_policy="sometimes")


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: vector_lcm([(1, "2")]), "entries must be STAR or ints >= 0"),
        (lambda: vector_lcm([(1, -1)]), "entries must be STAR or ints >= 0"),
        (lambda: analyze_rules(4, 0, (2, 2), {}), "need integer 1 <= t <= K-1"),
        (lambda: analyze_rules(4, 4, (2, 2), {}), "need integer 1 <= t <= K-1"),
        (lambda: analyze_rules(4, 2.0, (2, 2), {}), "need integer 1 <= t <= K-1"),
    ],
)
def test_fscalc_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def consistent_rows(draw):
    """Rows pre-scaled from one hidden global vector, so an LCM exists."""
    width = draw(st.integers(1, 4))
    hidden = draw(
        st.lists(st.integers(1, 6), min_size=width, max_size=width)
    )
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        div = draw(st.integers(1, 4))
        mask = draw(
            st.lists(st.booleans(), min_size=width, max_size=width)
        )
        assume(any(mask))
        row = tuple(
            h * div if keep else STAR for h, keep in zip(hidden, mask)
        )
        rows.append(row)
    return rows


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_vector_lcm_minimality(data):
    """Factors cannot be shrunk: no d > 1 divides every live column while
    keeping every active row's scale an integer."""
    rows = consistent_rows(data.draw)
    out = vector_lcm(rows, zero_policy="exclude")
    # every row reproduces the global vector when scaled
    for row, z in zip(rows, out.row_scales):
        for e, f in zip(row, out.factors):
            if e is not STAR and f != 0:
                assert e * z == f
    live = [f for f in out.factors if f]
    if not live:
        return
    g = math.gcd(*live)
    for d in range(2, g + 1):
        if g % d:
            continue
        active = [
            z
            for row, z in zip(rows, out.row_scales)
            if any(e is not STAR and f != 0 for e, f in zip(row, out.factors))
        ]
        assert any(z % d for z in active), (
            f"global factors {out.factors} shrinkable by {d}"
        )


def test_vector_lcm_idempotent():
    first = vector_lcm([(2, 3, STAR), (STAR, 3, 5)])
    again = vector_lcm([first.factors])
    assert again.factors == first.factors


def _find(forest, i):
    """``(root, n, d)`` with ``scale(i) = n / d * scale(root)``."""
    return forest.root[i], forest.num[i], forest.den[i]


def test_ratio_forest_rollback_forgets_later_constraints():
    f = RatioForest(4)
    assert f.relate(0, 2, 1, 3)  # 2 s0 = 3 s1
    fresh = [_find(f, i) for i in range(4)]
    m = f.mark()
    assert f.relate(1, 1, 2, 2)  # s1 = 2 s2, so s0 = 3 s2
    assert not f.relate(0, 1, 2, 1)
    assert f.relate(3, 1, 2, 1) and f.relate(0, 1, 3, 3)
    f.rollback(m)
    assert [_find(f, i) for i in range(4)] == fresh
    assert f.relate(0, 1, 2, 1)  # s2 is free again
    root, n, d = _find(f, 1)
    root0, n0, d0 = _find(f, 0)
    assert root == root0 and Fraction(n, d) / Fraction(n0, d0) == Fraction(2, 3)


class _FractionForest:
    """Reference for RatioForest: one Fraction scale per row relative to a
    component label, components merged by relabelling every row."""

    def __init__(self, n):
        self.comp = list(range(n))
        self.scale = [Fraction(1)] * n

    def relate(self, i, a, j, b):
        ratio = self.scale[i] * a / (self.scale[j] * b)  # scale(j) / scale(i)
        if self.comp[i] == self.comp[j]:
            return ratio == 1
        old = self.comp[j]
        for k, c in enumerate(self.comp):
            if c == old:
                self.comp[k] = self.comp[i]
                self.scale[k] *= ratio
        return True

    def copy(self):
        other = _FractionForest(0)
        other.comp, other.scale = list(self.comp), list(self.scale)
        return other


def _same_ratios(forest, ref):
    """Rows share a root exactly when they share a component, at the same
    scale ratio."""
    n = len(ref.comp)
    found = [_find(forest, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ri, ni, di = found[i]
            rj, nj, dj = found[j]
            assert (ri == rj) == (ref.comp[i] == ref.comp[j])
            if ri == rj:
                assert Fraction(ni, di) / Fraction(nj, dj) == (
                    ref.scale[i] / ref.scale[j]
                )


def _least_scales(forest, ref, relations):
    """``scales()`` holds every relation in force, keeps the reference's
    ratio within each component, and is the least positive integer vector
    doing so: its gcd over each component is 1."""
    scales = forest.scales()
    assert all(isinstance(s, int) and s > 0 for s in scales)
    for i, a, j, b in relations:
        assert scales[i] * a == scales[j] * b
    for comp in set(ref.comp):
        rows = [i for i, c in enumerate(ref.comp) if c == comp]
        assert math.gcd(*(scales[i] for i in rows)) == 1
        first = rows[0]
        for i in rows[1:]:
            want = ref.scale[i] / ref.scale[first]
            assert Fraction(scales[i], scales[first]) == want


FOREST_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("relate"), st.integers(0, 5), st.integers(1, 6),
            st.integers(0, 5), st.integers(1, 6),
        ),
        st.just(("mark",)),
        st.just(("rollback",)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(FOREST_OPS)
# a component whose exact ratios, over their common denominator, share a
# factor 2 that the least scales divide out
@example([("relate", 0, 4, 2, 3), ("relate", 3, 3, 1, 4), ("relate", 1, 1, 0, 2)])
def test_ratio_forest_matches_a_fraction_reference(ops):
    """Every relate verdict, and every row's ratio after each rollback,
    agree with exact Fraction bookkeeping; after every step the least
    integer scales hold each relation in force."""
    forest, ref = RatioForest(6), _FractionForest(6)
    marks = []
    relations = []  # the relations in force
    for op in ops:
        if op[0] == "relate":
            _, i, a, j, b = op
            held = forest.relate(i, a, j, b)
            assert held == ref.relate(i, a, j, b)
            if held:
                relations.append(op[1:])
        elif op[0] == "mark":
            marks.append((forest.mark(), ref.copy(), len(relations)))
        elif marks:
            m, ref, n = marks.pop()
            forest.rollback(m)
            del relations[n:]
            _same_ratios(forest, ref)
        _least_scales(forest, ref, relations)
    _same_ratios(forest, ref)


# ---------------------------------------------------------------- MC check


@pytest.mark.parametrize("K", range(2, 9))
def test_layout_counts_match_the_typevec_counts(K):
    """The layout's type counts and memory-check table, built from the
    counts the enumeration returns, equal type_count and per_user_count
    entry by entry for every grouping and cache level."""
    for sizes in integer_partitions(K):
        g = make_grouping(K, sizes)
        for t in range(1, K):
            layout = scheme_layout(g, t)
            vtypes = layout.subfile_types
            assert layout.type_counts == tuple(type_count(g, v) for v in vtypes)
            assert layout.mc_rows == tuple(
                tuple(per_user_count(g, v, bi) for v in vtypes)
                for bi in range(1, len(g.blocks) + 1)
            )


def test_mc_check_accepts_balanced():
    res = mc_check((0, 2, 1), [(1, 4, 1), (0, 3, 3)])
    assert res.ok
    assert res.fail_index is None


def test_mc_check_reports_first_violation():
    res = mc_check((2, 1), [(2, 1), (0, 3)])
    assert not res.ok
    assert res.fail_index == 1
    assert res.dots == (5, 3)


def test_subpacketization_dot():
    assert subpacketization((0, 3), (8, 48)) == 144
    with pytest.raises(ValueError):
        subpacketization((1,), (1, 2))


# ---------------------------------------------------------------- baseline


def test_jcm_baseline_values():
    assert jcm_baseline(4, 2) == (12, Fraction(1))
    assert jcm_baseline(8, 3) == (168, Fraction(5, 3))
    assert jcm_baseline(9, 6) == (504, Fraction(1, 2))
    f, rate = jcm_baseline(40, 20)
    assert f == 20 * binomial(40, 20)
    assert rate == 1


def test_jcm_baseline_rejects_bad_inputs():
    for K, t in [(4, 0), (4, 4), (3, -1)]:
        with pytest.raises(ValueError):
            jcm_baseline(K, t)


# -------------------------------------------------------------- JSON forms


def test_fs_table_json_form():
    types = [TypeVector.parse("3,1"), TypeVector.parse("2,2")]
    rows = [(3, 2), (STAR, 3)]
    assert fs_table_json(types, rows) == {"3,1": [3, 2], "2,2": ["star", 3]}


# ---------------------------------------------------------------- table cap


@settings(max_examples=100, deadline=None)
@given(grouping_params(12))
def test_type_totals_count_the_listed_types(params):
    K, sizes = params
    g = make_grouping(K, sizes)
    assert _type_totals(g, K) == [len(enumerate_types(g, s)) for s in range(K + 1)]


def _refuse(*args):
    raise AssertionError(f"types listed: {args}")


def test_groupings_with_few_profiles_skip_the_type_count(monkeypatch):
    """A grouping with at most 1,024 block profiles, the product of
    C(beta + psi, psi), cannot fill the table, so its types are not
    counted before they are listed."""
    monkeypatch.setattr(ptcache.fscalc, "_type_totals", _refuse)
    assert math.comb(2 + 10, 10) * math.comb(1 + 1, 1) <= 1_024
    assert len(scheme_layout(make_grouping(21, (2,) * 10 + (1,)), 12).group_types) > 0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
