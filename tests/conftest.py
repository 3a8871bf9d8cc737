"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from ptcache.combinat import integer_partitions
from ptcache.engine import build_plan, decode_and_verify, simulate


def grouping_params(max_K: int = 8, min_K: int = 2):
    """Strategy producing (K, sizes) with sizes a partition of K."""
    return st.integers(min_K, max_K).flatmap(
        lambda K: st.sampled_from(integer_partitions(K)).map(lambda s: (K, s))
    )


def grouping_with_t(max_K: int = 8):
    """Strategy producing (K, sizes, t) with 1 <= t <= K-1."""
    return grouping_params(max_K).flatmap(
        lambda Ks: st.integers(1, Ks[0] - 1).map(lambda t: (Ks[0], Ks[1], t))
    )


def unique_set_members(g, S):
    """Brute-force unique sets of the concrete group S: its users bucketed by
    (block of their user group, members of S in that group), as
    ((block, cardinality), users) pairs in (block asc, cardinality desc)
    order."""
    count = Counter(g.group_of[u] for u in S)
    buckets = {}
    for u in sorted(S):
        gi = g.group_of[u]
        buckets.setdefault((g.block_of_group[gi], count[gi]), []).append(u)
    return [(k, buckets[k]) for k in sorted(buckets, key=lambda k: (k[0], -k[1]))]


def roundtrip_design(ds, N=None, M=None, bytes_per_packet=1, seed=0, demand=None,
                     order_seed=None):
    """Build, simulate and verify a design; returns (plan, session, verify)."""
    N = N if N is not None else ds.K
    M = M if M is not None else ds.t
    plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
    rng = random.Random(seed)
    files = tuple(rng.randbytes(plan.f_pt * bytes_per_packet) for _ in range(N))
    if demand is None:
        demand = tuple(rng.randrange(1, N + 1) for _ in range(ds.K))
    session = simulate(plan, files, demand, order_seed=order_seed)
    return plan, session, decode_and_verify(session)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
