"""The names and return shapes that the benchmark's child process
(``perfbench/child.py``) relies on: the functions it traces by name and the
results its counters read."""

import importlib
import importlib.util
import inspect
from collections.abc import Mapping
from pathlib import Path

from ptcache.designs import theorem2_design, theorem3_design
from ptcache.engine import build_plan, deliver, measure, place, simulate
from ptcache.search import exhaustive_search

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_traced_names_resolve_to_package_functions():
    child = load_child()
    spans = [f"{mod}.{name}" for mod, names in child.TRACED.items() for name in names]
    for span in spans + list(child.PEAK_TRACED):
        short, name = span.split(".")
        fn = getattr(importlib.import_module(f"ptcache.{short}"), name, None)
        assert inspect.isfunction(fn), span


def test_counters_read_search_place_and_deliver_results():
    child = load_child()
    result = exhaustive_search(5, 2)
    assert child._count_search(result) == {
        "search.leaves": result.explored,
        "search.feasible": len(result.pareto),
        "search.records": len(result.records),
    }
    assert result.explored == len(result.records) > 0

    ds = theorem2_design(4, 2)
    plan = build_plan(4, 2, 1, ds.grouping_sizes, ds.tx_rules)
    files = [bytes(range(2 * plan.f_pt))] * 2
    caches = place(plan, files)
    assert all(isinstance(c, Mapping) for c in caches.values())
    entries = sum(len(c) for c in caches.values())
    assert child._count_place(caches) == {
        "engine.place.cache_entries": entries,
        "engine.place.cached_bytes": 2 * entries,
    }
    messages = simulate(plan, files, (1, 2, 2, 1)).transcript
    counts = child._count_deliver(messages)
    assert counts["engine.deliver.messages"] == len(messages) > 0

    # thm3(3,3,2) has groups of three transmitters and groups with z = 2
    for ds, N, M in [(theorem2_design(4, 2), 2, 1), (theorem3_design(3, 3, 2), 9, 2)]:
        plan = build_plan(ds.K, N, M, ds.grouping_sizes, ds.tx_rules)
        files = [bytes(range(2 * plan.f_pt))] * N
        session = simulate(plan, files, [1 + k % N for k in range(ds.K)])
        counts = child._count_deliver(deliver(session))
        m = measure(session)
        assert counts["engine.deliver.messages"] == m.message_count > 0
        assert 8 * counts["engine.deliver.sent_bytes"] == m.total_bits
