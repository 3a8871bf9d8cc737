"""The frozen rule-search censuses: every (K, t) of tests/data/censuses.json
but the four largest, recomputed through the CLI and compared entry for
entry.  ``scripts/census_oracle.py --check`` compares the four largest."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census_oracle.py"
_spec = importlib.util.spec_from_file_location("census_oracle", SCRIPT)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

PINNED = oracle.load()


def test_the_file_pins_every_census_and_each_small_csv():
    assert list(PINNED) == [oracle.key(K, t) for K, t in oracle.cases()]
    assert len(PINNED) == 37
    for name, entry in PINNED.items():
        K = int(name.split(",")[0])
        assert ("csv_sha256" in entry) == (K <= oracle.CSV_MAX_K), name
        assert entry["explored"] == entry["feasible"] + sum(
            entry[k] for k in ("no_lcm", "rate", "mc")
        )


@pytest.mark.parametrize("K,t", [p for p in oracle.cases() if p not in oracle.LARGE])
def test_census_matches_the_pinned_entry(K, t):
    assert oracle.census(K, t) == PINNED[oracle.key(K, t)]
