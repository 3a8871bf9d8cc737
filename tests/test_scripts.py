"""Smoke tests for the scripts under ``scripts/``: each runs as a
subprocess against the package source and must finish with its usual
output."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import ptcache

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    src = os.path.dirname(os.path.dirname(ptcache.__file__))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_reproduce_headline_check_decodes_every_row():
    lines = run_script("reproduce_headline.py", "--check").splitlines()
    rows = lines[2:]  # after the header and its rule
    assert len(rows) == 9
    assert all(row.endswith("  ok") for row in rows), rows


def test_sweep_figures_writes_every_curve(tmp_path):
    run_script("sweep_figures.py", "--out", str(tmp_path), "--kmax", "12")
    want = {
        "pairs_tbar2.csv": 5,
        "pairs_tbar4.csv": 3,
        "pairs_tbar6.csv": 1,
        "pairs_tbar8.csv": 0,
        "halfsplit_t2.csv": 9,
        "halfsplit_t4.csv": 8,
        "halfsplit_t6.csv": 7,
        "halfsplit_t8.csv": 6,
        "grid_m3_t2.csv": 2,
    }
    got = {}
    for path in tmp_path.iterdir():
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["K", "F_PT", "F_JCM", "ratio", "bound"]
        got[path.name] = len(rows)
    assert got == want


def test_code_size_counts_every_module():
    """One row per module of the package, with its line count and a
    marshalled size; the total row sums them; naming the package directory
    gives the same table."""
    package = Path(ptcache.__file__).resolve().parent
    out = run_script("code_size.py")
    assert run_script("code_size.py", str(package)) == out
    header, *rows, total = out.splitlines()
    assert header.split() == ["module", "lines", "marshalled"]
    got = {
        name: (int(lines.replace(",", "")), int(size.replace(",", "")))
        for name, lines, size in map(str.split, rows)
    }
    assert list(got) == sorted(path.name for path in package.glob("*.py"))
    for name, (lines, size) in got.items():
        assert lines == (package / name).read_text().count("\n")
        assert size > 0
    assert total.split() == [
        "total",
        f"{sum(lines for lines, _ in got.values()):,}",
        f"{sum(size for _, size in got.values()):,}",
    ]
