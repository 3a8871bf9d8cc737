"""The benchmark's own test: ``run.py --selfcheck`` passes on the shrunken
workloads and reports a corrupted oracle value as a failure.

    python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path


def test_selfcheck_passes_and_catches_corrupted_oracles():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(run), "--selfcheck"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck ok"
