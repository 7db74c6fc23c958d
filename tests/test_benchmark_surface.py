"""Guard on the part of the package the benchmark in ``perfbench/`` uses.

One traced smoke run of the sweep workload: it imports every name
``perfbench`` reads, runs every layer it times, and checks the smoke
certificate totals pinned in ``perfbench/pinned.json``.  Deleting such a
name or attribute, or moving those totals, fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_sweep_is_correct():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
