"""Guard on the part of the package the benchmark in ``perfbench/`` uses.

One traced smoke run of the sweep workload: it imports every name
``perfbench`` reads, runs every layer it times, and checks the smoke
certificate totals pinned in ``perfbench/pinned.json``.  Deleting such a
name or attribute, or moving those totals, fails here.

The emit and point workloads then run untraced at full scale for one
second each, so their correctness checks run too: the digests of the four
full-size CLI tables in ``perfbench/pinned.json`` among them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_workload(*args: str) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_smoke_sweep_is_correct():
    result = run_workload("--workload", "sweep", "--trace", "1", "--smoke")
    assert result["correct"] is True and result["failed"] == 0, result


@pytest.mark.parametrize("workload", ["emit", "point"])
def test_full_scale_workload_is_correct(workload):
    result = run_workload("--workload", workload, "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0, result
