#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs (``run.py --smoke``).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks that every workload emits exactly the metrics named in
``BENCHMARK.json`` with their units, that the package's outputs are all
correct, that the work counts repeat exactly across two runs and across
seeds, and that without the package sources the benchmark fails without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(workload: str, seed: int, trace: int) -> dict:
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    return result


def counts_of(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_untraced_metrics_and_units():
    for workload in WORKLOADS:
        result_of(workload, 1, 0)


def test_traced_counts_repeat_across_runs_and_seeds():
    for workload in WORKLOADS:
        first = counts_of(result_of(workload, 1, 1))
        assert first, "no work counts emitted"
        assert counts_of(result_of(workload, 1, 1)) == first
        assert counts_of(result_of(workload, 2, 1)) == first


def test_without_sources_fails_without_result():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
