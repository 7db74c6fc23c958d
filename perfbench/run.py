#!/usr/bin/env python3
"""neckslime benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The untraced run (``--trace 0``) prints the end-to-end metrics:

* ``setup_s``: import, input generation and warm-up (each repeated nine
  times; the median import plus the median of the rest);
* ``wall_s``: median wall time of a pass of the workload;
* ``result_p50_ms`` / ``result_p95_ms``: latency of one result, from the
  request that asked for it to the moment it was in hand, each result taken
  at its median over the passes;
* ``peak_rss_mb``: peak resident memory of this process.

The traced run (``--trace 1``) runs the workload untraced and with spans in
alternate passes, two of each at least (the difference of their ``wall_s``
is ``trace.overhead_pct``), then times every layer on pinned inputs (see
``layers.py``).  It prints the
per-layer metrics and writes every span to ``.perfbench_out/``.

Every run checks the package's outputs; the last line of stdout is the
result object, and the line before it a record with provenance, sample
counts and the failure ratio.  ``--smoke`` shrinks every input so the
benchmark's own tests (``selftest.py``) run in seconds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9

# ROADMAP baseline (another 2-core machine) that the traced run is cross-checked against
ROADMAP_BASELINE = {
    "slime.unit_migration_ns_per_code": 29_000.0,
    "riwi-slime(11,8)_s": 3.1,
    "certify.migration-laws_s": 6.8,
    "certify.riwi-slime_s": 6.2,
    "certify.prime-bijection_s": 1.8,
    "sweep_s": 17.7,
}


def unit_of(name: str) -> str:
    """Unit of a timing or ratio metric, read off its name."""
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if "_us" in name:
        return "us"
    if "_ms" in name:
        return "ms"
    if "_ns" in name:
        return "ns"
    return "s"


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def provenance(args: argparse.Namespace) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha,
        "seed": args.seed,
        "traced": bool(args.trace),
        "workload": args.workload,
        "seconds": args.seconds,
        "scale": "smoke" if args.smoke else "full",
    }


class Totals:
    """Pass times and result latencies of every pass, keyed so that each
    result can be followed across passes.

    On a shared host the load of other tenants changes from one millisecond
    to the next, so the fastest of many passes is an extreme value that
    moves from run to run; each pass and each result is taken at its median,
    which follows the load averaged over the run and moves far less.
    """

    def __init__(self) -> None:
        self.pass_s: list[float] = []
        self.results_ns: dict = {}  # result key -> its latency in each pass
        self.first_ns: list[int] = []
        self.attempted = 0
        self.failed = 0

    def add(self, seconds: float, result) -> None:
        self.pass_s.append(seconds)
        for key, ns in result.latencies_ns.items():
            self.results_ns.setdefault(key, []).append(ns)
        self.first_ns.append(next(iter(result.latencies_ns.values()), 0))

    @property
    def passes(self) -> int:
        return len(self.pass_s)

    def wall_s(self) -> float:
        return statistics.median(self.pass_s)

    def per_result_ms(self) -> list[float]:
        return [statistics.median(v) / 1e6 for v in self.results_ns.values()]

    def by_class(self) -> dict:
        """Latency percentiles per kind of result, e.g. point's lookups and phi steps."""
        classes: dict[str, list[float]] = {}
        for key, ns in self.results_ns.items():
            kind = key[-1] if isinstance(key, tuple) else key if isinstance(key, str) else "certificate"
            classes.setdefault(kind, []).append(statistics.median(ns) / 1e6)
        return {kind: {"results": len(v), "p50_ms": statistics.median(v), "p95_ms": percentile(v, 95)}
                for kind, v in classes.items()}


def measure(workload, state: dict, seconds: float, tracers: list, min_rounds: int) -> list[Totals]:
    """Run rounds of one pass under each of ``tracers`` in turn (``None`` is
    untraced), while the next round is expected to end within ``seconds``, and
    at least ``min_rounds``.  Alternating passes share the host's spells."""
    runs = [Totals() for _ in tracers]
    round_s = []
    start = time.perf_counter()
    while True:
        for tracer, totals in zip(tracers, runs):
            t0 = time.perf_counter()
            result = workload.run_pass(state, tracer)
            totals.add(time.perf_counter() - t0, result)
            attempted, failed = workload.check(state, result.outputs)
            totals.attempted += attempted
            totals.failed += failed
        round_s.append(time.perf_counter() - start - sum(round_s))
        if len(round_s) >= min_rounds and sum(round_s) + statistics.median(round_s) > seconds:
            return runs


def import_package() -> float:
    """Import ``neckslime`` and ``neckslime.cli``, which the package does not import,
    afresh (their bytecode cache may be used); return the seconds taken."""
    for name in [m for m in sys.modules if m == "neckslime" or m.startswith("neckslime.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("neckslime")
    importlib.import_module("neckslime.cli")
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "emit", "point"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "neckslime" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'neckslime'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_times = [import_package() for _ in range(SETUP_REPEATS)]
    neckslime = sys.modules["neckslime"]
    if Path(neckslime.__file__).resolve().parent != SRC / "neckslime":
        print(f"perfbench: imported neckslime from {neckslime.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    from spans import Tracer
    from workloads import FULL, SMOKE, WORKLOADS

    scale = SMOKE if args.smoke else FULL
    pinned = json.loads((HERE / "pinned.json").read_text())[scale.name]
    workload = WORKLOADS[args.workload]
    prov = provenance(args)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(scale, pinned, args.seed)
        setup_times.append(time.perf_counter() - t0)

    record: dict = {"provenance": prov}
    units: dict[str, str] = {}
    if not args.trace:
        (run,) = measure(workload, state, args.seconds, [None], min_rounds=2)
        lat_ms = run.per_result_ms()
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": run.wall_s(),
            "result_p50_ms": statistics.median(lat_ms),
            "result_p95_ms": percentile(lat_ms, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["samples"] = {
            "passes": run.passes,
            "results": len(lat_ms),
            "results_beyond_p95": len(lat_ms) - math.ceil(0.95 * len(lat_ms)),
        }
        record["first_result_ms"] = statistics.median(run.first_ns) / 1e6
        record["by_class"] = run.by_class()
        attempted, failed = run.attempted, run.failed
    else:
        tracer = Tracer()
        plain, traced = measure(workload, state, args.seconds, [None, tracer], min_rounds=2)
        base = plain.wall_s()
        values, counts, layer_attempted, layer_failed = layers.run_layers(scale, pinned, args.seed, tracer)
        values["trace.overhead_pct"] = (traced.wall_s() - base) / base * 100
        units.update({name: "count" for name in counts})
        values.update(counts)
        attempted = plain.attempted + traced.attempted + layer_attempted
        failed = plain.failed + traced.failed + layer_failed
        record["samples"] = {"untraced_passes": plain.passes, "traced_passes": traced.passes,
                             "spans": len(tracer.spans)}
        if not args.smoke:
            record["baseline"] = baseline_check(values, tracer)
        smoke = "-smoke" if args.smoke else ""
        tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}{smoke}.json",
                     {"provenance": prov, "metrics": values, "baseline": record.get("baseline")})

    record["attempted"] = attempted
    record["failed"] = failed
    record["fail_ratio"] = failed / attempted
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units.get(name) or unit_of(name)} for name, v in values.items()},
    }))
    return 0


def baseline_check(values: dict, tracer) -> dict:
    """Measured layer numbers next to the ROADMAP baseline, with their ratio."""
    riwi_slime_ns = sum(s["end_ns"] - s["start_ns"] for s in tracer.spans
                        if s["name"] == "bijection.verify_riwi" and s["attrs"]["riwi"] == "slime")
    measured = {
        "slime.unit_migration_ns_per_code": values["slime.unit_migration_ns_per_code"],
        "riwi-slime(11,8)_s": riwi_slime_ns / 1e9,
        "certify.migration-laws_s": values["certify.migration-laws_s"],
        "certify.riwi-slime_s": values["certify.riwi-slime_s"],
        "certify.prime-bijection_s": values["certify.prime-bijection_s"],
        "sweep_s": sum(v for k, v in values.items() if k.startswith("certify.") and k.endswith("_s")),
    }
    return {k: {"roadmap": ROADMAP_BASELINE[k], "measured": v, "ratio": v / ROADMAP_BASELINE[k]}
            for k, v in measured.items()}


if __name__ == "__main__":
    sys.exit(main())
