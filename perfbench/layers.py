"""Per-layer timings and work counts for the traced run.

Each layer is timed from outside, with a span around the benchmark's calls
into one public function of ``codes``, ``slime``, ``necklaces``,
``bijection``, ``certify`` or ``cli`` on a pinned input.  Which end-to-end
metric each layer should move, and on which workload:

======================================  ==================================
layer metric                            should move
======================================  ==================================
codes.enumerate*_ns_per_code            emit, sweep wall time; not point
codes.construct_ns, codes.rotate_ns     sweep most, point p50 a little
slime.decompose/migrate_*_ns_per_code   sweep; point p50
slime.unit_migration_*                  sweep; point p95 and wall time
necklaces.canonicalize_*                emit, point p50; sweep little
necklaces.enumerate_ns_per_code         emit; count-identity in sweep
bijection.build_sigma_s_*               emit
bijection.verify_riwi_*_ns_per_code     sweep
certify.<check>_s                       sweep
cli.<command>_s, cli.self_s             emit only
======================================  ==================================

The work counts are computed from the package's outputs, are pinned in
``pinned.json`` and must repeat exactly from run to run and seed to seed.
"""

from __future__ import annotations

import csv
import io
import json
from math import gcd

from neckslime.bijection import prime_bijection, riwi_rotation, riwi_slime, verify_riwi
from neckslime.certify import CHECKS
from neckslime.codes import Code, enumerate_codes
from neckslime.necklaces import canonicalize, count_necklaces, enumerate_necklaces
from neckslime.slime import (
    decompose,
    migrate_backward,
    migrate_forward,
    unit_migration,
)

from spans import Tracer
from workloads import Scale, point_pool, run_cli, sweep_pass, unit_steps

NS = 1e-9


def _per_item(rec: dict, count: int, unit: float = 1.0) -> float:
    """Span duration per call, in ns divided by ``unit``; the call count goes on the span."""
    rec["attrs"]["calls"] = count
    return (rec["end_ns"] - rec["start_ns"]) / count / unit


def _chi_applications(table, n: int, k: int) -> int:
    """chi is applied size - 1 times per neck-class, whose size is gcd(n, k); the
    constant code, in the table when n | k, belongs to no neck-class."""
    size = gcd(n, k)
    full_period_pairs = len(table.pairs) - (k % n == 0)
    return full_period_pairs // size * (size - 1)


def _direct(argv: tuple[str, ...]) -> None:
    """The library calls and serialization behind one emit command, without ``cli``."""
    if argv[0] == "bijection":
        table = prime_bijection(int(argv[1]), int(argv[2]))
        if argv[-1] == "csv":
            csv.writer(io.StringIO(), lineterminator="\n").writerows(table.to_csv_rows())
        else:
            json.dumps(table.to_json_dict())
    elif argv[0] == "enum":
        "\n".join(",".join(map(str, m.canonical)) + " " + m.word
                  for m in enumerate_necklaces(int(argv[2]), int(argv[3])))
    else:
        n, k = int(argv[1]), int(argv[2])
        count_necklaces(n, k), len(enumerate_necklaces(n, k))


class _Layers:
    """Timings, counts and checks gathered by the sections below."""

    def __init__(self, tracer: Tracer) -> None:
        self.span = tracer.span
        self.tracer = tracer
        self.timings: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def run_layers(scale: Scale, pinned: dict, seed: int, tracer: Tracer) -> tuple[dict, dict, int, int]:
    """Time every layer; return (timings, counts, attempted, failed).

    Each section drops its inputs before the next starts, so no section pays
    for a larger heap left behind by another.
    """
    run = _Layers(tracer)
    _certify(run, scale)
    _enumeration(run, scale)
    _per_code(run, scale)
    _long_codes(run, scale, seed)
    _sigma(run, scale)
    _cli(run, scale)
    run.check(all(run.counts[name] == value for name, value in pinned["counts"].items()))
    return run.timings, run.counts, run.attempted, run.failed


def _certify(run: _Layers, scale: Scale) -> None:
    """Each check's total over the per-certificate spans of one traced sweep
    of the default envelope, and its work counts."""
    first = len(run.tracer.spans)
    certs = sweep_pass({"envelope": scale.certify_envelope}, run.tracer).outputs
    for cert in certs:
        run.check(cert.passed)
    root = run.tracer.spans[first]["id"]
    spans = [s for s in run.tracer.spans[first:] if s["parent"] == root]
    for name in CHECKS:
        run.timings[f"certify.{name}_s"] = sum(
            s["end_ns"] - s["start_ns"] for s in spans if s["name"] == f"certify.{name}") * NS
    run.counts["certify.certificates"] = len(certs)
    run.counts["certify.examined"] = sum(c.examined for c in certs)


def _enumeration(run: _Layers, scale: Scale) -> None:
    m, span = run.timings, run.span
    n, k = scale.enum_cell
    with span("codes.enumerate_codes", n=n, k=k) as rec:
        cell_size = sum(1 for _ in enumerate_codes(n, k))
    m["codes.enumerate_ns_per_code"] = _per_item(rec, cell_size)
    with span("codes.enumerate_codes", n=n, k=k, t=0, full_period_only=True) as rec:
        sum(1 for _ in enumerate_codes(n, k, t=0, full_period_only=True))
    m["codes.enumerate_t0_fp_ns_per_code"] = _per_item(rec, cell_size)
    with span("necklaces.enumerate_necklaces", n=n, k=k) as rec:
        necklaces = enumerate_necklaces(n, k)
    m["necklaces.enumerate_ns_per_code"] = _per_item(rec, cell_size)
    run.check(len(necklaces) == count_necklaces(n, k))


def _per_code(run: _Layers, scale: Scale) -> None:
    m, span = run.timings, run.span
    n, k = scale.code_cell
    tuples = [c.entries for c in enumerate_codes(n, k)]
    with span("codes.Code", n=n, k=k) as rec:
        codes = [Code(t) for t in tuples]
    m["codes.construct_ns"] = _per_item(rec, len(codes))
    with span("codes.Code.rotate", n=n, k=k) as rec:
        for c in codes:
            c.rotate(1)
    m["codes.rotate_ns"] = _per_item(rec, len(codes))
    with span("slime.decompose", n=n, k=k) as rec:
        for c in codes:
            decompose(c)
    m["slime.decompose_ns_per_code"] = _per_item(rec, len(codes))
    with span("slime.migrate_forward", n=n, k=k) as rec:
        forward = [migrate_forward(c) for c in codes]
    m["slime.migrate_forward_ns_per_code"] = _per_item(rec, len(codes))
    with span("slime.migrate_backward", n=n, k=k) as rec:
        backward = [migrate_backward(c) for c in forward]
    m["slime.migrate_backward_ns_per_code"] = _per_item(rec, len(codes))
    run.check(backward == codes)
    del forward, backward
    with span("slime.unit_migration", n=n, k=k) as rec:
        for c in codes:
            unit_migration(c)
    m["slime.unit_migration_ns_per_code"] = _per_item(rec, len(codes))
    with span("necklaces.canonicalize", n=n, k=k) as rec:
        for c in codes:
            canonicalize(c)
    m["necklaces.canonicalize_ns_per_code"] = _per_item(rec, len(codes))
    run.counts["slime.unit_steps_11_8"] = unit_steps(codes)
    del codes
    for name, chi in (("slime", riwi_slime(n, k)), ("rotation", riwi_rotation(n, k))):
        with span("bijection.verify_riwi", riwi=name, n=n, k=k) as rec:
            report = verify_riwi(chi, n, k)
        m[f"bijection.verify_riwi_{name}_ns_per_code"] = _per_item(rec, report.checked)
        run.check(report.passed)


def _long_codes(run: _Layers, scale: Scale, seed: int) -> None:
    m, span = run.timings, run.span
    pool = point_pool(scale, seed)
    big = max(scale.point_n)
    long_codes = [c for c, _ in pool if c.n == big]
    with span("slime.unit_migration", n=big) as rec:
        for c in long_codes:
            unit_migration(c)
    m["slime.unit_migration_us_n257"] = _per_item(rec, len(long_codes), 1e3)
    with span("necklaces.canonicalize", n=big) as rec:
        for _ in range(10):
            for c in long_codes:
                canonicalize(c)
    m["necklaces.canonicalize_us_n257"] = _per_item(rec, 10 * len(long_codes), 1e3)
    run.counts["slime.unit_steps_point"] = unit_steps([c for c, with_phi in pool if with_phi])


def _sigma(run: _Layers, scale: Scale) -> None:
    chi = 0
    for (n, k), label in zip(scale.sigma_cells, ("13_8", "7_14")):
        with run.span("bijection.prime_bijection", n=n, k=k) as rec:
            table = prime_bijection(n, k)
        run.timings[f"bijection.build_sigma_s_{label}"] = _per_item(rec, 1, 1e9)
        chi += _chi_applications(table, n, k)
    run.counts["bijection.chi_applications"] = chi


def _cli(run: _Layers, scale: Scale) -> None:
    """Each emit command through ``cli.main`` and made directly, fastest of two each."""
    cli_ns = direct_ns = 0
    for key, argv in scale.emit:
        times = {"cli.main": [], "cli.direct": []}
        for _ in range(2):
            with run.span("cli.main", command=key) as rec:
                rc, _ = run_cli(argv)
            times["cli.main"].append(rec["end_ns"] - rec["start_ns"])
            run.check(rc == 0)
            with run.span("cli.direct", command=key) as rec:
                _direct(argv)
            times["cli.direct"].append(rec["end_ns"] - rec["start_ns"])
        run.timings[f"cli.{key}_s"] = min(times["cli.main"]) * NS
        cli_ns += min(times["cli.main"])
        direct_ns += min(times["cli.direct"])
    run.timings["cli.self_s"] = (cli_ns - direct_ns) * NS
