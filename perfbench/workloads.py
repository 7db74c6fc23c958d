"""The benchmark's workloads: their inputs, one timed pass each, and its checks.

A *pass* is one fixed batch of requests sent by a single client in a closed
loop: the next request goes out when the previous one has returned.  A pass
reports the latency of every result it got, from the request that asked for
it to the moment it was in hand, keyed so that the same result can be found
again in the next pass, and the outputs.  The outputs are checked after the
pass, outside its timing; the check counts the operations attempted and
those that failed or gave a wrong answer.

* ``sweep`` runs ``run_sweep`` over the default envelope with cells of at
  most 10,000 codes: every default cell but (11,7) and (11,8), 328
  certificates over many tiny codes, so per-call overhead in ``slime`` and
  ``codes`` dominates.  A pass takes about a quarter of the default sweep, so a run
  holds several and their median is steady; the default sweep itself is
  timed check by check in the traced run.  Every certificate is requested by
  the one call, so its latency is the time from that call to the certificate
  coming out of it.  Bypasses ``cli``.
* ``emit`` calls four data-emitting commands through ``cli.main`` with stdout
  captured: enumeration, ``canonicalize``, the sigma tables and rendering.
  Each call is one request; the order turns by one command each pass, so
  every command runs in every place equally often.  Bypasses ``certify``.
* ``point`` queries single long codes at prime n = 31, 101, 257: a lookup
  query on every code (``canonicalize``, ``decompose``, a forward and
  backward migration, ``period``, ``weighted_sum`` and the bead-word round
  trip, one result) and the unit step phi and its inverse (two results) on
  every fourth.  Lookups are two thirds of the results, so the median
  follows them, while the 95th percentile falls among the phi steps at
  n = 257.  Few long codes instead of many short ones, so a change that
  trades small-n overhead for asymptotics moves this workload one way and
  ``sweep`` the other.  Bypasses enumeration, ``certify`` and ``cli``.

Inputs come only from the seed.  The point codes are random 0/1 codes built
to a fixed profile of unit-step counts ``pow(w, -1, n)``, which is what the
cost of the unit step follows, so every seed gets new codes with the same
cost distribution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from neckslime import cli
from neckslime.certify import CHECKS, Envelope, run_sweep
from neckslime.codes import Code
from neckslime.necklaces import canonicalize, code_to_word, word_to_code
from neckslime.slime import (
    decompose,
    migrate_backward,
    migrate_forward,
    unit_migration,
    unit_migration_inverse,
    weight,
)

from spans import Tracer, span_or_nothing


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``SMOKE`` the benchmark's own tests."""

    name: str
    envelope: Envelope  # the sweep workload
    certify_envelope: Envelope  # the certify layer timings
    warmup_envelope: Envelope
    emit: tuple[tuple[str, tuple[str, ...]], ...]  # (metric key, argv)
    emit_warmup: tuple[tuple[str, ...], ...]
    point_n: tuple[int, ...]
    point_pool: int  # codes per length
    code_cell: tuple[int, int]  # per-code layer timings
    enum_cell: tuple[int, int]  # enumeration layer timings
    sigma_cells: tuple[tuple[int, int], tuple[int, int]]  # coprime cell, then an n | k cell


FULL = Scale(
    name="full",
    envelope=Envelope(max_codes=10_000),
    certify_envelope=Envelope(),
    warmup_envelope=Envelope(n_max=3, k_max=3, prime_extra=()),
    emit=(
        ("bijection_13_8_csv", ("bijection", "13", "8", "--format", "csv")),
        ("bijection_7_14_json", ("bijection", "7", "14", "--format", "json")),
        ("enum_necklaces_13_8", ("enum", "necklaces", "13", "8", "--format", "text")),
        ("count_13_8", ("count", "13", "8")),
    ),
    emit_warmup=(
        ("bijection", "5", "3", "--format", "csv"),
        ("bijection", "3", "6", "--format", "json"),
        ("enum", "necklaces", "5", "3", "--format", "text"),
        ("count", "5", "3"),
    ),
    point_n=(31, 101, 257),
    point_pool=64,
    code_cell=(11, 8),
    enum_cell=(13, 8),
    sigma_cells=((13, 8), (7, 14)),
)

# the smoke sizes keep the full-size metric keys, so both print the same names
SMOKE = Scale(
    name="smoke",
    envelope=Envelope(n_max=4, k_max=4, prime_extra=(5,)),
    certify_envelope=Envelope(n_max=4, k_max=4, prime_extra=(5,)),
    warmup_envelope=Envelope(n_max=2, k_max=2, prime_extra=()),
    emit=(
        ("bijection_13_8_csv", ("bijection", "5", "3", "--format", "csv")),
        ("bijection_7_14_json", ("bijection", "3", "6", "--format", "json")),
        ("enum_necklaces_13_8", ("enum", "necklaces", "5", "3", "--format", "text")),
        ("count_13_8", ("count", "5", "3")),
    ),
    emit_warmup=(("count", "3", "3"),),
    point_n=(7, 11, 13),
    point_pool=4,
    code_cell=(7, 4),
    enum_cell=(7, 4),
    sigma_cells=((5, 3), (3, 6)),
)


@dataclass
class PassResult:
    latencies_ns: dict = field(default_factory=dict)  # result key -> latency
    outputs: list = field(default_factory=list)


def run_cli(argv: tuple[str, ...]) -> tuple[int, bytes]:
    """``cli.main(argv)`` in-process, returning its exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue().encode()


# -- sweep -------------------------------------------------------------------


def sweep_setup(scale: Scale, pinned: dict, seed: int) -> dict:
    # the envelope is fixed, so the seed changes nothing here
    run_sweep(scale.warmup_envelope)
    return {"envelope": scale.envelope, "pinned": pinned["sweep"]}


def sweep_pass(state: dict, tracer: Tracer | None) -> PassResult:
    """``run_sweep`` untraced.  Traced, the same loop over cells and checks with
    a span around each certificate, since ``run_sweep`` returns them all at once."""
    out = PassResult()
    t0 = time.perf_counter_ns()
    if tracer is None:
        certs = run_sweep(state["envelope"])
    else:
        certs = []
        with tracer.span("certify.run_sweep"):
            for n, k in state["envelope"].cells():
                for name, (check, applies) in CHECKS.items():
                    if applies(n, k):
                        with tracer.span(f"certify.{name}", n=n, k=k) as rec:
                            certs.append(check(n, k))
                        rec["attrs"]["examined"] = certs[-1].examined
    for i, cert in enumerate(certs):
        out.latencies_ns[i] = time.perf_counter_ns() - t0
        out.outputs.append(cert)
    return out


def sweep_check(state: dict, certs: list) -> tuple[int, int]:
    totals = {"certificates": len(certs), "examined": sum(c.examined for c in certs)}
    return len(certs) + 1, sum(not c.passed for c in certs) + (totals != state["pinned"])


# -- emit --------------------------------------------------------------------


def emit_setup(scale: Scale, pinned: dict, seed: int) -> dict:
    for argv in scale.emit_warmup:
        run_cli(argv)
    # the seed picks the command that goes first in the first pass
    return {"commands": list(scale.emit), "digests": pinned["emit"], "turn": seed}


def emit_pass(state: dict, tracer: Tracer | None) -> PassResult:
    out = PassResult()
    commands, turn = state["commands"], state["turn"] % len(state["commands"])
    state["turn"] += 1
    for key, argv in commands[turn:] + commands[:turn]:
        with span_or_nothing(tracer, "cli.main", command=key):
            t0 = time.perf_counter_ns()
            rc, data = run_cli(argv)
            out.latencies_ns[key] = time.perf_counter_ns() - t0
        out.outputs.append((argv, rc, data))
    return out


def emit_check(state: dict, outputs: list) -> tuple[int, int]:
    digests = state["digests"]
    failed = sum(rc != 0 or hashlib.sha256(data).hexdigest() != digests[" ".join(argv)]
                 for argv, rc, data in outputs)
    return len(outputs), failed


# -- point -------------------------------------------------------------------


def step_profile(n: int, size: int) -> list[int]:
    """``size`` unit-step counts spread evenly over those a valid weight can give at prime n."""
    reachable = sorted(pow(w, -1, n) for w in range(1, (n - 1) // 2 + 1))
    return [reachable[(2 * i + 1) * len(reachable) // (2 * size)] for i in range(size)]


def code_with_weight(rng: random.Random, n: int, w: int) -> Code:
    """A random 0/1 code of odd length n whose slime weight is ``w``.

    Each run of 2h ones is one slime of weight h.  The number of runs is
    fixed by w (about four units of weight each), so only where the runs
    sit and how the weight splits between them vary with the seed; runs are
    separated by at least one zero, so the code stays valid.
    """
    runs = min(w, n - 2 * w, (w + 3) // 4)
    cuts = sorted(rng.sample(range(1, w), runs - 1))
    halves = [b - a for a, b in zip([0, *cuts], [*cuts, w])]
    gaps = [1] * runs
    for _ in range(n - 2 * w - runs):
        gaps[rng.randrange(runs)] += 1
    entries: list[int] = []
    for h, gap in zip(halves, gaps):
        entries += [1] * (2 * h) + [0] * gap
    shift = rng.randrange(n)
    return Code(tuple(entries[shift:] + entries[:shift]))


PHI_EVERY = 4


def point_pool(scale: Scale, seed: int) -> list[tuple[Code, bool]]:
    """Seeded codes at each point length, each paired with whether phi runs on it.

    phi runs on every ``PHI_EVERY``-th code of each length's step profile,
    so its codes follow the same profile, only coarser.
    """
    rng = random.Random(seed)
    pool = []
    for n in scale.point_n:
        for i, steps in enumerate(step_profile(n, scale.point_pool)):
            w = pow(steps, -1, n)
            code = code_with_weight(rng, n, w)
            if weight(code) != w:
                raise RuntimeError(f"input generator built {code} with weight {weight(code)}, wanted {w}")
            pool.append((code, i % PHI_EVERY == 0))
    rng.shuffle(pool)
    return pool


def unit_steps(codes: list[Code]) -> int:
    """Forward migrations the unit steps on ``codes`` make: sum of pow(w, -1, n)."""
    return sum(pow(weight(c), -1, c.n) for c in codes)


def point_setup(scale: Scale, pinned: dict, seed: int) -> dict:
    pool = point_pool(scale, seed)
    point_pass({"pool": [min(pool, key=lambda item: (item[0].n, not item[1]))]}, None)
    return {"pool": pool}


def point_pass(state: dict, tracer: Tracer | None) -> PassResult:
    out = PassResult()
    for i, (f, with_phi) in enumerate(state["pool"]):
        answers = g = back = None
        try:
            with span_or_nothing(tracer, "point.lookup", n=f.n):
                t0 = time.perf_counter_ns()
                answers = (
                    canonicalize(f).canonical,
                    decompose(f).weight,
                    fwd := migrate_forward(f),
                    migrate_backward(fwd),
                    f.period(),
                    f.weighted_sum(),
                    word_to_code(code_to_word(f)),
                )
                out.latencies_ns[i, "lookup"] = time.perf_counter_ns() - t0
            if with_phi:
                with span_or_nothing(tracer, "slime.unit_migration", n=f.n):
                    t0 = time.perf_counter_ns()
                    g = unit_migration(f)
                    out.latencies_ns[i, "phi"] = time.perf_counter_ns() - t0
                with span_or_nothing(tracer, "slime.unit_migration_inverse", n=f.n):
                    t0 = time.perf_counter_ns()
                    back = unit_migration_inverse(g)
                    out.latencies_ns[i, "phi_inverse"] = time.perf_counter_ns() - t0
        except ValueError:
            pass
        out.outputs.append((f, with_phi, answers, g, back))
    return out


def point_check(state: dict, outputs: list) -> tuple[int, int]:
    """Lookups as in :func:`_lookup_ok`; phi raises ws by exactly 1 and phi^-1 undoes it."""
    attempted = failed = 0
    for f, with_phi, answers, g, back in outputs:
        attempted += 1
        failed += answers is None or not _lookup_ok(f, *answers)
        if with_phi:
            attempted += 2
            failed += g is None or g.weighted_sum() != (f.weighted_sum() + 1) % f.n
            failed += back != f
    return attempted, failed


def _lookup_ok(f, canonical, w, fwd, bwd, period, ws, back) -> bool:
    """canonicalize gives the least rotation and is idempotent; migration round-trips
    and shifts ws by w; the period is least; ws and the word round trip are exact."""
    e, n = f.entries, f.n
    rotations = {e[s:] + e[:s] for s in range(n)}
    return (
        canonical == min(rotations)
        and canonicalize(Code(canonical)).canonical == canonical
        and bwd == f
        and fwd.weighted_sum() == (ws + w) % n
        and n % period == 0
        and e[period:] + e[:period] == e
        and all(e[d:] + e[:d] != e for d in range(1, period))
        and ws == sum(j * v for j, v in enumerate(e)) % n
        and back == f
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Scale, dict, int], dict]
    run_pass: Callable[[dict, Tracer | None], PassResult]
    check: Callable[[dict, list], tuple[int, int]]  # -> (attempted, failed)


WORKLOADS = {
    "sweep": Workload(sweep_setup, sweep_pass, sweep_check),
    "emit": Workload(emit_setup, emit_pass, emit_check),
    "point": Workload(point_setup, point_pass, point_check),
}
