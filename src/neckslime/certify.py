"""Brute-force certification of every law the library leans on.

Each check exhausts one (n, k) cell and returns a :class:`Certificate`
holding the number of items examined, the exact failure count, and concrete
counterexamples when something breaks (detail strings are capped); its
verdict is ``pass`` exactly when the failure count is 0.  Every check
collects its failures in one :class:`~neckslime.bijection.Tally`, the record
:func:`verify_riwi` returns, and :func:`_certificate` turns it into the
certificate.  The checks that walk a cell take its entry tuples and their
weighted sums from one walk, ``codes._walk``, and build a :class:`Code`
only for a counterexample; ``check_prime_bijection`` takes its domain from
that walk too and compares the tables' entry-tuple pairs with it.  A
failing certificate is data, not an exception; exceptions are reserved for
inapplicable inputs, e.g. asking for the odd-length invalidity check at
even n.

The default :class:`Envelope` sweeps all n, k <= 8 plus prime lengths up to
11, keeping every cell under a configurable enumeration budget.  Checks on
distinct cells are independent and may run in any order; verdicts never
depend on scheduling.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator

from .bijection import (CHOOSERS, CONSTRUCTIONS, RiwiMap, Tally, prime_bijection, riwi_rotation, riwi_slime,
                        verify_riwi)
from .codes import Code, _walk, is_prime
from .necklaces import count_necklaces, enumerate_necklaces
from .slime import _weight, runs, step


@dataclass(frozen=True, slots=True)
class Certificate:
    check: str
    n: int
    k: int
    counterexamples: tuple[str, ...]
    failure_count: int
    examined: int
    elapsed_s: float
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "k": self.k,
            "verdict": self.verdict,
            "counterexamples": list(self.counterexamples),
            "failure_count": self.failure_count,
            "examined": self.examined,
            "elapsed_s": round(self.elapsed_s, 6),
            "info": self.info,
        }


def _certificate(check: str, n: int, k: int, tally: Tally, t0: float, info: dict) -> Certificate:
    """The certificate of a check's ``tally``, timed from ``t0`` (a ``perf_counter`` reading)."""
    return Certificate(
        check=check,
        n=n,
        k=k,
        counterexamples=tuple(tally.failures),
        failure_count=tally.failure_count,
        examined=tally.checked,
        elapsed_s=time.perf_counter() - t0,
        info=info,
    )


def check_invalid_iff_constant(n: int, k: int) -> Certificate:
    """For odd n, a code is invalid exactly when it is constant."""
    if n % 2 == 0:
        raise ValueError(f"the invalidity characterization applies to odd n only, got {n}")
    t0 = time.perf_counter()
    tally = Tally()
    invalid = 0
    for e, _ in _walk(n, k):
        tally.checked += 1
        is_invalid = runs(e)[1] is None
        invalid += is_invalid
        constant = e.count(e[0]) == n
        if is_invalid != constant:
            tally.fail(f"{Code._trusted(e)}: invalid={is_invalid} but constant={constant}")
    return _certificate("invalid-constant", n, k, tally, t0, {"invalid": invalid})


def check_migration_laws(n: int, k: int) -> Certificate:
    """Round trips, conserved quantities, ws shifts, and equivariance for all valid codes.

    Runs on the slime kernel in one pass: each code of the cell is decomposed
    once and stepped once each way, and its record keeps m, the slime count,
    the weight and the indices of its two images.  The images are codes of
    the same cell, so each image's laws are read from that image's own
    record; an image that is not a code of the cell is a counterexample.
    """
    t0 = time.perf_counter()
    tally = Tally()
    codes: list[tuple[int, ...]] = []
    ws: list[int] = []  # the weighted sum of each code, as the walk carries it
    for e, w in _walk(n, k):
        codes.append(e)
        ws.append(w)
    index = {e: i for i, e in enumerate(codes)}
    # per code: (m, slime count, weight, forward image, backward image), images as indices
    # into codes (None for one outside the cell); None for an invalid code
    records = []
    for e in codes:
        m, rs = runs(e)
        records.append(None if rs is None else (
            m, len(rs), _weight(e, rs), index.get(step(e, rs, True)), index.get(step(e, rs, False))))
    tally.checked = len(codes)

    def fail(i: int, law: str) -> None:
        tally.fail(f"{Code._trusted(codes[i])}: {law}")

    for i, record in enumerate(records):
        if record is None:
            continue
        m, slimes, w, g, b = record
        if not 1 <= w <= n // 2:
            fail(i, f"weight {w} outside [1, {n // 2}]")
        # an image that is invalid or outside the cell has no record to step back with; it fails below
        if g is not None and records[g] is not None and records[g][4] != i:
            fail(i, "backward(forward) is not the identity")
        if b is not None and records[b] is not None and records[b][3] != i:
            fail(i, "forward(backward) is not the identity")
        images = (("forward", g, w), ("backward", b, -w))
        for label, j, _ in images:
            if j is None:
                fail(i, f"{label} image is not a code of ({n}, {k})")
            elif records[j] is None:
                fail(i, f"{label} image {Code._trusted(codes[j])} is invalid")
            else:
                im, islimes, iw = records[j][:3]
                if im != m:
                    fail(i, f"{label} image changed m {m} -> {im}")
                if islimes != slimes:
                    fail(i, f"{label} image changed slime count")
                if iw != w:
                    fail(i, f"{label} image changed weight {w} -> {iw}")
        for label, j, shift in images:
            if j is not None and ws[j] != (ws[i] + shift) % n:
                fail(i, f"{label} ws shift is not {shift:+d}")
        if g is not None:
            e, image = codes[i], codes[g]
            rotated = records[index[e[1:] + e[:1]]]
            if rotated is None or rotated[3] != index[image[1:] + image[:1]]:
                fail(i, "forward migration does not commute with rotation")
    valid = len(codes) - records.count(None)
    return _certificate("migration-laws", n, k, tally, t0, {"valid": valid, "invalid": len(codes) - valid})


def check_count_identity(n: int, k: int) -> Certificate:
    """Formula = enumerated necklace count = size of the zero residue class.

    The zero-class identity is a theorem at every n (proved in
    :mod:`neckslime.necklaces`), and this check judges it at every n.
    """
    t0 = time.perf_counter()
    formula = count_necklaces(n, k)
    enumerated = len(enumerate_necklaces(n, k))
    zero_class = sum(1 for _, ws in _walk(n, k) if not ws)
    tally = Tally(checked=comb(n + k - 1, n - 1))
    if formula != enumerated:
        tally.fail(f"formula {formula} != enumerated {enumerated}")
    if zero_class != formula:
        tally.fail(f"|zero residue class| {zero_class} != necklace count {formula}")
    info = {"formula": formula, "enumerated": enumerated, "zero_class": zero_class}
    if n % 2 == 0:
        # repeats the verdict at even n; the key goes when the benchmark's pinned certificates are redone
        info["zero_class_matches"] = zero_class == formula
    return _certificate("count-identity", n, k, tally, t0, info)


def check_riwi(check: str, chi: RiwiMap, n: int, k: int) -> Certificate:
    """:func:`verify_riwi` of ``chi`` on one cell as a certificate named ``check``."""
    t0 = time.perf_counter()
    return _certificate(check, n, k, verify_riwi(chi, n, k), t0, {"riwi": chi.descriptor})


def check_prime_bijection(n: int, k: int) -> Certificate:
    """prime_bijection is injective, surjective onto all necklaces, and counts right.

    The same checks run under each representative chooser: changing it must
    never break bijectivity.
    """
    t0 = time.perf_counter()
    tables = {chooser: prime_bijection(n, k, chooser) for chooser in CHOOSERS}
    expected_codes = [e for e, ws in _walk(n, k) if not ws]
    domain = set(expected_codes)
    all_necklaces = {m.canonical for m in enumerate_necklaces(n, k)}
    expected = count_necklaces(n, k)
    tally = Tally(checked=len(expected_codes))
    for chooser, table in tables.items():
        codes, necks = [c for c, _ in table.pairs], [m for _, m in table.pairs]
        if codes != expected_codes:
            only_table = sorted(set(codes) - domain)[:3]
            only_domain = sorted(domain - set(codes))[:3]
            tally.fail(f"{chooser}: domain mismatch: unexpected {[str(Code._trusted(c)) for c in only_table]}, "
                       f"missing {[str(Code._trusted(c)) for c in only_domain]}")
        if len(set(necks)) != len(necks):
            dup = sorted(f"<{Code._trusted(m)}>" for m, count in Counter(necks).items() if count > 1)[:3]
            tally.fail(f"{chooser}: not injective: repeated necklaces {dup}")
        if set(necks) != all_necklaces:
            missing = [f"<{Code._trusted(m)}>" for m in sorted(all_necklaces - set(necks))[:3]]
            tally.fail(f"{chooser}: not surjective: unreached necklaces {missing}")
        if len(table.pairs) != expected:
            tally.fail(f"{chooser}: table has {len(table.pairs)} pairs, necklace count is {expected}")
    first, *others = (table.pairs for table in tables.values())
    info = {"pairs": len(first), "choosers_agree": all(pairs == first for pairs in others)}
    return _certificate("prime-bijection", n, k, tally, t0, info)


CHECKS: dict[str, tuple[Callable[[int, int], Certificate], Callable[[int, int], bool]]] = {
    "invalid-constant": (check_invalid_iff_constant, lambda n, k: n % 2 == 1),
    "migration-laws": (check_migration_laws, lambda n, k: True),
    "count-identity": (check_count_identity, lambda n, k: True),
    "riwi-slime": (lambda n, k: check_riwi("riwi-slime", riwi_slime(n, k), n, k), CONSTRUCTIONS["slime"][0]),
    "riwi-rotation": (lambda n, k: check_riwi("riwi-rotation", riwi_rotation(n, k), n, k),
                      CONSTRUCTIONS["rotation"][0]),
    "prime-bijection": (check_prime_bijection, lambda n, k: is_prime(n)),
}


@dataclass(frozen=True, slots=True)
class Envelope:
    """Sweep bounds: small square of cells plus selected prime lengths.

    ``max_codes`` caps the enumeration size of any single cell so a sweep
    stays at desk scale; bounds are data, not constants baked into checks.
    """

    n_max: int = 8
    k_max: int = 8
    prime_extra: tuple[int, ...] = (11,)
    max_codes: int = 500_000

    def admits(self, n: int, k: int) -> bool:
        return comb(n + k - 1, n - 1) <= self.max_codes

    def cells(self) -> Iterator[tuple[int, int]]:
        extra = (p for p in dict.fromkeys(self.prime_extra) if p > self.n_max and is_prime(p))
        for n in [*range(1, self.n_max + 1), *extra]:
            for k in range(self.k_max + 1):
                if self.admits(n, k):
                    yield n, k


def _lookup(name: str) -> tuple[Callable[[int, int], Certificate], Callable[[int, int], bool]]:
    try:
        return CHECKS[name]
    except KeyError:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECKS)}") from None


def run_cell(n: int, k: int, check: str = "all") -> list[Certificate]:
    """All applicable checks at one cell, or one named check (which may refuse the cell)."""
    if check == "all":
        return [func(n, k) for func, applies in CHECKS.values() if applies(n, k)]
    func, _ = _lookup(check)
    return [func(n, k)]


def run_sweep(envelope: Envelope | None = None, checks: list[str] | None = None) -> Iterator[Certificate]:
    """Every applicable check over every cell of the envelope, yielded as each one finishes.

    Check names are resolved on the call, so an unknown one raises
    ``KeyError`` before any check runs; a repeated one runs once.
    """
    envelope = envelope or Envelope()
    selected = [_lookup(name) for name in dict.fromkeys(CHECKS if checks is None else checks)]
    return (func(n, k) for n, k in envelope.cells() for func, applies in selected if applies(n, k))


def summarize(certs: list[Certificate]) -> str:
    """Fixed-width summary table, one row per certificate, then the failed ones' counterexamples."""
    rows = [("check", "n", "k", "verdict", "examined", "failures", "seconds")]
    for c in certs:
        rows.append((c.check, str(c.n), str(c.k), c.verdict, str(c.examined),
                     str(c.failure_count), f"{c.elapsed_s:.3f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    failed = [c for c in certs if not c.passed]
    lines.extend(f"  {c.check} ({c.n}, {c.k}): {detail}" for c in failed for detail in c.counterexamples)
    lines.append(f"{len(certs)} checks, {len(failed)} failed")
    return "\n".join(lines)
