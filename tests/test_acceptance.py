"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Time budgets are asserted inside the tests; golden
values were recomputed with independent brute-force oracles before being
frozen here.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from math import comb, gcd

from neckslime import (
    Code,
    canonicalize,
    count_necklaces,
    decompose,
    enumerate_codes,
    enumerate_necklaces,
    migrate_backward,
    migrate_forward,
    prime_bijection,
    riwi_rotation,
    riwi_slime,
    verify_riwi,
)
from neckslime.certify import check_migration_laws

ENVELOPE_K = 8
MAX_CODES = 500_000


def envelope_ks(n: int) -> list[int]:
    return [k for k in range(ENVELOPE_K + 1) if comb(n + k - 1, n - 1) <= MAX_CODES]


def test_criterion_01_migration_chain_golden():
    start = Code((1, 1, 2, 1, 0, 1, 0, 3, 0, 0, 2))
    decompose(start)  # warm the code paths before the timed run
    t0 = time.perf_counter()
    dec = decompose(start)
    middle = migrate_forward(start)
    right = migrate_forward(middle)
    back_once = migrate_backward(middle)
    back_twice = migrate_backward(right)
    elapsed = time.perf_counter() - t0
    assert dec.m == 3 and dec.valid
    assert sorted(s.length for s in dec.slimes) == [2, 3, 3]
    assert dec.weight == 3
    assert middle == Code((2, 1, 1, 2, 0, 1, 0, 2, 1, 0, 1))
    assert right == Code((1, 2, 0, 3, 0, 1, 0, 1, 2, 0, 1))
    assert back_once == start and back_twice == middle
    assert elapsed < 0.001, f"golden chain took {elapsed * 1000:.3f} ms, budget 1 ms"


def test_criterion_02_weighted_sum_golden():
    assert Code((4, 2, 1)).weighted_sum() == 1
    assert Code((1, 4, 2)).weighted_sum() == 2
    assert Code((2, 1, 4)).weighted_sum() == 0


def test_criterion_03_unit_migration_golden():
    from neckslime import unit_migration

    first = unit_migration(Code((3, 0, 0)))
    assert first == Code((2, 1, 0))
    assert unit_migration(first) == Code((1, 2, 0))


def test_criterion_04_count_identity_square():
    t0 = time.perf_counter()
    for n in range(1, 9):
        for k in range(9):
            formula = count_necklaces(n, k)
            assert formula == len(enumerate_necklaces(n, k)), (n, k)
            zero_class = sum(1 for _ in enumerate_codes(n, k, t=0))
            assert zero_class == formula, (n, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"count identity sweep took {elapsed:.1f} s, budget 10 s"


def test_criterion_05_migration_law_suite():
    t0 = time.perf_counter()
    for n in (3, 5, 7, 9):
        for k in range(9):
            cert = check_migration_laws(n, k)
            assert cert.passed, (n, k, cert.counterexamples)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"migration law suite took {elapsed:.1f} s, budget 30 s"


def test_criterion_06_odd_invalidity_characterization():
    for n in (1, 3, 5, 7, 9):
        for k in range(10):
            for f in enumerate_codes(n, k):
                assert (not decompose(f).valid) == (f.period() == 1), f


def test_criterion_07_riwi_certification():
    t0 = time.perf_counter()
    for n in (3, 5, 7, 11):
        for k in envelope_ks(n):
            report = verify_riwi(riwi_slime(n, k), n, k)
            assert report.passed, (n, k, report.failures)
            if gcd(n, k) == 1:
                report = verify_riwi(riwi_rotation(n, k), n, k)
                assert report.passed, (n, k, report.failures)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"riwi certification took {elapsed:.1f} s, budget 120 s"


def test_criterion_08_prime_bijection_certification():
    t0 = time.perf_counter()
    cells = [(n, k) for n in (2, 3, 5, 7, 11) for k in envelope_ks(n)]
    cells.append((5, 10))  # the worked larger cell, pinned at 201 pairs
    for n, k in cells:
        table = prime_bijection(n, k)
        codes = [c for c, _ in table.pairs]
        necks = [m for _, m in table.pairs]
        assert codes == list(enumerate_codes(n, k, t=0)), (n, k)
        assert len(set(necks)) == len(necks), (n, k)
        assert set(necks) == set(enumerate_necklaces(n, k)), (n, k)
        assert len(table.pairs) == count_necklaces(n, k), (n, k)
    assert len(prime_bijection(5, 10).pairs) == 201
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"prime bijection certification took {elapsed:.1f} s, budget 120 s"


def test_criterion_09_weight_bounds():
    cells = [(n, k) for n in range(1, 9) for k in range(9)]
    cells += [(11, k) for k in envelope_ks(11)]
    for n, k in cells:
        for f in enumerate_codes(n, k):
            dec = decompose(f)
            if dec.valid:
                assert 1 <= dec.weight <= n // 2, f


def test_criterion_10_determinism_and_worked_table():
    cmd = [sys.executable, "-m", "neckslime", "bijection", "3", "3"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout, "repeated runs are not byte-identical"

    # recompute the worked table by hand: weight-1 codes need exactly one
    # forward migration per unit shift, and the orbit anchor is the lex-min
    # member, so the expected pairs follow from the chain
    # (0,0,3) -> (1,0,2) -> (2,0,1) plus the constant fixed point
    anchor = Code((0, 0, 3))
    step1 = migrate_forward(anchor)
    step2 = migrate_forward(step1)
    expected = {
        (0, 0, 3): canonicalize(anchor).canonical,
        (0, 3, 0): canonicalize(step1).canonical,
        (3, 0, 0): canonicalize(step2).canonical,
        (1, 1, 1): (1, 1, 1),
    }
    assert expected == {
        (0, 0, 3): (0, 0, 3),
        (0, 3, 0): (0, 2, 1),
        (3, 0, 0): (0, 1, 2),
        (1, 1, 1): (1, 1, 1),
    }
    emitted = json.loads(first.stdout)
    assert {tuple(p["code"]): tuple(p["necklace"]) for p in emitted["pairs"]} == expected
