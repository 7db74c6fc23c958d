from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from neckslime import (
    Code,
    InvalidCodeError,
    NonCoprimeWeightError,
    decompose,
    migrate_backward,
    migrate_forward,
    unit_migration,
    unit_migration_inverse,
    weight,
)
from neckslime import slime
from neckslime.cli import main
from neckslime.slime import runs, step

from oracles import slime_migrate, slime_phi, slime_runs

CHAIN0 = Code((1, 1, 2, 1, 0, 1, 0, 3, 0, 0, 2))
CHAIN1 = Code((2, 1, 1, 2, 0, 1, 0, 2, 1, 0, 1))
CHAIN2 = Code((1, 2, 0, 3, 0, 1, 0, 1, 2, 0, 1))

codes = st.lists(st.integers(0, 5), min_size=1, max_size=8).map(lambda e: Code(tuple(e)))
valid_codes = codes.filter(lambda f: decompose(f).valid)


class TestMaxAdjacentSum:
    def test_examples(self):
        assert decompose(CHAIN0).m == 3
        assert decompose(Code((1, 1, 1))).m == 2
        assert decompose(Code((3, 0, 0))).m == 3

    @given(codes)
    def test_brute(self, f):
        e, n = f.entries, f.n
        assert decompose(f).m == max(e[j] + e[(j + 1) % n] for j in range(n))


class TestDecompose:
    def test_reference_chain_head(self):
        dec = decompose(CHAIN0)
        assert dec.valid and dec.m == 3
        assert [(s.start, s.length) for s in dec.slimes] == [(1, 3), (6, 3), (10, 2)]
        assert dec.weight == 3

    def test_single_odd_slime(self):
        dec = decompose(Code((3, 0, 0)))
        assert dec.valid and dec.m == 3 and dec.weight == 1
        assert [(s.start, s.length) for s in dec.slimes] == [(2, 3)]

    def test_constant_invalid(self):
        dec = decompose(Code((1, 1, 1)))
        assert not dec.valid and dec.slimes == ()
        with pytest.raises(InvalidCodeError):
            dec.weight

    def test_all_n2_invalid(self):
        for a in range(5):
            for b in range(5):
                assert not decompose(Code((a, b))).valid
        assert not decompose(Code((7,))).valid

    def test_alternating_even_invalid(self):
        assert not decompose(Code((1, 0, 1, 0))).valid
        assert not decompose(Code((2, 2, 2, 2))).valid

    def test_wrap_covering_slime(self):
        # a single slime may cover every position as long as one pair sum drops
        dec = decompose(Code((1, 2, 1, 2, 1)))
        assert dec.valid
        assert [(s.start, s.length) for s in dec.slimes] == [(0, 5)]
        assert dec.weight == 2

    def test_json_shape(self):
        d = decompose(CHAIN0).to_json_dict()
        assert list(d) == ["m", "valid", "weight", "slimes"]
        assert d["slimes"][0] == {"start": 1, "len": 3}
        bad = decompose(Code((1, 1))).to_json_dict()
        assert list(bad) == ["m", "valid", "slimes"] and bad["valid"] is False

    def test_text(self, capsys):
        assert str(decompose(CHAIN0)) == "m=3 weight=3 slimes=1:3 6:3 10:2"
        assert str(decompose(Code((1, 1)))) == "m=2 invalid"
        for f in (CHAIN0, Code((1, 1))):
            assert main(["slimes", str(f), "--format", "text"]) == 0
            assert capsys.readouterr().out == f"{decompose(f)}\n"

    @given(codes)
    def test_structure(self, f):
        dec = decompose(f)
        n = f.n
        sums = [f.entries[j] + f.entries[(j + 1) % n] for j in range(n)]
        assert dec.m == max(sums)
        assert dec.valid == (not all(s == dec.m for s in sums))
        if not dec.valid:
            assert dec.slimes == ()
            return
        covered = []
        for s in dec.slimes:
            assert 2 <= s.length <= n
            pos = [(s.start + i) % n for i in range(s.length)]
            covered.extend(pos)
            # alternating a, b with every adjacent pair summing to m
            for i in range(s.length - 1):
                assert f.entries[pos[i]] + f.entries[pos[i + 1]] == dec.m
            for i in range(s.length - 2):
                assert f.entries[pos[i]] == f.entries[pos[i + 2]]
            if s.length % 2 == 0:
                assert f.entries[pos[0]] >= 1 and f.entries[pos[-1]] >= 1
            # maximal: the pairs just outside the run are colder (for a
            # length-n slime both reduce to the single cold cutoff pair)
            assert f.entries[(pos[0] - 1) % n] + f.entries[pos[0]] < dec.m
            assert f.entries[pos[-1]] + f.entries[(pos[-1] + 1) % n] < dec.m
        assert len(covered) == len(set(covered)), "slimes overlap"
        assert 1 <= dec.weight <= n // 2


class TestMigration:
    def test_reference_forward_chain(self):
        assert migrate_forward(CHAIN0) == CHAIN1
        assert migrate_forward(CHAIN1) == CHAIN2

    def test_reference_backward_chain(self):
        assert migrate_backward(CHAIN1) == CHAIN0
        assert migrate_backward(CHAIN2) == CHAIN1

    def test_reference_ws_chain(self):
        assert CHAIN0.weighted_sum() == 10
        assert CHAIN1.weighted_sum() == 2
        assert CHAIN2.weighted_sum() == 5

    def test_single_step(self):
        assert migrate_forward(Code((3, 0, 0))) == Code((2, 1, 0))
        assert migrate_backward(Code((2, 1, 0))) == Code((3, 0, 0))

    def test_invalid_rejected(self):
        with pytest.raises(InvalidCodeError):
            migrate_forward(Code((2, 2, 2, 2)))
        with pytest.raises(InvalidCodeError):
            migrate_backward(Code((1, 1, 1)))

    def test_step_refuses_runs_that_are_not_the_slimes(self):
        # (0, 2) is no hot run of (0, 1, 1): moving a unit out of position 0 leaves -1 there
        with pytest.raises(InvalidCodeError) as info:
            step((0, 1, 1), ((0, 2),), True)
        assert str(info.value) == "migration produced a negative entry: ((0, 2),) are not the slimes of (0, 1, 1)"

    @given(valid_codes)
    def test_round_trip(self, f):
        assert migrate_backward(migrate_forward(f)) == f
        assert migrate_forward(migrate_backward(f)) == f

    @given(valid_codes)
    def test_conservation(self, f):
        dec = decompose(f)
        for image in (migrate_forward(f), migrate_backward(f)):
            idec = decompose(image)
            assert idec.valid
            assert idec.m == dec.m
            assert len(idec.slimes) == len(dec.slimes)
            assert idec.weight == dec.weight
            assert image.k == f.k

    @given(valid_codes)
    def test_weighted_sum_shift(self, f):
        w = weight(f)
        assert migrate_forward(f).weighted_sum() == (f.weighted_sum() + w) % f.n
        assert migrate_backward(f).weighted_sum() == (f.weighted_sum() - w) % f.n

    @given(valid_codes, st.integers(0, 10))
    def test_rotation_equivariance(self, f, s):
        assert migrate_forward(f.rotate(s)) == migrate_forward(f).rotate(s)

    @given(valid_codes)
    def test_weight_bounds(self, f):
        assert 1 <= weight(f) <= f.n // 2


class TestOddLengthInvalidity:
    @given(st.integers(1, 4).map(lambda h: 2 * h + 1), st.integers(0, 7))
    def test_invalid_iff_constant(self, n, k):
        from neckslime import enumerate_codes

        for f in enumerate_codes(n, k):
            assert (not decompose(f).valid) == (f.period() == 1)


class TestUnitMigration:
    def test_golden_chain(self):
        assert unit_migration(Code((3, 0, 0))) == Code((2, 1, 0))
        assert unit_migration(unit_migration(Code((3, 0, 0)))) == Code((1, 2, 0))

    def test_equivariant_on_rotated_start(self):
        assert unit_migration(Code((0, 0, 3))) == Code((1, 0, 2))

    def test_inverse(self):
        assert unit_migration_inverse(Code((2, 1, 0))) == Code((3, 0, 0))
        assert unit_migration_inverse(Code((1, 2, 0))) == Code((2, 1, 0))

    def test_invalid_rejected(self):
        with pytest.raises(InvalidCodeError):
            unit_migration(Code((1, 1, 1)))

    def test_weight_not_coprime(self):
        # two slimes of weight 1 each, gcd(2, 6) = 2
        with pytest.raises(NonCoprimeWeightError):
            unit_migration(Code((3, 0, 0, 3, 0, 0)))

    @given(valid_codes)
    def test_plus_one_shift_when_defined(self, f):
        from math import gcd

        assume(gcd(weight(f), f.n) == 1)
        g = unit_migration(f)
        assert g.weighted_sum() == (f.weighted_sum() + 1) % f.n
        assert unit_migration_inverse(g) == f


def _against_oracle(entries: tuple[int, ...]) -> None:
    m, rs = runs(entries)
    om, ors = slime_runs(entries)
    assert m == om
    assert (rs is None) == (ors is None)
    if rs is None:
        return
    assert list(rs) == ors
    f = Code(entries)
    for forward, move in ((True, migrate_forward), (False, migrate_backward)):
        image = slime_migrate(entries, forward)
        assert step(entries, rs, forward) == image
        assert move(f).entries == image
    phi = slime_phi(entries)
    if phi is None:
        with pytest.raises(NonCoprimeWeightError):
            unit_migration(f)
    else:
        assert unit_migration(f).entries == phi
        assert unit_migration_inverse(f).entries == slime_phi(entries, forward=False)


class TestKernelAgainstOracle:
    def test_every_small_code(self):
        from neckslime import enumerate_codes

        for n in range(1, 9):
            for k in range(7):
                for f in enumerate_codes(n, k):
                    _against_oracle(f.entries)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=31))
    def test_long_codes(self, entries):
        _against_oracle(tuple(entries))


def runs_of_ones(rng: random.Random, n: int, w: int) -> tuple[int, ...]:
    """A 0/1 code of odd length n and slime weight w, laid out as the point benchmark lays
    out its codes: about four units of weight per run of 2h ones, runs apart by zeros, rotated."""
    count = min(w, n - 2 * w, (w + 3) // 4)
    cuts = sorted(rng.sample(range(1, w), count - 1))
    halves = [b - a for a, b in zip([0, *cuts], [*cuts, w])]
    gaps = [1] * count
    for _ in range(n - 2 * w - count):
        gaps[rng.randrange(count)] += 1
    entries = [v for h, gap in zip(halves, gaps) for v in [1] * (2 * h) + [0] * gap]
    shift = rng.randrange(n)
    return tuple(entries[shift:] + entries[:shift])


def count_steps(monkeypatch) -> dict:
    calls = {"step": 0}

    def counted(*args, _real=slime.step):
        calls["step"] += 1
        return _real(*args)

    monkeypatch.setattr(slime, "step", counted)
    return calls


class TestUnitStepRotationShortcut:
    """The unit step stops migrating once F^t(f) is a rotation of f; its images stay the oracle's."""

    @pytest.mark.parametrize("n", [101, 257])
    def test_runs_of_ones_against_oracle(self, n):
        rng = random.Random(n)
        for w in (1, 2, 5, 17, pow(3, -1, n), (n - 1) // 2):
            f = Code(runs_of_ones(rng, n, w))
            assert weight(f) == w
            assert unit_migration(f).entries == slime_phi(f.entries)
            assert unit_migration_inverse(f).entries == slime_phi(f.entries, forward=False)

    @given(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]).flatmap(
        lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)))
    def test_prime_lengths_against_oracle(self, entries):
        phi = slime_phi(entries)
        assume(phi is not None)
        f = Code(entries)
        assert unit_migration(f).entries == phi
        assert unit_migration_inverse(f).entries == slime_phi(entries, forward=False)

    def test_three_migrations_where_the_orbit_turns(self, monkeypatch):
        f = Code(runs_of_ones(random.Random(1), 257, 2))
        assert pow(weight(f), -1, 257) == 129
        calls = count_steps(monkeypatch)
        g = unit_migration(f)
        assert calls == {"step": 3}
        assert unit_migration_inverse(g) == f
        assert calls == {"step": 6}

    def test_every_migration_when_n_divides_k(self, monkeypatch):
        f = Code((0, 0, 0, 0, 0, 0, 1, 0, 5, 0, 5))  # n = k = 11, w = 2
        assert weight(f) == 2 and f.k == f.n
        calls = count_steps(monkeypatch)
        g = unit_migration(f)
        assert calls == {"step": 6}  # pow(2, -1, 11)
        assert g.entries == slime_phi(f.entries)


def test_safety_checks_survive_optimize():
    """Forged runs and an inexact necklace count still raise under ``python -O``."""
    script = """
import sys
import neckslime.necklaces as nl
from neckslime.slime import InvalidCodeError, step

assert sys.flags.optimize, "not running under -O"
try:
    step((0, 1, 0), ((0, 2),), True)
except InvalidCodeError as exc:
    print("step:", exc)
nl.comb = lambda a, b: 1
try:
    nl.count_necklaces(3, 3)
except nl.NecklaceCountError as exc:
    print("count:", exc)
"""
    assert issubclass(InvalidCodeError, ValueError)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    p = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stderr
    assert "step: migration produced a negative entry" in p.stdout
    assert "count: necklace count for (3, 3) did not divide evenly" in p.stdout
    from neckslime.necklaces import NecklaceCountError

    assert issubclass(NecklaceCountError, ValueError)
