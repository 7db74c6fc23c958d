from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from math import comb

import pytest

from neckslime import (
    CHECKS,
    Certificate,
    Envelope,
    RiwiMap,
    build_sigma,
    riwi_rotation,
    run_cell,
    run_sweep,
    summarize,
)
from neckslime import bijection, certify, codes
from neckslime.bijection import CONSTRUCTIONS
from neckslime.certify import (
    check_count_identity,
    check_invalid_iff_constant,
    check_migration_laws,
    check_prime_bijection,
)


def _digest(certs: list[Certificate]) -> str:
    """sha256 over every field of every certificate but the wall time, in order, info keys included."""
    lines = []
    for cert in certs:
        d = cert.to_json_dict()
        del d["elapsed_s"]
        lines.append(json.dumps(d))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestInvalidConstant:
    def test_3_3(self):
        cert = check_invalid_iff_constant(3, 3)
        assert cert.passed and cert.examined == 10
        assert cert.info["invalid"] == 1

    def test_5_4_no_constant(self):
        cert = check_invalid_iff_constant(5, 4)
        assert cert.passed and cert.info["invalid"] == 0

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            check_invalid_iff_constant(4, 4)

    def test_failure_names_code(self, monkeypatch):
        real = certify.runs
        monkeypatch.setattr(certify, "runs", lambda e: (3, None) if e == (2, 1, 0) else real(e))
        cert = check_invalid_iff_constant(3, 3)
        assert (cert.failure_count, cert.counterexamples) == (1, ("2,1,0: invalid=True but constant=False",))


class TestMigrationLaws:
    def test_3_3(self):
        cert = check_migration_laws(3, 3)
        assert cert.passed
        assert cert.info == {"valid": 9, "invalid": 1}

    def test_7_5(self):
        cert = check_migration_laws(7, 5)
        assert cert.passed and cert.examined == comb(11, 6)

    def test_even_length_cell(self):
        assert check_migration_laws(6, 4).passed

    def test_failures_name_codes(self, monkeypatch):
        import neckslime.certify as certify

        real = certify.step

        def broken(entries, runs, forward):
            return (1, 1, 1) if forward and entries == (2, 1, 0) else real(entries, runs, forward)

        monkeypatch.setattr(certify, "step", broken)
        cert = check_migration_laws(3, 3)
        assert cert.failure_count == 5
        assert set(cert.counterexamples) == {
            "1,2,0: forward(backward) is not the identity",
            "2,1,0: forward image 1,1,1 is invalid",
            "2,1,0: forward ws shift is not +1",
            "0,2,1: forward migration does not commute with rotation",
            "2,1,0: forward migration does not commute with rotation",
        }

    def test_backward_failures_name_codes(self, monkeypatch):
        real = certify.step

        def broken(entries, runs, forward):
            return (1, 1, 1) if not forward and entries == (2, 1, 0) else real(entries, runs, forward)

        monkeypatch.setattr(certify, "step", broken)
        cert = check_migration_laws(3, 3)
        assert cert.failure_count == 2
        assert set(cert.counterexamples) == {
            "2,1,0: backward image 1,1,1 is invalid",
            "3,0,0: backward(forward) is not the identity",
        }

    def test_image_of_other_content_fails(self, monkeypatch):
        # an image outside the cell is a counterexample, never an exception
        real = certify.step

        def broken(entries, runs, forward):
            return (1, 1, 2) if forward and entries == (2, 1, 0) else real(entries, runs, forward)

        monkeypatch.setattr(certify, "step", broken)
        cert = check_migration_laws(3, 3)
        assert not cert.passed
        assert any(detail.startswith("2,1,0: ") for detail in cert.counterexamples)

    @staticmethod
    def broken_at(monkeypatch, name, entries, change):
        """Patch ``certify.<name>`` so that ``change`` rewrites its result on ``entries`` only."""
        real = getattr(certify, name)

        def patched(e, *args):
            out = real(e, *args)
            return change(out) if e == entries else out

        monkeypatch.setattr(certify, name, patched)

    def test_changed_m_fails(self, monkeypatch):
        self.broken_at(monkeypatch, "runs", (2, 1, 0), lambda out: (out[0] + 1, out[1]))
        cert = check_migration_laws(3, 3)
        assert cert.failure_count == 4
        assert list(cert.counterexamples) == [
            "1,2,0: backward image changed m 3 -> 4",
            "2,1,0: forward image changed m 4 -> 3",
            "2,1,0: backward image changed m 4 -> 3",
            "3,0,0: forward image changed m 3 -> 4",
        ]

    def test_changed_slime_count_fails(self, monkeypatch):
        # a run of length 1 moves nothing, so only the slime count changes
        self.broken_at(monkeypatch, "runs", (2, 1, 0), lambda out: (out[0], out[1] + ((2, 1),)))
        cert = check_migration_laws(3, 3)
        assert cert.failure_count == 4
        assert list(cert.counterexamples) == [
            "1,2,0: backward image changed slime count",
            "2,1,0: forward image changed slime count",
            "2,1,0: backward image changed slime count",
            "3,0,0: forward image changed slime count",
        ]

    def test_weight_out_of_range_fails(self, monkeypatch):
        self.broken_at(monkeypatch, "_weight", (2, 1, 0), lambda w: 0)
        cert = check_migration_laws(3, 3)
        assert cert.failure_count == 7
        assert list(cert.counterexamples) == [
            "1,2,0: backward image changed weight 1 -> 0",
            "2,1,0: weight 0 outside [1, 1]",
            "2,1,0: forward image changed weight 0 -> 1",
            "2,1,0: backward image changed weight 0 -> 1",
            "2,1,0: forward ws shift is not +0",
            "2,1,0: backward ws shift is not +0",
            "3,0,0: forward image changed weight 1 -> 0",
        ]

    def test_changed_weight_fails(self, monkeypatch):
        # weight 2 is in range at n = 5: only the images' weights and the ws shifts disagree with it
        self.broken_at(monkeypatch, "_weight", (2, 1, 0, 0, 0), lambda w: w + 1)
        cert = check_migration_laws(5, 3)
        assert cert.failure_count == 6
        assert list(cert.counterexamples) == [
            "1,2,0,0,0: backward image changed weight 1 -> 2",
            "2,1,0,0,0: forward image changed weight 2 -> 1",
            "2,1,0,0,0: backward image changed weight 2 -> 1",
            "2,1,0,0,0: forward ws shift is not +2",
            "2,1,0,0,0: backward ws shift is not -2",
            "3,0,0,0,0: forward image changed weight 1 -> 2",
        ]

    @pytest.mark.parametrize("n, k", [(7, 5), (11, 6)])
    def test_one_decomposition_and_two_steps_per_code(self, monkeypatch, n, k):
        calls = {"runs": 0, "step": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(certify, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(certify, name, counted)
        cert = check_migration_laws(n, k)
        assert cert.passed
        assert calls == {"runs": cert.examined, "step": 2 * cert.info["valid"]}

    def test_envelope_certificates_pinned(self):
        certs = list(run_sweep(Envelope(max_codes=10_000), ["migration-laws"]))
        assert (len(certs), sum(c.examined for c in certs), _digest(certs)) == (
            79, 36_685, "883ce61cb904ffea11eb7099cd84196434220b65a1c2adf1ee21332595d6f8c2")


class TestCountIdentity:
    def test_odd_cells(self):
        for n, k in [(3, 3), (3, 7), (5, 5), (7, 2)]:
            cert = check_count_identity(n, k)
            assert cert.passed
            assert cert.info["formula"] == cert.info["enumerated"] == cert.info["zero_class"]

    def test_even_cell_is_informational(self):
        cert = check_count_identity(4, 2)
        assert cert.passed
        assert "zero_class_matches" in cert.info

    def test_even_cell_comparison_is_consistent(self):
        # even lengths are judged like odd ones; the recorded key repeats the judged comparison
        cert = check_count_identity(4, 4)
        assert cert.passed
        assert cert.info["zero_class_matches"] == (cert.info["zero_class"] == cert.info["formula"])

    def test_failures_name_both_counts(self, monkeypatch):
        real = certify.count_necklaces
        monkeypatch.setattr(certify, "count_necklaces", lambda n, k: real(n, k) + 1)
        cert = check_count_identity(3, 3)
        assert cert.failure_count == 2
        assert list(cert.counterexamples) == [
            "formula 5 != enumerated 4",
            "|zero residue class| 4 != necklace count 5",
        ]

    def test_even_cell_failures_are_judged(self, monkeypatch):
        real = certify.count_necklaces
        monkeypatch.setattr(certify, "count_necklaces", lambda n, k: real(n, k) + 1)
        cert = check_count_identity(4, 2)
        assert cert.failure_count == 2
        assert list(cert.counterexamples) == [
            "formula 4 != enumerated 3",
            "|zero residue class| 3 != necklace count 4",
        ]

    def test_envelope_certificates_pinned(self):
        # the default sweep's cells, 36 of them at even n
        certs = list(run_sweep(Envelope(), ["count-identity"]))
        assert (len(certs), sum(c.examined for c in certs), _digest(certs)) == (
            81, 99_891, "bfa1d829e57c74e8d76134101752d4ced40038f8b7aa32badcac889e22b25935")


class TestRiwiChecks:
    def test_slime_cells(self):
        for n, k in [(3, 3), (3, 7), (5, 5), (7, 3), (11, 2)]:
            [cert] = run_cell(n, k, "riwi-slime")
            assert cert.passed and cert.check == "riwi-slime" and cert.info == {"riwi": "slime"}

    def test_slime_composite_rejected(self):
        with pytest.raises(ValueError):
            run_cell(9, 2, "riwi-slime")
        with pytest.raises(ValueError):
            run_cell(2, 3, "riwi-slime")

    def test_rotation_cells(self):
        for n, k in [(3, 7), (4, 3), (6, 5), (8, 3)]:
            [cert] = run_cell(n, k, "riwi-rotation")
            assert cert.passed and cert.check == "riwi-rotation" and cert.info == {"riwi": "rotation"}

    def test_rotation_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            run_cell(6, 4, "riwi-rotation")

    def test_cells_come_from_the_constructions_table(self):
        assert CHECKS["riwi-slime"][1] is CONSTRUCTIONS["slime"][0]
        assert CHECKS["riwi-rotation"][1] is CONSTRUCTIONS["rotation"][0]

    def test_constructions_in_order(self):
        # the first row that applies serves a cell, so the order decides (2, 0), (3, 0) and (1, k)
        assert list(CONSTRUCTIONS) == ["n2-parity", "slime", "rotation", "none"]


class TestPrimeBijectionCheck:
    def test_worked_cells(self):
        assert check_prime_bijection(3, 3).info["pairs"] == 4
        assert check_prime_bijection(2, 6).info["pairs"] == 4
        assert check_prime_bijection(5, 10).info["pairs"] == 201

    def test_coprime_table_never_applies_chi(self):
        # gcd(n, k) = 1: every neck-class has one member, so any riwi map gives the same table
        def refuse(code):
            raise AssertionError(f"chi applied to {code}")

        refusing = RiwiMap(descriptor="refusing", apply=refuse, invert=refuse)
        assert build_sigma(3, 7, refusing).pairs == build_sigma(3, 7, riwi_rotation(3, 7)).pairs
        assert check_prime_bijection(3, 7).passed

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            check_prime_bijection(6, 2)

    def test_counterexamples_per_chooser(self, monkeypatch):
        real = certify.prime_bijection

        def broken(n, k, chooser="lexmin"):
            table = real(n, k, chooser)
            pairs = table.pairs
            if chooser == "lexmin":  # drop the first pair
                return replace(table, pairs=pairs[1:])
            # send the first code to the second code's necklace
            return replace(table, pairs=((pairs[0][0], pairs[1][1]),) + pairs[1:])

        monkeypatch.setattr(certify, "prime_bijection", broken)
        cert = check_prime_bijection(3, 3)
        assert (cert.verdict, cert.failure_count, cert.examined) == ("fail", 5, 4)
        assert list(cert.counterexamples) == [
            "lexmin: domain mismatch: unexpected [], missing ['0,0,3']",
            "lexmin: not surjective: unreached necklaces ['<0,0,3>']",
            "lexmin: table has 3 pairs, necklace count is 4",
            "lexmax: not injective: repeated necklaces ['<0,1,2>']",
            "lexmax: not surjective: unreached necklaces ['<0,2,1>']",
        ]
        assert cert.info == {"pairs": 3, "choosers_agree": False}


class TestCertificateShape:
    def test_json_line(self):
        cert = check_invalid_iff_constant(3, 3)
        d = json.loads(json.dumps(cert.to_json_dict()))
        assert list(d) == ["check", "n", "k", "verdict", "counterexamples",
                           "failure_count", "examined", "elapsed_s", "info"]
        assert d["verdict"] == "pass" and d["counterexamples"] == []

    def test_fail_carries_counterexample(self):
        cert = Certificate(
            check="demo", n=3, k=3,
            counterexamples=("1,1,1: broke",), failure_count=1,
            examined=10, elapsed_s=0.0,
        )
        assert not cert.passed and cert.verdict == "fail"
        assert cert.counterexamples
        d = cert.to_json_dict()
        assert list(d) == ["check", "n", "k", "verdict", "counterexamples",
                           "failure_count", "examined", "elapsed_s", "info"]
        assert d["verdict"] == "fail"

    def test_summarize(self):
        text = summarize([check_invalid_iff_constant(3, 3)])
        lines = text.splitlines()
        assert lines[0].split() == ["check", "n", "k", "verdict", "examined", "failures", "seconds"]
        assert "1 checks, 0 failed" in lines[-1]


    def test_certificates_pinned(self):
        certs = list(run_sweep(Envelope(n_max=4, k_max=4, prime_extra=(5,))))
        assert (len(certs), _digest(certs)) == (
            106, "89be0ec4c952cb8a5c2ae1be38b936342234bac9013c64fa1eed29b335b419a0")

    def test_walked_checks_sum_no_code(self, monkeypatch):
        # the walk carries each code's weighted sum, so no check that walks a cell sums one
        # (riwi-rotation is left out: building the rotation map sums its self-check's sample)
        calls = []
        for module in (codes, bijection):
            def counted(entries, _real=module.weighted_sum):
                calls.append(entries)
                return _real(entries)
            monkeypatch.setattr(module, "weighted_sum", counted)
        checks = ["invalid-constant", "migration-laws", "count-identity", "riwi-slime"]
        certs = list(run_sweep(Envelope(n_max=5, k_max=5, prime_extra=(7,)), checks))
        assert len(certs) == 114 and all(c.passed for c in certs)
        assert calls == []

    def test_envelope_certificates_pinned(self):
        # the checks with no pin of their own, over the cells of the migration-laws pin
        checks = ["invalid-constant", "riwi-slime", "riwi-rotation", "prime-bijection"]
        certs = list(run_sweep(Envelope(max_codes=10_000), checks))
        assert (len(certs), sum(c.examined for c in certs), _digest(certs)) == (
            170, 66_925, "eeb16c06c0f65be546343390a4fdd1896101c15e082afd15ce154be9098a3707")


class TestEnvelope:
    def test_default_cells(self):
        cells = list(Envelope().cells())
        assert (1, 0) in cells and (8, 8) in cells
        assert (11, 0) in cells and (11, 8) in cells
        assert (9, 3) not in cells and (13, 2) not in cells
        assert len(cells) == len(set(cells))

    def test_max_codes_guard(self):
        env = Envelope(n_max=8, k_max=8, prime_extra=(), max_codes=100)
        for n, k in env.cells():
            assert comb(n + k - 1, n - 1) <= 100

    def test_composite_extra_ignored(self):
        env = Envelope(prime_extra=(9, 11))
        assert all(n != 9 for n, _ in env.cells())

    def test_repeated_extra_swept_once(self):
        cells = list(Envelope(n_max=1, k_max=1, prime_extra=(5, 5)).cells())
        assert cells == [(1, 0), (1, 1), (5, 0), (5, 1)]

    def test_repeated_check_runs_once(self):
        envelope = Envelope(n_max=2, k_max=1, prime_extra=())
        once = [(c.check, c.n, c.k) for c in run_sweep(envelope, ["count-identity"])]
        twice = [(c.check, c.n, c.k) for c in run_sweep(envelope, ["count-identity", "count-identity"])]
        assert len(once) == 4 and twice == once


class TestRunners:
    def test_run_cell_all(self):
        certs = run_cell(3, 3)
        # gcd(3, 3) = 3 keeps the rotation check out; everything else applies
        assert {c.check for c in certs} == {
            "invalid-constant", "migration-laws", "count-identity",
            "riwi-slime", "prime-bijection",
        }
        assert all(c.passed for c in certs)

    def test_run_cell_named(self):
        certs = run_cell(3, 3, "migration-laws")
        assert len(certs) == 1 and certs[0].check == "migration-laws"

    def test_run_cell_unknown(self):
        with pytest.raises(KeyError):
            run_cell(3, 3, "nope")

    def test_run_cell_applicability(self):
        checks = {c.check for c in run_cell(4, 3)}
        assert "invalid-constant" not in checks
        assert "riwi-rotation" in checks
        assert "prime-bijection" not in checks

    def test_small_sweep(self):
        certs = list(run_sweep(Envelope(n_max=4, k_max=4, prime_extra=())))
        assert certs and all(c.passed for c in certs)

    def test_sweep_unknown_check(self):
        with pytest.raises(KeyError):
            run_sweep(Envelope(n_max=2, k_max=2, prime_extra=()), checks=["nope"])

    def test_sweep_is_lazy(self, monkeypatch):
        calls = []
        for name, (func, applies) in list(CHECKS.items()):
            def counted(n, k, _name=name, _func=func):
                calls.append(_name)
                return _func(n, k)
            monkeypatch.setitem(CHECKS, name, (counted, applies))
        certs = run_sweep(Envelope(n_max=3, k_max=3, prime_extra=()))
        assert calls == []
        first = next(certs)
        assert calls == [first.check]

    def test_registry_complete(self):
        assert set(CHECKS) == {
            "invalid-constant", "migration-laws", "count-identity",
            "riwi-slime", "riwi-rotation", "prime-bijection",
        }
