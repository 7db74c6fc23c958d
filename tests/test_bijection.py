from __future__ import annotations

import hashlib
import json
from collections import Counter
from math import gcd

import pytest

from neckslime import (
    BijectionTable,
    Code,
    RiwiMap,
    build_sigma,
    canonicalize,
    count_necklaces,
    enumerate_codes,
    enumerate_necklaces,
    load_riwi_map,
    prime_bijection,
    riwi_from_pairs,
    riwi_rotation,
    riwi_slime,
    unit_migration,
    verify_riwi,
)
from neckslime import bijection
from neckslime.bijection import DETAIL_CAP, sigma_table
from neckslime.certify import CHECKS, check_riwi
from neckslime.codes import weighted_sum


class TestRiwiRotation:
    def test_coprime_required(self):
        with pytest.raises(ValueError):
            riwi_rotation(3, 3)
        with pytest.raises(ValueError):
            riwi_rotation(6, 4)

    def test_length_zero_refused(self):
        with pytest.raises(ValueError) as info:
            riwi_rotation(0, 1)
        assert str(info.value) == "riwi_rotation: need n >= 1, got 0"

    def test_shift_on_sample_code(self):
        chi = riwi_rotation(3, 7)
        g = chi.apply((2, 1, 4))
        assert weighted_sum(g) == 1
        assert chi.invert(g) == (2, 1, 4)

    def test_round_trip_everywhere(self):
        chi = riwi_rotation(3, 7)
        for f in enumerate_codes(3, 7):
            assert chi.invert(chi.apply(f.entries)) == f.entries

    def test_descriptor(self):
        assert riwi_rotation(4, 3).descriptor == "rotation"


class TestRiwiSlime:
    def test_odd_prime_required(self):
        with pytest.raises(ValueError):
            riwi_slime(2, 3)
        with pytest.raises(ValueError):
            riwi_slime(9, 4)

    def test_golden_chain(self):
        chi = riwi_slime(3, 3)
        assert chi.apply((3, 0, 0)) == (2, 1, 0)
        assert chi.apply(chi.apply((3, 0, 0))) == (1, 2, 0)

    def test_rotation_equivariance_sample(self):
        chi = riwi_slime(3, 3)
        assert chi.apply(Code((3, 0, 0)).rotate(1).entries) == Code((2, 1, 0)).rotate(1).entries
        assert chi.apply((0, 0, 3)) == (1, 0, 2)


class TestVerifyRiwi:
    def test_slime_3_3(self):
        report = verify_riwi(riwi_slime(3, 3), 3, 3)
        assert report.passed
        assert report.checked == 9  # all full-period codes, every residue
        assert report.failure_count == 0

    def test_rotation_3_7(self):
        report = verify_riwi(riwi_rotation(3, 7), 3, 7)
        assert report.passed and report.checked == 36

    def test_identity_fails_on_shift(self):
        domain = list(enumerate_codes(3, 3, full_period_only=True))
        report = verify_riwi(riwi_from_pairs([(f.entries, f.entries) for f in domain], "identity"), 3, 3)
        assert not report.passed
        assert report.failure_count == 9
        assert all("weighted sum" in msg for msg in report.failures)

    def test_partial_map_fails(self):
        domain = list(enumerate_codes(3, 3, full_period_only=True))
        chi_good = riwi_slime(3, 3)
        pairs = [(f.entries, chi_good.apply(f.entries)) for f in domain[:4]]
        report = verify_riwi(riwi_from_pairs(pairs, "partial"), 3, 3)
        assert not report.passed

    def test_empty_domain_passes(self):
        # no full-period codes sum to 0 unless n = 1
        report = verify_riwi(riwi_slime(5, 3), 5, 0)
        assert report.passed and report.checked == 0

    @staticmethod
    def counted_sums(monkeypatch) -> list:
        """The entry tuples ``bijection.weighted_sum`` is called on, from now on."""
        calls = []

        def counted(entries, _real=bijection.weighted_sum):
            calls.append(entries)
            return _real(entries)

        monkeypatch.setattr(bijection, "weighted_sum", counted)
        return calls

    def test_walk_carries_every_weighted_sum(self, monkeypatch):
        calls = self.counted_sums(monkeypatch)
        report = verify_riwi(riwi_slime(11, 6), 11, 6)
        assert (report.passed, report.checked, calls) == (True, 8_008, [])

    def test_one_weighted_sum_per_foreign_image(self, monkeypatch):
        images = _slime_3_3()
        images[(0, 1, 2)] = (1, 1, 1)  # a code of the cell, but not of full period
        images[(2, 1, 0)] = (4, 0, 0)  # a code of another cell
        chi = riwi_from_pairs(images.items(), "foreign")
        calls = self.counted_sums(monkeypatch)
        assert not verify_riwi(chi, 3, 3).passed
        assert calls == [(1, 1, 1), (4, 0, 0)]

    def test_report_json_shape(self):
        d = check_riwi("riwi-slime", riwi_slime(3, 3), 3, 3).to_json_dict()
        assert list(d) == ["check", "n", "k", "verdict", "counterexamples",
                           "failure_count", "examined", "elapsed_s", "info"]
        assert d["info"] == {"riwi": "slime"}
        json.dumps(d)



def _file_map(tmp_path, name, pairs):
    """A custom riwi map loaded from a map file listing ``pairs`` of entry tuples."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps([{"from": list(a), "to": list(b)} for a, b in pairs]))
    return load_riwi_map(path)


def _slime_3_3():
    """The unit step on each full-period (3, 3)-code, as entry tuples in domain order."""
    return {f.entries: unit_migration(f).entries for f in enumerate_codes(3, 3, full_period_only=True)}


class TestVerifyRiwiMessages:
    """Every counterexample kind, pinned verbatim on small crafted maps."""

    @staticmethod
    def outcome(chi, n=3, k=3):
        report = verify_riwi(chi, n, k)
        return report.checked, report.failure_count, list(report.failures)

    def test_apply_failed(self, tmp_path):
        pairs = list(_slime_3_3().items())[:4]
        assert self.outcome(_file_map(tmp_path, "partial", pairs)) == (9, 6, [
            "apply failed on 1,0,2: custom map does not cover 1,0,2",
            "apply failed on 1,2,0: custom map does not cover 1,2,0",
            "apply failed on 2,0,1: custom map does not cover 2,0,1",
            "apply failed on 2,1,0: custom map does not cover 2,1,0",
            "apply failed on 3,0,0: custom map does not cover 3,0,0",
            "image does not cover the full-period codes: missing ['0,3,0', '1,2,0', '2,0,1'], foreign []",
        ])

    def test_weighted_sum_not_raised(self, tmp_path):
        chi = _file_map(tmp_path, "identity", [(e, e) for e in _slime_3_3()])
        assert self.outcome(chi) == (9, 9, [
            "weighted sum not raised by 1: 0,0,3 (ws 0) -> 0,0,3 (ws 0)",
            "weighted sum not raised by 1: 0,1,2 (ws 2) -> 0,1,2 (ws 2)",
            "weighted sum not raised by 1: 0,2,1 (ws 1) -> 0,2,1 (ws 1)",
            "weighted sum not raised by 1: 0,3,0 (ws 0) -> 0,3,0 (ws 0)",
            "weighted sum not raised by 1: 1,0,2 (ws 1) -> 1,0,2 (ws 1)",
            "weighted sum not raised by 1: 1,2,0 (ws 2) -> 1,2,0 (ws 2)",
            "weighted sum not raised by 1: 2,0,1 (ws 2) -> 2,0,1 (ws 2)",
            "weighted sum not raised by 1: 2,1,0 (ws 1) -> 2,1,0 (ws 1)",
            "weighted sum not raised by 1: 3,0,0 (ws 0) -> 3,0,0 (ws 0)",
        ])

    def test_invert_failed(self, tmp_path):
        def refuse(image):
            raise ValueError("no inverse")

        forward = _file_map(tmp_path, "slime", _slime_3_3().items())
        chi = RiwiMap(descriptor="custom:one-way", apply=forward.apply, invert=refuse)
        assert self.outcome(chi) == (9, 9, [
            f"invert failed on {g}: no inverse"
            for g in ("1,0,2", "0,0,3", "0,1,2", "0,2,1", "2,0,1", "0,3,0", "3,0,0", "1,2,0", "2,1,0")
        ])

    def test_round_trip_broken(self, tmp_path):
        images = _slime_3_3()
        images[(0, 1, 2)] = images[(0, 0, 3)]
        assert self.outcome(_file_map(tmp_path, "collide", images.items())) == (9, 5, [
            "weighted sum not raised by 1: 0,1,2 (ws 2) -> 1,0,2 (ws 1)",
            "round trip broken: 0,1,2 -> 1,0,2 -> 0,0,3",
            "not rotation invariant at 0,1,2: rotation maps to 0,3,0, expected 0,2,1",
            "not rotation invariant at 2,0,1: rotation maps to 1,0,2, expected 0,0,3",
            "image does not cover the full-period codes: missing ['0,0,3'], foreign []",
        ])

    def test_not_rotation_invariant(self, tmp_path):
        images = _slime_3_3()
        images[(0, 1, 2)], images[(1, 2, 0)] = images[(1, 2, 0)], images[(0, 1, 2)]
        assert self.outcome(_file_map(tmp_path, "swap", images.items())) == (9, 3, [
            "not rotation invariant at 0,1,2: rotation maps to 0,0,3, expected 3,0,0",
            "not rotation invariant at 1,2,0: rotation maps to 3,0,0, expected 0,3,0",
            "not rotation invariant at 2,0,1: rotation maps to 0,3,0, expected 0,0,3",
        ])

    def test_image_does_not_cover(self, tmp_path):
        images = _slime_3_3()
        images[(0, 1, 2)] = (1, 1, 1)
        assert self.outcome(_file_map(tmp_path, "foreign", images.items())) == (9, 3, [
            "not rotation invariant at 0,1,2: rotation maps to 0,3,0, expected 1,1,1",
            "not rotation invariant at 2,0,1: rotation maps to 1,1,1, expected 0,0,3",
            "image does not cover the full-period codes: missing ['0,0,3'], foreign ['1,1,1']",
        ])

    def test_apply_returns_no_entry_tuple(self):
        # a map in the old Code convention, and one returning the empty tuple
        old = RiwiMap(descriptor="custom:old", apply=Code, invert=lambda c: c.entries)
        empty = RiwiMap(descriptor="custom:empty", apply=lambda e: (), invert=lambda e: e)
        domain = ("0,0,3", "0,1,2", "0,2,1", "0,3,0", "1,0,2", "1,2,0", "2,0,1", "2,1,0", "3,0,0")
        uncovered = "image does not cover the full-period codes: missing ['0,0,3', '0,1,2', '0,2,1'], foreign []"
        assert self.outcome(old) == (9, 10, [
            f"apply returned Code(entries=({f.replace(',', ', ')})) on {f}, not an entry tuple of length 3"
            for f in domain
        ] + [uncovered])
        assert self.outcome(empty) == (9, 10, [
            f"apply returned () on {f}, not an entry tuple of length 3" for f in domain
        ] + [uncovered])

    def test_invert_returns_no_entry_tuple(self, tmp_path):
        forward = _file_map(tmp_path, "slime", _slime_3_3().items())
        chi = RiwiMap(descriptor="custom:old-inverse", apply=forward.apply, invert=lambda e: [*e])
        assert self.outcome(chi) == (9, 9, [
            f"invert returned [{g.replace(',', ', ')}] on {g}, not an entry tuple of length 3"
            for g in ("1,0,2", "0,0,3", "0,1,2", "0,2,1", "2,0,1", "0,3,0", "3,0,0", "1,2,0", "2,1,0")
        ])

    def test_apply_raising_attribute_error(self):
        # a map in the old Code convention calls a Code method on its tuple argument
        old = RiwiMap(descriptor="custom:old", apply=lambda c: c.rotate(1), invert=lambda c: c.rotate(-1))
        domain = ("0,0,3", "0,1,2", "0,2,1", "0,3,0", "1,0,2", "1,2,0", "2,0,1", "2,1,0", "3,0,0")
        assert self.outcome(old) == (9, 10, [
            f"apply failed on {f}: 'tuple' object has no attribute 'rotate'" for f in domain
        ] + ["image does not cover the full-period codes: missing ['0,0,3', '0,1,2', '0,2,1'], foreign []"])

    def test_invert_raising_zero_division(self, tmp_path):
        forward = _file_map(tmp_path, "slime", _slime_3_3().items())
        chi = RiwiMap(descriptor="custom:divide", apply=forward.apply, invert=lambda e: (e[0] // 0,))
        assert self.outcome(chi) == (9, 9, [
            f"invert failed on {g}: integer division or modulo by zero"
            for g in ("1,0,2", "0,0,3", "0,1,2", "0,2,1", "2,0,1", "0,3,0", "3,0,0", "1,2,0", "2,1,0")
        ])

    def test_details_capped_count_exact(self, tmp_path):
        domain = [f.entries for f in enumerate_codes(4, 3, full_period_only=True)]
        checked, failure_count, failures = self.outcome(
            _file_map(tmp_path, "identity43", [(e, e) for e in domain]), 4, 3)
        assert (checked, failure_count, len(failures)) == (20, 20, DETAIL_CAP)
        assert failures == [
            "weighted sum not raised by 1: 0,0,0,3 (ws 1) -> 0,0,0,3 (ws 1)",
            "weighted sum not raised by 1: 0,0,1,2 (ws 0) -> 0,0,1,2 (ws 0)",
            "weighted sum not raised by 1: 0,0,2,1 (ws 3) -> 0,0,2,1 (ws 3)",
            "weighted sum not raised by 1: 0,0,3,0 (ws 2) -> 0,0,3,0 (ws 2)",
            "weighted sum not raised by 1: 0,1,0,2 (ws 3) -> 0,1,0,2 (ws 3)",
            "weighted sum not raised by 1: 0,1,1,1 (ws 2) -> 0,1,1,1 (ws 2)",
            "weighted sum not raised by 1: 0,1,2,0 (ws 1) -> 0,1,2,0 (ws 1)",
            "weighted sum not raised by 1: 0,2,0,1 (ws 1) -> 0,2,0,1 (ws 1)",
            "weighted sum not raised by 1: 0,2,1,0 (ws 0) -> 0,2,1,0 (ws 0)",
            "weighted sum not raised by 1: 0,3,0,0 (ws 3) -> 0,3,0,0 (ws 3)",
        ]

IDENTITY = RiwiMap(descriptor="custom:identity", apply=lambda e: e, invert=lambda e: e)
# not rotation invariant, so each class's pairs depend on the representative chosen
MIRROR = RiwiMap(descriptor="custom:mirror", apply=lambda e: e[::-1], invert=lambda e: e[::-1])


def _brute_sigma(n, k, chi, chooser):
    """The sigma pairs from the zero-residue codes themselves: group each code's
    stride-q rotations, pick the representative, walk chi from it."""
    pick = min if chooser == "lexmin" else max
    size = gcd(n, k)
    q = n // size
    pairs = {}
    for f in enumerate_codes(n, k, t=0, full_period_only=True):
        rep = pick((f.rotate(i * q) for i in range(size)), key=lambda c: c.entries)
        image = rep.entries
        for i in range(size):
            pairs[rep.rotate(i * q)] = canonicalize(Code(image))
            image = chi.apply(image)
    return sorted(pairs.items(), key=lambda p: p[0].entries)


class TestBuildSigma:
    def test_worked_class(self):
        table = build_sigma(3, 3, riwi_slime(3, 3))
        got = {c: m.canonical for c, m in table.pairs}
        assert got == {
            Code((0, 0, 3)): (0, 0, 3),
            Code((0, 3, 0)): (0, 2, 1),
            Code((1, 1, 1)): (1, 1, 1),
            Code((3, 0, 0)): (0, 1, 2),
        }

    def test_coprime_case_is_canonicalize(self):
        table = build_sigma(3, 7, riwi_rotation(3, 7))
        assert all(m == canonicalize(c) for c, m in table.pairs)
        assert len(table.pairs) == 12

    def test_covers_full_period_zero_class(self):
        # every zero-residue code: the full-period ones and, where n | k, the constant one
        for n, k in [(3, 3), (5, 10), (4, 3), (6, 5)]:
            chi = riwi_slime(n, k) if n % 2 and gcd(n, k) > 1 else riwi_rotation(n, k)
            table = build_sigma(n, k, chi)
            expected = list(enumerate_codes(n, k, t=0))
            assert [c for c, _ in table.pairs] == expected

    def test_bijective_onto_full_period_necklaces(self):
        # 200 full-period necklaces and the constant one
        table = build_sigma(5, 10, riwi_slime(5, 10))
        necks = [m for _, m in table.pairs]
        assert len(set(necks)) == len(necks) == 201
        assert set(necks) == set(enumerate_necklaces(5, 10))

    @pytest.mark.parametrize("n,k", [(6, 4), (8, 6), (6, 9)])
    @pytest.mark.parametrize("chooser", ["lexmin", "lexmax"])
    @pytest.mark.parametrize("chi", [IDENTITY, MIRROR], ids=lambda chi: chi.descriptor)
    def test_composite_neck_classes_match_brute_force(self, n, k, chooser, chi):
        # g > 1 and k / g != 1 here, so a wrong start rotation for the classes shows
        assert gcd(n, k) > 1 and k // gcd(n, k) != 1
        assert list(build_sigma(n, k, chi, chooser).pairs) == _brute_sigma(n, k, chi, chooser)

    def test_unknown_chooser(self):
        with pytest.raises(ValueError):
            build_sigma(3, 3, riwi_slime(3, 3), chooser="median")
        with pytest.raises(ValueError, match="unknown representative chooser 'median'"):
            sigma_table(2, 4, chooser="median")  # the n = 2 parity table records but ignores it

    @pytest.mark.parametrize("n,k", [(0, 0), (0, 3), (-2, 3), (3, -3), (4, -1)])
    def test_cell_out_of_range(self, n, k):
        with pytest.raises(ValueError, match=r"build_sigma: need n >= 1 and k >= 0"):
            build_sigma(n, k, IDENTITY)

    @pytest.mark.parametrize("n,k", [(0, 3), (0, 1), (-1, 0), (0, 0), (3, -1), (4, -1), (2, -2)])
    def test_sigma_table_cell_out_of_range(self, n, k):
        with pytest.raises(ValueError) as info:
            sigma_table(n, k)
        assert str(info.value) == f"sigma_table: need n >= 1 and k >= 0, got ({n}, {k})"

    def test_metadata(self):
        table = build_sigma(3, 3, riwi_slime(3, 3), chooser="lexmax")
        assert table.riwi == "slime" and table.chooser == "lexmax"


class TestSigmaTableRule:
    def test_construction_of_every_cell_pinned(self, monkeypatch):
        # which construction sigma_table picks, the chooser it hands build_sigma, or its refusal, at every
        # 1 <= n <= 60, 0 <= k <= 60, and which CHECKS apply there; tables are not built (build_sigma is
        # stubbed), so this pins the rule at cells far beyond the emitted-table digests
        lines = []
        # an unknown chooser: which refusal wins, with the real build_sigma
        for n, k in [(6, 2), (3, 3), (2, 4), (4, 0)]:
            with pytest.raises(ValueError) as info:
                sigma_table(n, k, chooser="median")
            lines.append(f"{n} {k} median ! {info.value}")
        built = []

        def stub(n, k, chi, chooser="lexmin"):
            built.append((n, k, chi.descriptor, chooser))
            return BijectionTable(n=n, k=k, riwi=chi.descriptor, chooser=chooser, pairs=())

        monkeypatch.setattr(bijection, "build_sigma", stub)
        outcomes = Counter()
        for n in range(1, 61):
            for k in range(61):
                lines.append(f"{n} {k} checks {[name for name, (_, applies) in CHECKS.items() if applies(n, k)]}")
                for chooser in ("lexmin", "lexmax"):
                    del built[:]
                    try:
                        table = sigma_table(n, k, chooser)
                    except ValueError as exc:
                        outcomes["refused"] += 1
                        lines.append(f"{n} {k} {chooser} ! {exc}")
                        continue
                    outcomes[table.riwi] += 1
                    lines.append(f"{n} {k} {chooser} -> {table.riwi} {table.chooser} {built}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert dict(outcomes) == {"rotation": 2620, "slime": 1952, "refused": 2602, "none": 84,
                                  "custom:n2-parity": 62}
        assert digest == "5267ca6694981a556c569656250bb76f2677a85df10e97a48f57cc606db5460f"

    def test_every_built_table_is_a_bijection(self):
        # composite n, n = 2 and k = 0 included: the prime-bijection certificate reaches prime n only
        built = set()
        for n in range(1, 17):
            for k in range(17 - n):
                try:
                    tables = [sigma_table(n, k, chooser) for chooser in ("lexmin", "lexmax")]
                except ValueError:
                    continue
                built.add((n, k))
                codes = list(enumerate_codes(n, k, t=0))
                necks = [m.canonical for m in enumerate_necklaces(n, k)]
                for table in tables:
                    assert [c for c, _ in table.pairs] == codes, (n, k, table.chooser)
                    assert sorted(m.canonical for _, m in table.pairs) == necks, (n, k, table.chooser)
        assert {(4, 3), (9, 4), (2, 6), (4, 0)} <= built and len(built) == 109


class TestPrimeBijection:
    def test_worked_3_3(self):
        table = prime_bijection(3, 3)
        assert [(c.entries, m.canonical) for c, m in table.pairs] == [
            ((0, 0, 3), (0, 0, 3)),
            ((0, 3, 0), (0, 2, 1)),
            ((1, 1, 1), (1, 1, 1)),
            ((3, 0, 0), (0, 1, 2)),
        ]

    def test_worked_2_4(self):
        table = prime_bijection(2, 4)
        assert {(c.entries, m.canonical) for c, m in table.pairs} == {
            ((4, 0), (0, 4)),
            ((0, 4), (1, 3)),
            ((2, 2), (2, 2)),
        }

    def test_worked_2_6(self):
        table = prime_bijection(2, 6)
        assert {(c.entries, m.canonical) for c, m in table.pairs} == {
            ((6, 0), (0, 6)),
            ((4, 2), (2, 4)),
            ((2, 4), (3, 3)),
            ((0, 6), (1, 5)),
        }

    def test_n2_odd_content(self):
        table = prime_bijection(2, 3)
        assert table.riwi == "rotation"
        assert {(c.entries, m.canonical) for c, m in table.pairs} == {
            ((1, 2), (1, 2)),
            ((3, 0), (0, 3)),
        }

    def test_n2_even_descriptor(self):
        # the parity rule written out, at even k beyond test_every_small_cell's k <= 9
        def rule(x: int, y: int) -> tuple[int, int]:
            image = (x, y) if x >= y else (y - 1, x + 1)
            return min(image, image[::-1])

        for k in range(0, 61, 2):
            want = [((x, k - x), rule(x, k - x)) for x in range(0, k + 1, 2)]
            for chooser in ("lexmin", "lexmax"):
                table = prime_bijection(2, k, chooser)
                assert table.riwi == "custom:n2-parity" and table.chooser == chooser
                assert [(c.entries, m.canonical) for c, m in table.pairs] == want, (k, chooser)

    def test_composite_rejected(self):
        for n in (1, 4, 6, 9):
            with pytest.raises(ValueError):
                prime_bijection(n, 3)

    @pytest.mark.parametrize("n,k", [(2, -2), (2, -1), (3, -3), (5, -1)])
    def test_negative_content_rejected(self, n, k):
        with pytest.raises(ValueError):
            prime_bijection(n, k)

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 7), (3, 0), (3, 6), (3, 7), (5, 5), (5, 10), (7, 4)])
    def test_bijective(self, n, k):
        table = prime_bijection(n, k)
        codes = [c for c, _ in table.pairs]
        necks = [m for _, m in table.pairs]
        assert codes == list(enumerate_codes(n, k, t=0))
        assert len(set(necks)) == len(necks)
        assert set(necks) == set(enumerate_necklaces(n, k))
        assert len(table.pairs) == count_necklaces(n, k)

    def test_pinned_5_10_size(self):
        assert len(prime_bijection(5, 10).pairs) == 201

    def test_constant_pairs_with_constant(self):
        table = prime_bijection(5, 10)
        got = dict(table.pairs)
        assert got[Code((2, 2, 2, 2, 2))].canonical == (2, 2, 2, 2, 2)

    def test_lexmax_chooser_still_bijective(self):
        for n, k in [(3, 3), (5, 10), (2, 6)]:
            table = prime_bijection(n, k, chooser="lexmax")
            necks = [m for _, m in table.pairs]
            assert len(set(necks)) == len(necks)
            assert set(necks) == set(enumerate_necklaces(n, k))


class TestCustomMaps:
    def test_duplicate_source_rejected(self):
        f = (3, 0, 0)
        with pytest.raises(ValueError):
            riwi_from_pairs([(f, f), (f, (2, 1, 0))])

    def test_uncovered_apply_raises(self):
        chi = riwi_from_pairs([((3, 0, 0), (2, 1, 0))])
        with pytest.raises(ValueError):
            chi.apply((0, 3, 0))
        with pytest.raises(ValueError):
            chi.invert((3, 0, 0))

    def test_load_round_trip(self, tmp_path):
        chi = riwi_rotation(4, 3)
        rows = [
            {"from": list(f.entries), "to": list(chi.apply(f.entries))}
            for f in enumerate_codes(4, 3, full_period_only=True)
        ]
        path = tmp_path / "rot43.json"
        path.write_text(json.dumps(rows))
        loaded = load_riwi_map(path)
        assert loaded.descriptor == "custom:rot43"
        assert verify_riwi(loaded, 4, 3).passed

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"from": [1], "to": [1]}))
        with pytest.raises(ValueError):
            load_riwi_map(path)
        path.write_text(json.dumps([{"src": [1]}]))
        with pytest.raises(ValueError):
            load_riwi_map(path)

    def test_load_rejects_bools(self, tmp_path):
        path = tmp_path / "bools.json"
        path.write_text('[{"from": [true, 0, 2], "to": [1, 0, 2]}]')
        with pytest.raises(ValueError, match="bad entry"):
            load_riwi_map(path)

    def test_sigma_with_constant_matches_prime_path(self):
        direct = build_sigma(3, 3, riwi_slime(3, 3))
        assert direct.pairs == prime_bijection(3, 3).pairs

    def test_constant_pair_only_when_zero_residue(self):
        # (1,1,1,1) has weighted sum 2 mod 4, so it is no zero-residue code
        identity = riwi_from_pairs(
            (f.entries, f.entries) for f in enumerate_codes(4, 4, full_period_only=True)
        )
        codes = {c.entries for c, _ in build_sigma(4, 4, identity).pairs}
        assert (1, 1, 1, 1) not in codes
        assert Code((1, 1, 1, 1)).weighted_sum() == 2
        table = build_sigma(3, 3, riwi_slime(3, 3))
        assert (1, 1, 1) in {c.entries for c, _ in table.pairs}
        # (2,2,2,2) has weighted sum 12 = 0 mod 4: an even length with the constant pair
        table = build_sigma(4, 8, IDENTITY)
        assert Code((2, 2, 2, 2)).weighted_sum() == 0
        assert dict(table.pairs)[Code((2, 2, 2, 2))].canonical == (2, 2, 2, 2)


class TestTableSerialization:
    def test_json_schema(self):
        d = prime_bijection(3, 3).to_json_dict()
        assert list(d) == ["n", "k", "riwi", "chooser", "pairs"]
        assert d["riwi"] == "slime" and d["chooser"] == "lexmin"
        assert d["pairs"][0] == {"code": [0, 0, 3], "necklace": [0, 0, 3], "word": "BBBWWW"}
        json.dumps(d)

    def test_csv_rows(self):
        rows = prime_bijection(3, 3).to_csv_rows()
        assert rows[0] == ["code", "necklace", "word"]
        assert rows[1] == ["0,0,3", "0,0,3", "BBBWWW"]
        assert len(rows) == 5
