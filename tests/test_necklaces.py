from __future__ import annotations

import hashlib
import sys
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from neckslime import (
    Code,
    Necklace,
    canonicalize,
    code_to_word,
    count_necklaces,
    enumerate_codes,
    enumerate_necklaces,
    euler_phi,
    word_to_code,
)
from neckslime.necklaces import _bead_word

from oracles import bead_classes, bead_word, filter_necklaces, min_rotation, necklace_count, string_period, tuple_period

codes = st.lists(st.integers(0, 6), min_size=1, max_size=7).map(lambda e: Code(tuple(e)))


def test_euler_phi():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    for m in range(1, 400):
        assert euler_phi(m) == sum(gcd(m, j) == 1 for j in range(1, m + 1)), m
    with pytest.raises(ValueError):
        euler_phi(0)


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(Code((0, 3, 0))).canonical == (0, 0, 3)
        assert canonicalize(Code((1, 0, 2))).canonical == (0, 2, 1)

    @given(codes, st.integers(-10, 10))
    def test_orbit_invariant(self, f, s):
        assert canonicalize(f.rotate(s)) == canonicalize(f)

    @given(codes)
    def test_canonical_is_minimal_rotation(self, f):
        assert canonicalize(f).canonical == min_rotation(f.entries)

    @given(codes)
    def test_idempotent(self, f):
        neck = canonicalize(f)
        assert canonicalize(Code(neck.canonical)) == neck

    def test_str(self):
        assert str(canonicalize(Code((3, 0, 0)))) == "0,0,3"

    @pytest.mark.parametrize("j", [1, 2, 3, 8, 50, 128])
    def test_many_candidate_starts(self, j):
        for e in [(0, 1) * j + (0,), (1, 0, 0, 1, 0) * j + (1, 0)]:
            for s in range(0, len(e), 1 + len(e) // 32):
                f = Code(e[s:] + e[:s])
                assert canonicalize(f).canonical == min_rotation(e), (j, s)

    @pytest.mark.parametrize("e", [(0, 0, 1) * 5, (0, 1) * 6, (2, 0, 0, 1, 0, 0) * 3, (1, 0, 1, 1, 0) * 4])
    def test_periodic_ties(self, e):
        for s in range(len(e)):
            assert canonicalize(Code(e[s:] + e[:s])).canonical == min_rotation(e)

    @pytest.mark.parametrize("e", [(0,), (5,), (0, 0), (3, 3, 3), (7,) * 12])
    def test_constant_and_single(self, e):
        assert canonicalize(Code(e)).canonical == e

    def test_least_run_wraps(self):
        assert canonicalize(Code((0, 2, 0, 1, 0))).canonical == (0, 0, 2, 0, 1)
        assert canonicalize(Code((0, 3, 1, 0, 0))).canonical == (0, 0, 0, 3, 1)

    def test_large_entries(self):
        for e in [(256, 300, 256, 1000, 256, 300), (4096, 257, 257, 70000, 257), (10**20, 10**20 + 1, 10**20)]:
            assert canonicalize(Code(e)).canonical == min_rotation(e)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=300),
           st.lists(st.integers(0, 300), min_size=1, max_size=300))
    def test_long_codes(self, small, wide):
        for e in (tuple(small), tuple(wide)):
            assert canonicalize(Code(e)).canonical == min_rotation(e)


class TestWords:
    def test_examples(self):
        assert code_to_word(Code((4, 2, 1))) == "BWWWWBWWBW"
        assert code_to_word(Code((0, 0, 3))) == "BBBWWW"

    def test_unword_examples(self):
        assert word_to_code("BBBWWW") == Code((0, 0, 3))
        assert word_to_code("BWBWBW") == Code((1, 1, 1))
        assert word_to_code("WWB") == Code((2,))

    @given(st.lists(st.one_of(st.integers(0, 12), st.sampled_from([10, 99])), min_size=1, max_size=9))
    @example([0])
    @example([7])
    @example([10, 0, 99])
    def test_bead_word_matches_oracle(self, entries):
        e = tuple(entries)
        expected = bead_word(e)
        assert _bead_word(e) == code_to_word(Code(e)) == Necklace(e).word == expected
        assert word_to_code(expected).entries == e

    def test_bad_words(self):
        with pytest.raises(ValueError):
            word_to_code("WWW")
        with pytest.raises(ValueError):
            word_to_code("BXW")
        with pytest.raises(ValueError):
            word_to_code("")

    @given(codes)
    def test_round_trip_up_to_rotation(self, f):
        back = word_to_code(code_to_word(f))
        assert back.n == f.n and back.k == f.k
        assert canonicalize(back) == canonicalize(f)

    @given(codes)
    def test_word_shape(self, f):
        w = code_to_word(f)
        assert len(w) == f.n + f.k
        assert w.count("B") == f.n

    @given(codes)
    def test_word_period_tracks_code_period(self, f):
        d = f.period()
        assert string_period(code_to_word(f)) == d * (f.n + f.k) // f.n

    @given(codes)
    def test_min_rotation_word_is_word_of_canonical(self, f):
        assert min_rotation(code_to_word(f)) == canonicalize(f).word


class TestCount:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(3, 3, 4), (3, 7, 12), (2, 4, 3), (5, 5, 26), (5, 10, 201), (1, 5, 1), (4, 2, 3), (2, 6, 4)],
    )
    def test_known_values(self, n, k, expected):
        assert count_necklaces(n, k) == expected

    def test_k_zero(self):
        for n in range(1, 7):
            assert count_necklaces(n, 0) == 1

    def test_matches_bead_oracle(self):
        for n in range(1, 6):
            for k in range(7):
                assert count_necklaces(n, k) == necklace_count(n, k)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            count_necklaces(0, 3)
        with pytest.raises(ValueError):
            count_necklaces(3, -1)


class TestEnumerate:
    def test_sizes(self):
        assert len(enumerate_necklaces(3, 3)) == 4
        assert len(enumerate_necklaces(2, 4)) == 3
        assert len(enumerate_necklaces(3, 7)) == 12

    def test_formula_agreement(self):
        for n in range(1, 7):
            for k in range(7):
                assert len(enumerate_necklaces(n, k)) == count_necklaces(n, k)

    def test_matches_bead_oracle(self):
        for n in range(1, 6):
            for k in range(6):
                words = {neck.word for neck in enumerate_necklaces(n, k)}
                assert words == bead_classes(n, k)

    def test_sorted_canonical(self):
        for n in range(1, 6):
            for k in range(6):
                seq = [neck.canonical for neck in enumerate_necklaces(n, k)]
                assert seq == sorted(set(seq))

    def test_full_period_filter(self):
        full = enumerate_necklaces(3, 3, full_period_only=True)
        assert [neck.canonical for neck in full] == [(0, 0, 3), (0, 1, 2), (0, 2, 1)]
        for neck in enumerate_necklaces(6, 6, full_period_only=True):
            assert Code(neck.canonical).period() == 6

    def test_zero_class_identity_odd_n(self):
        for n in (1, 3, 5, 7):
            for k in range(7):
                zero_class = sum(1 for _ in enumerate_codes(n, k, t=0))
                assert zero_class == count_necklaces(n, k)

    def test_zero_class_identity_even_n(self):
        # a theorem at every n, though the count-identity certificate judges odd n only
        for n in range(2, 13, 2):
            for k in range(19 - n):
                zero_class = sum(1 for _ in enumerate_codes(n, k, t=0))
                assert zero_class == count_necklaces(n, k), (n, k)

    @pytest.mark.parametrize("full_period_only", [False, True])
    def test_matches_filter_oracle(self, full_period_only):
        cells = [(n, k) for n in range(1, 9) for k in range(9)] + [(11, k) for k in range(9)]
        for n, k in cells:
            got = [neck.canonical for neck in enumerate_necklaces(n, k, full_period_only)]
            assert got == filter_necklaces(n, k, full_period_only), (n, k)

    @given(st.integers(9, 40), st.integers(0, 4))
    def test_beyond_envelope(self, n, k):
        necks = [neck.canonical for neck in enumerate_necklaces(n, k)]
        assert all(a < b for a, b in zip(necks, necks[1:]))
        assert all(e == min_rotation(e) for e in necks)
        assert len(necks) == count_necklaces(n, k)
        full = [neck.canonical for neck in enumerate_necklaces(n, k, full_period_only=True)]
        assert full == [e for e in necks if tuple_period(e) == n]

    def test_every_small_cell_pinned(self):
        # sha256 of the necklace list of every cell with n + k <= 20 and of two cells deeper than the
        # recursion limit, under both flags, in loop order
        cells = [(n, k) for n in range(1, 21) for k in range(21 - n)] + [(1100, 2), (1200, 1)]
        digest = hashlib.sha256()
        for n, k in cells:
            for full_period_only in (False, True):
                necks = enumerate_necklaces(n, k, full_period_only)
                digest.update(f"{n} {k} {full_period_only} {len(necks)}\n".encode())
                digest.update("".join(f"{neck}\n" for neck in necks).encode())
        assert len(cells) == 212
        assert digest.hexdigest() == "e98bbc09a8aed49a15ce9006710441e23515cd7e28b881def102e4d8cba6d076"

    @pytest.mark.parametrize("k", [1, 2])
    def test_deeper_than_recursion_limit(self, k):
        n = 1100
        assert n > sys.getrecursionlimit()
        necks = enumerate_necklaces(n, k)
        assert len(necks) == count_necklaces(n, k)
        assert all(len(neck.canonical) == n and sum(neck.canonical) == k for neck in necks)

    def test_bad_args(self):
        with pytest.raises(ValueError, match="enumerate_necklaces"):
            enumerate_necklaces(0, 3)
        with pytest.raises(ValueError, match="enumerate_necklaces"):
            enumerate_necklaces(3, -1)

    def test_json_shape(self):
        neck = canonicalize(Code((3, 0, 0)))
        assert neck.to_json_dict() == {"canonical": [0, 0, 3], "word": "BBBWWW"}


def test_necklace_period_delegates():
    assert Code(Necklace((0, 2, 0, 2)).canonical).period() == 2
    assert Code(Necklace((0, 0, 3)).canonical).period() == 3
