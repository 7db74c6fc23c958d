from __future__ import annotations

import json
import time
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from neckslime import Code, Necklace, divisors, enumerate_codes, is_prime
from neckslime.codes import _comma_literal, _prime_factors, _walk

from oracles import comma_literal, grid_codes, stars_and_bars, tuple_period, weighted_sum

codes = st.lists(st.integers(0, 6), min_size=1, max_size=8).map(lambda e: Code(tuple(e)))


class TestConstruction:
    def test_basic_fields(self):
        f = Code((3, 0, 0))
        assert f.n == 3 and f.k == 3

    def test_mass_is_entry_sum(self):
        assert Code((4, 2, 1)).k == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Code(())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Code((1, -1))

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            Code((1.5, 0))

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            Code((True, False, 2))
        with pytest.raises(TypeError):
            Code((1, True))

    def test_list_input_coerced(self):
        f = Code([1, 2])
        assert f.entries == (1, 2)
        assert hash(f) == hash(Code((1, 2)))

    def test_parse_round_trip(self):
        assert Code.parse("3,0,0") == Code((3, 0, 0))
        assert str(Code((3, 0, 0))) == "3,0,0"

    @given(st.lists(st.one_of(st.integers(0, 12), st.sampled_from([10, 99, 10**20])), min_size=1, max_size=9))
    @example([0])
    @example([7])
    @example([10, 0, 99, 10**20])
    def test_comma_literal_matches_oracle(self, entries):
        e = tuple(entries)
        expected = comma_literal(e)
        assert _comma_literal(e) == str(Code(e)) == str(Necklace(e)) == expected
        assert Code.parse(expected).entries == e

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            Code.parse("a,b")
        with pytest.raises(ValueError):
            Code.parse("")

    def test_json_dict(self):
        d = Code((3, 0, 0)).to_json_dict()
        assert d == {"entries": [3, 0, 0], "n": 3, "k": 3}
        json.dumps(d)


class TestTrusted:
    """Codes the package builds without validation behave like validated ones."""

    def test_matches_validated(self):
        trusted = list(enumerate_codes(5, 4)) + list(enumerate_codes(4, 3, t=1, full_period_only=True))
        trusted += [f.rotate(s) for f in enumerate_codes(4, 3) for s in range(1, 4)]
        validated = [Code(f.entries) for f in trusted]
        assert trusted == validated
        assert [hash(f) for f in trusted] == [hash(f) for f in validated]
        assert all(type(f) is Code and type(f.entries) is tuple for f in trusted)
        key = lambda f: f.entries  # noqa: E731
        assert sorted(trusted, key=key) == sorted(validated, key=key)
        assert set(trusted) == set(validated)


class TestRotate:
    def test_left_shift(self):
        assert Code((4, 2, 1)).rotate(1) == Code((2, 1, 4))

    def test_identity(self):
        f = Code((1, 0, 2))
        assert f.rotate(0) == f

    @given(codes, st.integers(-20, 20))
    def test_inverse_rotation(self, f, s):
        assert f.rotate(s).rotate(f.n - s) == f

    @given(codes)
    def test_weighted_sum_drops_by_k(self, f):
        assert f.rotate(1).weighted_sum() == (f.weighted_sum() - f.k) % f.n

    @given(codes, st.integers(-20, 20))
    def test_period_rotation_invariant(self, f, s):
        assert f.rotate(s).period() == f.period()


class TestWeightedSum:
    def test_worked_values(self):
        assert Code((4, 2, 1)).weighted_sum() == 1
        assert Code((2, 1, 4)).weighted_sum() == 0

    def test_constant_odd_length(self):
        assert Code((1, 1, 1)).weighted_sum() == 0

    @given(codes)
    def test_matches_oracle(self, f):
        assert f.weighted_sum() == weighted_sum(f.entries)


class TestPeriod:
    @pytest.mark.parametrize(
        "entries,expected",
        [((3, 0, 0), 3), ((1, 1, 1), 1), ((2, 0, 2, 0), 2), ((5,), 1)],
    )
    def test_examples(self, entries, expected):
        assert Code(entries).period() == expected

    @given(codes)
    def test_matches_oracle(self, f):
        assert f.period() == tuple_period(f.entries)

    @given(codes)
    def test_divides_length(self, f):
        assert f.n % f.period() == 0


class TestEnumerate:
    def test_total_is_stars_and_bars(self):
        assert sum(1 for _ in enumerate_codes(3, 7)) == 36
        for n in range(1, 6):
            for k in range(6):
                assert sum(1 for _ in enumerate_codes(n, k)) == comb(n + k - 1, n - 1)

    def test_matches_grid_oracle(self):
        for n in range(1, 5):
            for k in range(6):
                assert [f.entries for f in enumerate_codes(n, k)] == sorted(grid_codes(n, k))

    def test_matches_stars_and_bars_oracle(self):
        # every cell the default sweep enumerates, under each filter it uses
        cases = 0
        for n, k in [(n, k) for n in range(1, 9) for k in range(9)] + [(11, k) for k in range(9)]:
            every = sorted(stars_and_bars(n, k))
            for t in (None, 0, n - 1):
                for full_period_only in (False, True):
                    want = [c for c in every if (t is None or weighted_sum(c) == t)
                            and (not full_period_only or tuple_period(c) == n)]
                    got = [f.entries for f in enumerate_codes(n, k, t=t, full_period_only=full_period_only)]
                    assert got == want, (n, k, t, full_period_only)
                    cases += 1
        assert cases == 486

    def test_residue_filter(self):
        got = [f.entries for f in enumerate_codes(3, 3, t=0)]
        assert got == [(0, 0, 3), (0, 3, 0), (1, 1, 1), (3, 0, 0)]

    def test_residue_classes_partition(self):
        for n in range(1, 6):
            for k in range(6):
                total = sum(sum(1 for _ in enumerate_codes(n, k, t=t)) for t in range(n))
                assert total == comb(n + k - 1, n - 1)

    def test_n2_even_second_entry(self):
        got = [f.entries for f in enumerate_codes(2, 4, t=0)]
        assert got == [(0, 4), (2, 2), (4, 0)]

    def test_sorted_duplicate_free(self):
        for n in range(1, 5):
            for k in range(6):
                seq = [f.entries for f in enumerate_codes(n, k)]
                assert seq == sorted(set(seq))

    def test_full_period_filter(self):
        full = [f.entries for f in enumerate_codes(3, 3, full_period_only=True)]
        assert (1, 1, 1) not in full
        assert len(full) == 9

    def test_full_period_filter_matches_period(self):
        # composite n with and without a common factor with k, and k = 0
        for n in range(1, 13):
            for k in range(7):
                got = [f.entries for f in enumerate_codes(n, k, full_period_only=True)]
                assert got == [f.entries for f in enumerate_codes(n, k) if f.period() == n], (n, k)

    def test_k_zero(self):
        assert [f.entries for f in enumerate_codes(4, 0)] == [(0, 0, 0, 0)]

    def test_bad_args(self):
        # refused on the call, before anything is iterated
        for n, k in ((0, 3), (3, -1)):
            with pytest.raises(ValueError):
                enumerate_codes(n, k)
            with pytest.raises(ValueError):
                _walk(n, k)

    def test_walk_carries_the_weighted_sum(self):
        # the step formula, its j = n - 1 case included, against a fresh sum at every code
        for n in range(1, 13):
            for k in range(7):
                want = [(c, weighted_sum(c)) for c in sorted(stars_and_bars(n, k))]
                assert list(_walk(n, k)) == want, (n, k)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        divisors(0)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    for n in range(-3, 400):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n
    assert all(is_prime(n) == (_prime_factors(n) == [n]) for n in range(2, 20_000))


def test_is_prime_strong_pseudoprimes():
    # composites that pass every Miller-Rabin base through 31, and through 37
    assert not is_prime(3_825_123_056_546_413_051)
    assert 399_165_290_221 * 798_330_580_441 == 318_665_857_834_031_151_167_461
    assert not is_prime(318_665_857_834_031_151_167_461)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)


def test_is_prime_refuses_psi_13():
    psi_13 = 3_317_044_064_679_887_385_961_981
    assert not is_prime(psi_13 - 2)  # 17 * 195120239098816905056587
    for n in (psi_13, psi_13 + 2, 10**4000):
        with pytest.raises(ValueError, match="only below 3317044064679887385961981"):
            is_prime(n)


def test_is_prime_is_fast_on_long_primes():
    start = time.perf_counter()
    assert is_prime(10**14 + 31)
    assert time.perf_counter() - start < 0.05
