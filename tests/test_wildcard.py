import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildquery.analysis import config_step_bound
from wildquery.errors import PatternShapeError, SizeLimitError
from wildquery.trie import Trie, complete_trie, random_trie
from wildquery.wildcard import (
    QueryPattern,
    backtracking_query,
    brute_force_query,
    enumerate_configurations,
    random_pattern,
    sample_configuration,
)


class TestPattern:
    def test_parse_and_positions(self):
        pattern = QueryPattern.from_string("1*0*0")
        assert pattern.m == 5
        assert pattern.wildcard_count == 2
        # leftmost letter sits at position m; wildcards land at 4 and 2
        assert pattern.wildcard_positions() == (2, 4)
        assert pattern.to_string() == "1*0*0"

    def test_from_configuration_with_letter_sequence(self):
        pattern = QueryPattern.from_configuration(4, (1, 3), [2, 0])
        assert pattern.to_string() == "2*0*"

    def test_expansions_counting_order(self):
        pattern = QueryPattern.from_string("*0*")
        # least significant wildcard cycles fastest
        assert list(pattern.expansions(2)) == [0b000, 0b001, 0b100, 0b101]
        ternary = QueryPattern.from_string("*1")
        assert list(ternary.expansions(3)) == [1, 4, 7]

    @pytest.mark.parametrize("k", [2, 3])
    def test_expansions_match_product_formula(self, k):
        # reference: itertools.product over the wildcard letters, most
        # significant wildcard first, each key summed from place values
        m = 5
        rng = random.Random(k)
        for w in range(m + 1):
            for positions in enumerate_configurations(m, w):
                letters = [rng.randrange(k) for _ in range(m - w)]
                pattern = QueryPattern.from_configuration(m, positions, letters)
                base = sum(
                    s * k ** (m - 1 - i)
                    for i, s in enumerate(pattern.symbols)
                    if s is not None
                )
                weights = [k ** (z - 1) for z in reversed(positions)]
                want = [
                    base + sum(a * wgt for a, wgt in zip(combo, weights))
                    for combo in itertools.product(range(k), repeat=w)
                ]
                assert list(pattern.expansions(k)) == want

    def test_bad_characters_rejected(self):
        with pytest.raises(PatternShapeError):
            QueryPattern.from_string("1*x")


class TestConfigurations:
    def test_enumerate_all(self):
        assert enumerate_configurations(3, 2) == [(1, 2), (1, 3), (2, 3)]
        assert enumerate_configurations(4, 1) == [(1,), (2,), (3,), (4,)]
        assert len(enumerate_configurations(10, 4)) == 210

    def test_enumerate_limit(self):
        with pytest.raises(SizeLimitError):
            enumerate_configurations(30, 15, max_count=1000)

    def test_sample_degenerate_cases(self):
        assert sample_configuration(5, 5, seed=0) == (1, 2, 3, 4, 5)
        assert sample_configuration(5, 0, seed=0) == ()

    def test_sample_deterministic(self):
        assert sample_configuration(12, 4, seed=7) == sample_configuration(
            12, 4, seed=7
        )

    def test_sample_rejects_bad_w(self):
        with pytest.raises(ValueError):
            sample_configuration(3, 4, seed=0)

    def test_sample_uniform_over_configurations(self):
        # m=5, w=2: each of the 10 subsets should appear ~1/10 of the time
        rng = random.Random(2024)
        draws = 100_000
        counts: dict = {}
        for _ in range(draws):
            positions = sample_configuration(5, 2, rng)
            counts[positions] = counts.get(positions, 0) + 1
        assert len(counts) == 10
        p = 1 / 10
        sigma = math.sqrt(p * (1 - p) / draws)
        for positions, count in counts.items():
            assert abs(count / draws - p) <= 3 * sigma, positions


class TestBacktrackingQuery:
    def test_single_wildcard_bit(self):
        result = backtracking_query(complete_trie(2, 1), QueryPattern.from_string("*"))
        assert result.matches == {0, 1}
        assert result.steps == 3

    def test_wildcard_above_fixed_letter(self):
        # walk down 2, climb back to the root wildcard, walk down 2 again
        result = backtracking_query(complete_trie(2, 2), QueryPattern.from_string("*0"))
        assert result.steps == 6
        assert result.matches == {0b00, 0b10}

    def test_ternary_single_wildcard(self):
        result = backtracking_query(complete_trie(3, 1), QueryPattern.from_string("*"))
        assert result.matches == {0, 1, 2}
        assert result.steps == 5

    def test_no_wildcards_is_plain_search(self):
        trie = Trie(2, 4)
        trie.insert(0b1010)
        hit = backtracking_query(trie, QueryPattern.from_string("1010"))
        assert hit.matches == {0b1010} and hit.steps == 4
        miss = backtracking_query(trie, QueryPattern.from_string("1011"))
        assert miss.matches == frozenset() and miss.steps <= 4

    def test_per_key_steps_align_with_expansions(self):
        result = backtracking_query(complete_trie(2, 2), QueryPattern.from_string("**"))
        assert result.per_key_steps == (2, 2, 4, 2)
        assert result.steps == 10

    def test_dead_end_decides_a_group_at_once(self):
        trie = Trie(2, 3)
        trie.insert(0b111)
        result = backtracking_query(trie, QueryPattern.from_string("***"))
        assert result.matches == {0b111}
        assert len(result.per_key_steps) == 8
        assert result.steps == 3
        assert sum(result.per_key_steps) == 3

    def test_shape_errors(self):
        trie = complete_trie(2, 3)
        with pytest.raises(PatternShapeError):
            backtracking_query(trie, QueryPattern.from_string("**"))
        with pytest.raises(PatternShapeError):
            backtracking_query(trie, QueryPattern.from_string("2**"))

    def test_tight_on_complete_tries_small_sweep(self):
        for m in range(1, 8):
            trie = complete_trie(2, m)
            for w in range(1, min(m, 4) + 1):
                for positions in enumerate_configurations(m, w):
                    pattern = QueryPattern.from_configuration(m, positions)
                    steps = backtracking_query(trie, pattern).steps
                    assert steps == config_step_bound(m, w, positions, 2)

    def test_tight_on_complete_karies(self):
        for k in (3, 4):
            for m in range(1, 5):
                trie = complete_trie(k, m)
                for w in range(1, min(m, 3) + 1):
                    for positions in enumerate_configurations(m, w):
                        pattern = QueryPattern.from_configuration(m, positions)
                        steps = backtracking_query(trie, pattern).steps
                        assert steps == config_step_bound(m, w, positions, k)


class TestOracleAgreement:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_equal_brute_force(self, data):
        k = data.draw(st.integers(2, 4))
        max_m = {2: 10, 3: 6, 4: 5}[k]
        m = data.draw(st.integers(1, max_m))
        population = data.draw(st.integers(0, k**m))
        trie = random_trie(k, m, population, seed=data.draw(st.integers(0, 2**20)))
        w = data.draw(st.integers(0, min(m, {2: 8, 3: 5, 4: 4}[k])))
        rng = random.Random(data.draw(st.integers(0, 2**20)))
        pattern = random_pattern(m, w, k, rng)

        result = backtracking_query(trie, pattern)
        assert result.matches == frozenset(brute_force_query(trie, pattern))
        assert len(result.per_key_steps) == k**w
        assert sum(result.per_key_steps) == result.steps
        bound = config_step_bound(m, w, pattern.wildcard_positions(), k)
        assert result.steps <= bound

    def test_brute_force_empty_trie(self):
        trie = Trie(2, 4)
        assert brute_force_query(trie, QueryPattern.from_string("1**0")) == set()

    def test_brute_force_complete_trie_all_match(self):
        trie = complete_trie(2, 4)
        pattern = QueryPattern.from_string("1**0")
        assert len(brute_force_query(trie, pattern)) == 4

    def test_brute_force_expansion_limit(self):
        trie = complete_trie(2, 10)
        pattern = QueryPattern.from_string("*" * 10)
        with pytest.raises(SizeLimitError):
            brute_force_query(trie, pattern, max_expansions=512)
