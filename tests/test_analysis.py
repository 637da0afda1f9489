import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildquery.analysis import (
    binomial_convolution_identity,
    config_step_bound,
    mean_step_bound,
    mean_step_bound_hypergeometric,
    wildcard_position_pmf,
)
from wildquery.wildcard import enumerate_configurations, sample_configuration
from wildquery.trie import Trie, complete_trie, random_trie
from wildquery.wildcard import QueryPattern, backtracking_query, random_pattern


class TestConfigStepBound:
    def test_spot_values(self):
        assert config_step_bound(1, 1, (1,), 2) == 3
        assert config_step_bound(3, 2, (2, 3), 2) == 3 + 8 + 6
        assert config_step_bound(1, 1, (1,), 3) == 5

    def test_binary_weights(self):
        # m + sum 2**(w-j+1) z_j written out for w=3
        assert config_step_bound(6, 3, (1, 4, 5), 2) == 6 + 8 * 1 + 4 * 4 + 2 * 5

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            config_step_bound(3, 2, (2, 2), 2)
        with pytest.raises(ValueError):
            config_step_bound(3, 1, (4,), 2)
        with pytest.raises(ValueError):
            config_step_bound(3, 2, (2,), 2)


@pytest.mark.parametrize(
    "func, args, name",
    [
        # a float k or position came back as a float bound (10.0, 9.0)
        (config_step_bound, (4, 1, (2,), 2.5), "k"),
        (config_step_bound, (4, 1, (2.5,), 2), "wildcard position"),
        (config_step_bound, (4.0, 1, (2,), 2), "m"),
        (config_step_bound, (4, True, (2,), 2), "w"),
        (config_step_bound, (4, 1, (True,), 2), "wildcard position"),
        # these leaked Fraction's "both arguments should be Rational"
        (mean_step_bound, (4, 1, 2.5), "k"),
        (mean_step_bound, (4.0, 1), "m"),
        (mean_step_bound, (4, 1.0), "w"),
        (mean_step_bound, (4, 1, True), "k"),
        (mean_step_bound_hypergeometric, (4, 1, 2.0), "k"),
        (mean_step_bound_hypergeometric, (4.0, 1), "m"),
        # these leaked "can't multiply sequence by non-int" or "'float'
        # object cannot be interpreted as an integer"
        (QueryPattern.from_configuration, (4.0, (1,)), "m"),
        (random_trie, (2, 3, 2.0, 1), "population"),
        (random_trie, (2, 3.0, 2, 1), "m"),
        (wildcard_position_pmf, (4, 1, 2.5, 1), "z"),
        (binomial_convolution_identity, (4.0, 1, 1), "m"),
        pytest.param(
            sample_configuration, (4.0, 1, random.Random(1)), "m",
            id="sample_configuration-(4.0, 1, rng)-'m'",
        ),
        (enumerate_configurations, (4.0, 1), "m"),
        (complete_trie, (2.0, 3), "k"),
        # a bool was taken as 1: the pmf returned 1/4, the enumeration
        # [(1,)], and complete_trie said "arity must be >= 2, got True"
        (wildcard_position_pmf, (4, True, 1, 1), "w"),
        (enumerate_configurations, (True, True), "m"),
        (complete_trie, (True, 3), "k"),
        # Trie took 2.0 with key_space 8.0 and said "arity must be >= 2,
        # got True"; random_pattern said "need an int k >= 1" to both
        (Trie, (2.0, 3), "k"),
        (Trie, (2, True), "m"),
        pytest.param(
            random_pattern, (4, 1, 2.0, random.Random(0)), "k",
            id="random_pattern-(4, 1, 2.0, rng)-'k'",
        ),
        pytest.param(
            random_pattern, (4, 1, True, random.Random(0)), "k",
            id="random_pattern-(4, 1, True, rng)-'k'",
        ),
    ],
    ids=lambda v: v.__qualname__ if callable(v) else repr(v),
)
def test_non_int_arguments_are_refused_by_name(func, args, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        func(*args)


class TestPositionPmf:
    def test_spot_value(self):
        assert wildcard_position_pmf(3, 2, 2, 1) == Fraction(1, 3)

    def test_sums_to_one_for_every_rank(self):
        for m in range(1, 12):
            for w in range(1, m + 1):
                for j in range(1, w + 1):
                    total = sum(
                        wildcard_position_pmf(m, w, z, j) for z in range(1, m + 1)
                    )
                    assert total == 1

    def test_out_of_support_is_zero(self):
        assert wildcard_position_pmf(3, 2, 2, 3) == 0
        assert wildcard_position_pmf(3, 0, 1, 1) == 0

    def test_matches_exhaustive_counting(self):
        m, w = 7, 3
        configs = enumerate_configurations(m, w)
        for j in range(1, w + 1):
            for z in range(1, m + 1):
                hits = sum(1 for c in configs if c[j - 1] == z)
                assert wildcard_position_pmf(m, w, z, j) == Fraction(
                    hits, len(configs)
                )

    def test_matches_sampled_frequencies(self):
        m, w, draws = 5, 2, 100_000
        rng = random.Random(11)
        counts = [[0] * (m + 1) for _ in range(w + 1)]
        for _ in range(draws):
            for j, z in enumerate(sample_configuration(m, w, rng), start=1):
                counts[j][z] += 1
        for j in range(1, w + 1):
            for z in range(1, m + 1):
                p = float(wildcard_position_pmf(m, w, z, j))
                sigma = (p * (1 - p) / draws) ** 0.5
                assert abs(counts[j][z] / draws - p) <= 3 * sigma


class TestMeanStepBound:
    def test_spot_values(self):
        assert mean_step_bound(2, 1, 2) == 5
        assert mean_step_bound(3, 2, 2) == Fraction(41, 3)
        assert mean_step_bound(1, 1, 3) == 5

    def test_no_wildcards_convention(self):
        assert mean_step_bound(9, 0, 2) == 9
        assert mean_step_bound(9, 0, 5) == 9

    def test_equals_mean_of_per_config_bounds(self):
        for k in (2, 3):
            for m in range(1, 9):
                for w in range(1, min(m, 4) + 1):
                    configs = enumerate_configurations(m, w)
                    mean = Fraction(
                        sum(config_step_bound(m, w, c, k) for c in configs),
                        len(configs),
                    )
                    assert mean == mean_step_bound(m, w, k), (k, m, w)

    def test_sum_form_agrees_with_closed_form(self):
        for m in range(1, 15):
            for w in range(1, m + 1):
                assert mean_step_bound_hypergeometric(m, w) == mean_step_bound(
                    m, w, 2
                )

    def test_sum_form_agrees_for_higher_arity(self):
        for k in (3, 4, 5):
            for m in range(1, 10):
                for w in range(1, m + 1):
                    assert mean_step_bound_hypergeometric(
                        m, w, k
                    ) == mean_step_bound(m, w, k)


class TestConvolutionIdentity:
    def test_spot_rows(self):
        assert binomial_convolution_identity(3, 2, 1) == (4, 4)
        lhs, rhs = binomial_convolution_identity(5, 5, 3)
        assert lhs == rhs == 1

    def test_sweep(self):
        for m in range(1, 26):
            for w in range(1, m + 1):
                for j in range(1, w + 1):
                    lhs, rhs = binomial_convolution_identity(m, w, j)
                    assert lhs == rhs

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_convolution_identity(3, 4, 1)


def test_fixed_letters_do_not_change_cost_on_complete_trie():
    rng = random.Random(5)
    trie = complete_trie(2, 8)
    for _ in range(25):
        positions = sample_configuration(8, 3, rng)
        costs = set()
        for _ in range(4):
            letters = [rng.randrange(2) for _ in range(5)]
            pattern = QueryPattern.from_configuration(8, positions, letters)
            costs.add(backtracking_query(trie, pattern).steps)
        assert len(costs) == 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 25),
    data=st.data(),
)
def test_identity_properties(m, data):
    w = data.draw(st.integers(1, m))
    j = data.draw(st.integers(1, w))
    lhs, rhs = binomial_convolution_identity(m, w, j)
    assert lhs == rhs
    p = wildcard_position_pmf(m, w, data.draw(st.integers(1, m)), j)
    assert 0 <= p <= 1
