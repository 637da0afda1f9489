import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildquery.errors import KeyRangeError, SizeLimitError
from wildquery.trie import MAX_KEY_BITS, Trie, complete_trie, random_trie
from wildquery.wildcard import QueryPattern, backtracking_query


def _node_count(trie):
    """Nodes of the trie the keys spell, root and leaves included.

    Counted from distinct prefixes of the stored keys, independently of
    the bisect the search uses to test whether a node exists.
    """
    k, m = trie.k, trie.m
    return sum(
        len({key // k ** (m - depth) for key in trie.keys})
        for depth in range(m + 1)
    )


def _plain_search(trie, key):
    """Steps a wildcard-free search for `key` charges."""
    letters = [(key // trie.k ** (trie.m - 1 - i)) % trie.k for i in range(trie.m)]
    return backtracking_query(trie, QueryPattern(tuple(letters))).steps


def test_insert_then_contains():
    trie = Trie(2, 3)
    trie.insert(0b101)
    assert trie.contains(0b101)
    assert not trie.contains(0b100)


def test_insert_idempotent():
    a = Trie(2, 3)
    a.insert(5).insert(5)
    b = Trie(2, 3)
    b.insert(5)
    assert list(a.keys) == list(b.keys) == [5]


def test_insert_all_keys_node_count():
    trie = Trie(2, 3)
    for key in range(8):
        trie.insert(key)
    assert _node_count(trie) == 1 + 2 + 4 + 8


def test_contains_full_walk_steps():
    trie = complete_trie(2, 3)
    assert trie.contains(0b010)
    assert _plain_search(trie, 0b010) == 3


def test_contains_empty_trie_zero_steps():
    trie = Trie(2, 3)
    assert not trie.contains(0b010)
    assert _plain_search(trie, 0b010) == 0


def test_miss_stops_at_deepest_shared_prefix():
    trie = Trie(2, 3)
    trie.insert(0b111)
    assert not trie.contains(0b110)
    assert _plain_search(trie, 0b110) == 2


def test_complete_trie_members_and_counts():
    assert list(complete_trie(2, 1).keys) == [0, 1]
    assert len(complete_trie(3, 2).keys) == 9
    t = complete_trie(2, 4)
    assert len(t.keys) == 16
    assert _node_count(t) == 31


@pytest.mark.parametrize("k,m", [(2, 5), (3, 3), (4, 2)])
def test_complete_trie_node_count_formula(k, m):
    assert _node_count(complete_trie(k, m)) == (k ** (m + 1) - 1) // (k - 1)


def test_complete_trie_size_limit():
    with pytest.raises(SizeLimitError):
        complete_trie(2, 21)  # 2**21 keys, past the 2**20 limit


def test_key_range_errors():
    trie = Trie(2, 3)
    with pytest.raises(KeyRangeError):
        trie.insert(8)
    with pytest.raises(KeyRangeError):
        trie.contains(-1)
    with pytest.raises(TypeError):
        trie.insert(1.5)
    # a bool compares as 0 or 1 but is not a key
    with pytest.raises(TypeError, match="key must be an int, got True"):
        trie.insert(True)
    with pytest.raises(TypeError, match="key must be an int, got False"):
        trie.contains(False)
    assert list(trie.keys) == []


def test_random_trie_population_and_determinism():
    empty = random_trie(2, 8, 0, seed=1)
    assert list(empty.keys) == []
    full = random_trie(2, 8, 256, seed=1)
    assert list(full.keys) == list(range(256))
    a = random_trie(2, 8, 57, seed=99)
    b = random_trie(2, 8, 57, seed=99)
    assert list(a.keys) == list(b.keys)
    c = random_trie(2, 8, 57, seed=100)
    assert list(a.keys) != list(c.keys)


def test_random_trie_population_out_of_range():
    with pytest.raises(ValueError):
        random_trie(2, 4, 17, seed=0)


def test_random_trie_size_limit():
    # refused before any draw, so a population far past the limit costs
    # nothing (a million picks at the limit take over a second)
    with pytest.raises(SizeLimitError):
        random_trie(2, 60, 1 << 40, seed=0)
    with pytest.raises(SizeLimitError):
        random_trie(2, 21, (1 << 20) + 1, seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda k, m: Trie(k, m),
        lambda k, m: complete_trie(k, m),
        lambda k, m: random_trie(k, m, 5, seed=0),
    ],
    ids=["Trie", "complete_trie", "random_trie"],
)
def test_key_bits_limit_before_the_key_space(make):
    # 3**(10**6) alone takes about 0.1 s; the guard reads only bit lengths
    with pytest.raises(SizeLimitError, match="2000000 bits"):
        make(3, 10**6)
    with pytest.raises(SizeLimitError):
        make(2, MAX_KEY_BITS + 1)
    with pytest.raises(SizeLimitError):
        make(1 << MAX_KEY_BITS, 2)


def test_key_bits_limit_admits_its_edge():
    assert Trie(2, MAX_KEY_BITS).key_space == 1 << MAX_KEY_BITS
    assert Trie(4, MAX_KEY_BITS // 2).key_space == 1 << MAX_KEY_BITS
    trie = random_trie(2, MAX_KEY_BITS, 3, seed=0)
    assert len(trie.keys) == 3 and trie.keys[-1] < 1 << MAX_KEY_BITS


@pytest.mark.parametrize(
    "k,m,population,pool",
    [(2, 12, 1024, True), (3, 5, 243, True), (2, 16, 50, False),
     (2, 20, 1000, False), (2, 12, 0, False)],
)
def test_random_trie_makes_the_rng_sample_draws(k, m, population, pool):
    # the keys are sorted(rng.sample(range(k**m), population)), on both of
    # sample's branches: the pool when k**m is at most its setsize, else
    # redraws until an unpicked index
    setsize = 21
    if population > 5:
        setsize += 4 ** math.ceil(math.log(population * 3, 4))
    assert (k**m <= setsize) == pool
    for seed in (0, 7, "2|trie|5"):
        want = sorted(random.Random(seed).sample(range(k**m), population))
        assert random_trie(k, m, population, seed).keys == want


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 4),
    m=st.integers(1, 6),
    data=st.data(),
)
def test_membership_matches_reference_set(k, m, data):
    keys = data.draw(
        st.sets(st.integers(0, k**m - 1), max_size=min(k**m, 40))
    )
    trie = Trie(k, m)
    for key in keys:
        trie.insert(key)
    assert list(trie.keys) == sorted(keys)
    for probe in data.draw(
        st.lists(st.integers(0, k**m - 1), max_size=10)
    ):
        assert trie.contains(probe) == (probe in keys)
        # a plain search walks down the longest prefix it shares with a key
        shared = max(
            (
                d for d in range(m + 1)
                if any(key // k ** (m - d) == probe // k ** (m - d) for key in keys)
            ),
            default=0,
        )
        assert _plain_search(trie, probe) == shared
