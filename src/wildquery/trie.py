"""Fixed-depth tries over the alphabet 0..k-1, stored as sorted key arrays.

Keys are integers in [0, k**m) read as m base-k letters; letter positions
are numbered m..1 from the most significant letter down. Every stored key
occupies a full root-to-leaf path of exactly m edges, so the node at depth
d with prefix p exists exactly when some stored key lies in
[p * k**(m-d), (p+1) * k**(m-d)). The trie therefore keeps only its keys
in ascending order, and one bisect answers whether a node exists. Search
cost is counted by the search itself (see wildcard.py) in *steps*, one per
edge traversal, charged in both the downward and the backtracking
direction.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .errors import KeyRangeError, SizeLimitError, refuse_non_int

# desk-scale ceiling on trie keys; the trie runners apply it too
MAX_TRIE_KEYS = 1 << 20
# desk-scale ceiling on the bits of a key, m * (k - 1).bit_length()
MAX_KEY_BITS = 1 << 12


def _require_key_bits(k: int, m: int) -> None:
    """Refuse a key space whose keys may take over MAX_KEY_BITS bits.

    k <= 2**bits for bits = (k - 1).bit_length(), so k**m - 1 fits in
    m * bits bits; the test is O(1), so it runs before any k**m, whose
    cost grows with m.
    """
    if m * (k - 1).bit_length() > MAX_KEY_BITS:
        raise SizeLimitError(
            f"keys of k={k}, m={m} may take {m * (k - 1).bit_length()} "
            f"bits, over the limit {MAX_KEY_BITS}"
        )


class Trie:
    """Fixed-depth k-ary trie storing integer keys.

    `keys` is an ascending sequence of distinct stored keys: a list, or a
    range for the complete trie. A single writer may insert; any number of
    readers may query a frozen trie concurrently.
    """

    def __init__(self, k: int, m: int):
        if not (type(k) is int and type(m) is int):
            refuse_non_int(k=k, m=m)
        if k < 2:
            raise ValueError(f"arity must be >= 2, got {k}")
        if m < 1:
            raise ValueError(f"depth must be >= 1, got {m}")
        _require_key_bits(k, m)
        self.k = k
        self.m = m
        self.key_space = k**m
        self.keys: list[int] | range = []

    def _check_key(self, key: int) -> None:
        # a non-int key would compare fine and break the ascending-ints
        # order, and a bool is not a key
        if type(key) is not int:
            refuse_non_int(key=key)
        if not 0 <= key < self.key_space:
            raise KeyRangeError(
                f"key {key} out of range for k={self.k}, m={self.m}"
            )

    def insert(self, key: int) -> "Trie":
        """Add a key; idempotent."""
        if not self.contains(key):
            insort(self.keys, key)
        return self

    def contains(self, key: int) -> bool:
        """Membership test."""
        self._check_key(key)
        keys = self.keys
        i = bisect_left(keys, key)
        return i < len(keys) and keys[i] == key


def complete_trie(k: int, m: int) -> Trie:
    """Trie containing every key in [0, k**m)."""
    if not (type(k) is int and type(m) is int):
        refuse_non_int(k=k, m=m)
    _require_key_bits(k, m)
    if k**m > MAX_TRIE_KEYS:
        raise SizeLimitError(
            f"complete trie k={k}, m={m} has {k ** m} keys, "
            f"over the limit {MAX_TRIE_KEYS}"
        )
    trie = Trie(k, m)
    trie.keys = range(k**m)
    return trie


def random_trie(k: int, m: int, population: int, seed) -> Trie:
    """Trie holding `population` distinct uniform keys, fixed by `seed`.

    The draws are a contract: the keys are
    `sorted(random.Random(seed).sample(range(k**m), population))`. They
    are drawn by `wildcard.sample_configuration(k**m, population, rng)`,
    the one inlined copy of `sample`'s rule, whose positions 1..k**m
    shifted down by one are those keys. A population over
    MAX_TRIE_KEYS, or keys over MAX_KEY_BITS bits, are refused before
    any draw.
    """
    if not (type(k) is int and type(m) is int and type(population) is int):
        refuse_non_int(k=k, m=m, population=population)
    _require_key_bits(k, m)
    if population > MAX_TRIE_KEYS:
        raise SizeLimitError(
            f"population {population} is over the limit {MAX_TRIE_KEYS} "
            "trie keys"
        )
    space = k**m
    if not 0 <= population <= space:
        raise ValueError(
            f"population {population} out of range for key space {space}"
        )
    # wildcard imports this module, so its sampler is bound at call time
    from .wildcard import sample_configuration

    trie = Trie(k, m)
    positions = sample_configuration(space, population, random.Random(seed))
    trie.keys = [x - 1 for x in positions]
    return trie
