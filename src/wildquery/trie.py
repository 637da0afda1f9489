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

from .errors import KeyRangeError, SizeLimitError

# desk-scale ceiling on trie keys; the trie runners apply it too
MAX_TRIE_KEYS = 1 << 20


class Trie:
    """Fixed-depth k-ary trie storing integer keys.

    `keys` is an ascending sequence of distinct stored keys: a list, or a
    range for the complete trie. A single writer may insert; any number of
    readers may query a frozen trie concurrently.
    """

    def __init__(self, k: int, m: int):
        if k < 2:
            raise ValueError(f"arity must be >= 2, got {k}")
        if m < 1:
            raise ValueError(f"depth must be >= 1, got {m}")
        self.k = k
        self.m = m
        self.key_space = k**m
        self.keys: list[int] | range = []

    def _check_key(self, key: int) -> None:
        # a non-int key would compare fine and break the ascending-ints order
        if not isinstance(key, int):
            raise TypeError(f"key must be an int, got {key!r}")
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
    if k**m > MAX_TRIE_KEYS:
        raise SizeLimitError(
            f"complete trie k={k}, m={m} has {k ** m} keys, "
            f"over the limit {MAX_TRIE_KEYS}"
        )
    trie = Trie(k, m)
    trie.keys = range(k**m)
    return trie


def random_trie(k: int, m: int, population: int, seed) -> Trie:
    """Trie holding `population` distinct uniform keys, fixed by `seed`."""
    space = k**m
    if not 0 <= population <= space:
        raise ValueError(
            f"population {population} out of range for key space {space}"
        )
    trie = Trie(k, m)
    trie.keys = sorted(random.Random(seed).sample(range(space), population))
    return trie
