"""Wildcard query patterns and the backtracking search that answers them.

A pattern is an m-letter string in which each position is either a fixed
letter or a wildcard that must be expanded over every letter 0..k-1 of the
target trie. Positions are numbered m..1 from the left; the wildcard
position set is kept sorted ascending, so its first element is the least
significant wildcard.

The search walks the trie depth-first, always trying wildcard letter 0
first, and on every decided key backtracks only as far as the deepest
wildcard that still has letters left. Each edge crossed in either
direction costs one step.

Queries never mutate the trie, so any number may run in parallel against
a frozen trie; each counts its own steps.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .errors import PatternShapeError, SizeLimitError
from .trie import Trie

Configuration = tuple[int, ...]

DEFAULT_MAX_EXPANSIONS = 1 << 12
DEFAULT_MAX_CONFIGURATIONS = 1 << 20

WILDCARD_CHAR = "*"


def validate_configuration(m: int, positions: Configuration) -> None:
    """Require strictly increasing positions within 1..m."""
    last = 0
    for z in positions:
        if not last < z <= m:
            raise ValueError(f"bad wildcard positions {positions} for m={m}")
        last = z


@dataclass(frozen=True)
class QueryPattern:
    """Fixed letters and wildcards, leftmost symbol at position m.

    ``symbols[i]`` is the letter at position m-i, or None for a wildcard.
    """

    symbols: tuple[int | None, ...]

    def __post_init__(self):
        if not self.symbols:
            raise PatternShapeError("empty pattern")
        for s in self.symbols:
            if s is not None and s < 0:
                raise PatternShapeError(f"negative letter in pattern: {s}")

    @classmethod
    def from_string(cls, text: str) -> "QueryPattern":
        """Parse e.g. "1*0*0" (digits are letters, '*' a wildcard)."""
        symbols: list[int | None] = []
        for ch in text:
            if ch == WILDCARD_CHAR:
                symbols.append(None)
            elif ch.isdigit():
                symbols.append(int(ch))
            else:
                raise PatternShapeError(f"bad pattern character {ch!r}")
        return cls(tuple(symbols))

    @classmethod
    def from_configuration(
        cls,
        m: int,
        positions: Configuration,
        fixed_letters=0,
    ) -> "QueryPattern":
        """Pattern of length m with wildcards at `positions`.

        `fixed_letters` fills the remaining positions: either one letter
        for all of them or a sequence indexed left to right.
        """
        validate_configuration(m, tuple(positions))
        wild = set(positions)
        symbols: list[int | None] = []
        fixed_iter = None
        if not isinstance(fixed_letters, int):
            fixed_iter = iter(fixed_letters)
        for i in range(m):
            pos = m - i
            if pos in wild:
                symbols.append(None)
            elif fixed_iter is None:
                symbols.append(fixed_letters)
            else:
                symbols.append(next(fixed_iter))
        return cls(tuple(symbols))

    def to_string(self) -> str:
        parts = []
        for s in self.symbols:
            if s is None:
                parts.append(WILDCARD_CHAR)
            elif s > 9:
                raise PatternShapeError("letters above 9 have no text form")
            else:
                parts.append(str(s))
        return "".join(parts)

    @property
    def m(self) -> int:
        return len(self.symbols)

    @property
    def wildcard_count(self) -> int:
        return sum(1 for s in self.symbols if s is None)

    def wildcard_positions(self) -> Configuration:
        """Positions of the wildcards, ascending (least significant first)."""
        m = self.m
        return tuple(sorted(m - i for i, s in enumerate(self.symbols) if s is None))

    def expansions(self, k: int):
        """Return an iterator over the k**w concrete keys in search order.

        The order counts the wildcard letters like a base-k number whose
        least significant digit is the least significant wildcard, which is
        exactly the order the backtracking search decides memberships in.
        The keys are built by list doubling, most significant wildcard
        first: each key so far is followed by its k extensions in turn.
        """
        m = len(self.symbols)
        base = 0
        weights = []  # place value of each wildcard, most significant first
        for i, s in enumerate(self.symbols):
            place = k ** (m - 1 - i)
            if s is None:
                weights.append(place)
            else:
                base += s * place
        keys = [base]
        for wgt in weights:
            keys = [x + a * wgt for x in keys for a in range(k)]
        return iter(keys)

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one wildcard query against a trie.

    per_key_steps lines up with the expansion order; when one dead end
    decides several expansions at once, the cost is charged to the first
    key of the group and the rest record 0, so the entries always sum to
    `steps`.
    """

    matches: frozenset[int]
    steps: int
    per_key_steps: tuple[int, ...]


def _check_pattern(trie: Trie, pattern: QueryPattern) -> None:
    if pattern.m != trie.m:
        raise PatternShapeError(
            f"pattern length {pattern.m} does not match trie depth {trie.m}"
        )
    for s in pattern.symbols:
        if s is not None and s >= trie.k:
            raise PatternShapeError(
                f"pattern letter {s} outside trie alphabet 0..{trie.k - 1}"
            )


def backtracking_query(trie: Trie, pattern: QueryPattern) -> QueryResult:
    """Resolve every expansion of `pattern`, counting traversal steps.

    Starts with all wildcards at letter 0 and walks toward the leaf. When
    a key's membership is decided (leaf reached, or the needed child is
    missing), the cursor climbs back to the deepest wildcard node whose
    letters are not exhausted, one step per edge, bumps that wildcard to
    its next letter and descends again. A missing child decides every
    expansion below the dead point at once. The search ends after the last
    decision with no final climb.
    """
    _check_pattern(trie, pattern)
    k, m = trie.k, trie.m
    sym = pattern.symbols
    keys = trie.keys
    n_keys = len(keys)
    steps = 0

    # wildcard depths (node depth = m - position) currently assigned,
    # shallowest first, with their letter values
    open_depths: list[int] = []
    letter_at: dict[int, int] = {}
    # wilds_below[d] = wildcards at depths >= d, for dead-end group sizes
    wilds_below = [0] * (m + 1)
    for d in range(m - 1, -1, -1):
        wilds_below[d] = wilds_below[d + 1] + (1 if sym[d] is None else 0)
    # width[d] = keys under one node at depth d + 1, so the child of the
    # depth-d node with prefix p on letter a holds the keys in
    # [(p*k + a) * width[d], (p*k + a + 1) * width[d])
    width = [k ** (m - 1 - d) for d in range(m)]

    # prefix[d] = letters of the node at depth d on the current path, read
    # as a base-k number; prefix[m] is the key itself
    prefix = [0] * (m + 1)
    depth = 0
    matches: set[int] = set()
    per_key: list[int] = []
    charged = 0

    while True:
        # descend as far as the pattern and trie allow
        dead = False
        while depth < m:
            s = sym[depth]
            if s is None:
                if open_depths and open_depths[-1] == depth:
                    a = letter_at[depth]
                else:
                    open_depths.append(depth)
                    letter_at[depth] = 0
                    a = 0
            else:
                a = s
            child = prefix[depth] * k + a
            lo = child * width[depth]
            i = bisect_left(keys, lo)
            if i == n_keys or keys[i] >= lo + width[depth]:
                dead = True
                break
            depth += 1
            prefix[depth] = child
            steps += 1

        if dead:
            group = k ** wilds_below[depth + 1]
        else:
            matches.add(prefix[m])
            group = 1

        per_key.append(steps - charged)
        charged = steps
        if group > 1:
            per_key.extend([0] * (group - 1))

        # drop exhausted wildcards, then climb to the deepest live one
        while open_depths and letter_at[open_depths[-1]] == k - 1:
            del letter_at[open_depths[-1]]
            open_depths.pop()
        if not open_depths:
            break
        target = open_depths[-1]
        steps += depth - target
        depth = target
        letter_at[target] += 1

    return QueryResult(
        matches=frozenset(matches),
        steps=steps,
        per_key_steps=tuple(per_key),
    )


def brute_force_query(
    trie: Trie,
    pattern: QueryPattern,
    max_expansions: int = DEFAULT_MAX_EXPANSIONS,
) -> set[int]:
    """Oracle: test every expansion with a plain membership search.

    Shares no traversal state with backtracking_query.
    """
    _check_pattern(trie, pattern)
    w = pattern.wildcard_count
    if trie.k**w > max_expansions:
        raise SizeLimitError(
            f"{trie.k ** w} expansions exceed the limit {max_expansions}"
        )
    return {key for key in pattern.expansions(trie.k) if trie.contains(key)}


def sample_configuration(m: int, w: int, seed) -> Configuration:
    """Uniformly random w-subset of positions 1..m, fixed by `seed`.

    `seed` may be anything random.Random accepts, including a Random
    instance to draw from an existing stream.
    """
    if not 0 <= w <= m:
        raise ValueError(f"need 0 <= w <= m, got w={w}, m={m}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return tuple(sorted(rng.sample(range(1, m + 1), w)))


def enumerate_configurations(
    m: int, w: int, max_count: int = DEFAULT_MAX_CONFIGURATIONS
) -> list[Configuration]:
    """All w-subsets of positions 1..m in lexicographic order."""
    if not 0 <= w <= m:
        raise ValueError(f"need 0 <= w <= m, got w={w}, m={m}")
    if math.comb(m, w) > max_count:
        raise SizeLimitError(
            f"C({m},{w}) = {math.comb(m, w)} configurations exceed {max_count}"
        )
    return list(itertools.combinations(range(1, m + 1), w))


def random_pattern(m: int, w: int, k: int, rng: random.Random) -> QueryPattern:
    """Random configuration plus uniform random fixed letters."""
    positions = sample_configuration(m, w, rng)
    letters = [rng.randrange(k) for _ in range(m - w)]
    return QueryPattern.from_configuration(m, positions, letters)
