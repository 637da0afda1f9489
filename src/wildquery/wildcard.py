"""Wildcard query patterns and the backtracking search that answers them.

A pattern is an m-letter string in which each position is either a fixed
letter or a wildcard that must be expanded over every letter 0..k-1 of the
target trie. Positions are numbered m..1 from the left; the wildcard
position set is kept sorted ascending, so its first element is the least
significant wildcard.

The search walks the trie depth-first, always trying wildcard letter 0
first, and on every decided key backtracks only as far as the deepest
wildcard that still has letters left. Each edge crossed in either
direction costs one step. The implementation does one bisect per decided
key, not per edge: the keys are stored in sorted order, so the depth at
which the walk toward an expansion leaves the trie is its longest common
prefix with one of the two stored keys it sorts between.

Queries never mutate the trie, so any number may run in parallel against
a frozen trie; each counts its own steps.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import PatternShapeError, SizeLimitError
from .trie import Trie

Configuration = tuple[int, ...]

# desk-scale ceilings of the brute-force oracle and of configuration lists
MAX_EXPANSIONS = 1 << 12
MAX_CONFIGURATIONS = 1 << 20

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
            if s is not None and (
                isinstance(s, bool) or not isinstance(s, int) or s < 0
            ):
                raise PatternShapeError(f"pattern letter must be an int >= 0: {s!r}")

    @classmethod
    def from_string(cls, text: str) -> "QueryPattern":
        """Parse e.g. "1*0*0" (ASCII digits are letters, '*' a wildcard)."""
        symbols: list[int | None] = []
        for ch in text:
            if ch == WILDCARD_CHAR:
                symbols.append(None)
            elif "0" <= ch <= "9":
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
        positions = tuple(positions)
        validate_configuration(m, positions)
        n_fixed = m - len(positions)
        if isinstance(fixed_letters, int):
            letters: list[int | None] = [fixed_letters] * n_fixed
        else:
            try:
                letters = list(fixed_letters)
            except TypeError:
                raise PatternShapeError(
                    f"fixed letters must be an int or a sequence: {fixed_letters!r}"
                ) from None
        if len(letters) != n_fixed:
            raise PatternShapeError(
                f"need {n_fixed} fixed letters for m={m} with "
                f"{len(positions)} wildcards, got {len(letters)}"
            )
        # a wildcard at position z sits at index m - z; inserting them at
        # ascending indices leaves every earlier index in place
        for z in reversed(positions):
            letters.insert(m - z, None)
        return cls(tuple(letters))

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

    The steps are counted per decision, not per edge. The keys are sorted
    in base-k order, which is the lexicographic order of their letter
    strings, so the stored key sharing the longest prefix with the target
    t (the current expansion, wildcards below the resume depth r at 0) is
    keys[i] or keys[i-1] for i = bisect_left(keys, t). The walk toward t
    therefore stops at the depth L of that prefix, after L - r steps down,
    and the climb to the next live wildcard at depth r' costs L - r'.
    """
    _check_pattern(trie, pattern)
    k, m = trie.k, trie.m
    keys = trie.keys
    n_keys = len(keys)
    # power[j] = keys under one node at depth m - j; a key x agrees with t
    # on the first m - j letters exactly when x // power[j] == t // power[j]
    power = [k**j for j in range(m + 1)]
    # the wildcards by node depth (depth d picks its child by letter
    # symbols[d]), shallowest first, and the place value of their letter
    depths = [d for d, s in enumerate(pattern.symbols) if s is None]
    place = [power[m - 1 - d] for d in depths]
    t = 0  # the expansion being decided; all wildcards start at 0
    for s in pattern.symbols:
        t = t * k + (s or 0)
    w = len(depths)
    letter = [0] * w
    per_key = [0] * k**w
    matches: set[int] = set()
    steps = charged = resume = decided = 0

    while True:
        i = bisect_left(keys, t)
        if i < n_keys and keys[i] == t:
            depth = m
            matches.add(t)
        else:
            # j = the trailing letters of t that no stored key matches; the
            # key agreeing longest with t is keys[i] or keys[i - 1]
            j = m
            if i < n_keys:
                x = keys[i]
                j = bisect_right(power, x - t)
                while x // power[j] != t // power[j]:
                    j += 1
            if i:
                x = keys[i - 1]
                below = bisect_right(power, t - x)
                while below < j and x // power[below] != t // power[below]:
                    below += 1
                if below < j:
                    j = below
            depth = m - j
        steps += depth - resume
        per_key[decided] = steps - charged
        charged = steps
        # a walk ending at this depth assigned the q shallowest wildcards;
        # the k**(w - q) keys that share them are decided together
        q = bisect_right(depths, depth)
        decided += power[w - q]

        # reset exhausted wildcards, then climb to the deepest live one
        q -= 1
        while q >= 0 and letter[q] == k - 1:
            letter[q] = 0
            t -= (k - 1) * place[q]
            q -= 1
        if q < 0:
            break
        letter[q] += 1
        t += place[q]
        resume = depths[q]
        steps += depth - resume

    return QueryResult(
        matches=frozenset(matches),
        steps=steps,
        per_key_steps=tuple(per_key),
    )


def brute_force_query(trie: Trie, pattern: QueryPattern) -> set[int]:
    """Oracle: test every expansion with a plain membership search.

    Shares no traversal state with backtracking_query.
    """
    _check_pattern(trie, pattern)
    w = pattern.wildcard_count
    if trie.k**w > MAX_EXPANSIONS:
        raise SizeLimitError(
            f"{trie.k ** w} expansions exceed the limit {MAX_EXPANSIONS}"
        )
    return {key for key in pattern.expansions(trie.k) if trie.contains(key)}


def sample_configuration(m: int, w: int, rng: random.Random) -> Configuration:
    """Uniformly random w-subset of positions 1..m, drawn from `rng`."""
    if not 0 <= w <= m:
        raise ValueError(f"need 0 <= w <= m, got w={w}, m={m}")
    return tuple(sorted(rng.sample(range(1, m + 1), w)))


def enumerate_configurations(m: int, w: int) -> list[Configuration]:
    """All w-subsets of positions 1..m in lexicographic order."""
    if not 0 <= w <= m:
        raise ValueError(f"need 0 <= w <= m, got w={w}, m={m}")
    if math.comb(m, w) > MAX_CONFIGURATIONS:
        raise SizeLimitError(
            f"C({m},{w}) = {math.comb(m, w)} configurations exceed "
            f"{MAX_CONFIGURATIONS}"
        )
    return list(itertools.combinations(range(1, m + 1), w))


def random_pattern(m: int, w: int, k: int, rng: random.Random) -> QueryPattern:
    """Random configuration plus uniform random fixed letters."""
    positions = sample_configuration(m, w, rng)
    letters = [rng.randrange(k) for _ in range(m - w)]
    return QueryPattern.from_configuration(m, positions, letters)
