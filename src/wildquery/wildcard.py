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
prefix with one of the two stored keys it sorts between. When k is a
power of two, 2**b, every letter is a b-bit field, so that prefix is read
off the bit length of the xor of the two keys; any other k finds it by
integer division.

The rest of the search's control flow depends only on k, m and the
wildcard configuration, so it comes from a plan of three tables built
once per configuration: `span[d]` expansions are decided by a walk that
ends at depth d, `offset[c]` holds the wildcard letters of expansion c,
and `resume[c]` is the depth of the wildcard that expansion c bumped.
The offsets ascend with c, so each target's bisect starts where the
last one ended. Plans of at most MAX_CACHED_EXPANSIONS expansions are
memoized in a `functools.lru_cache` of PLAN_CACHE_SIZE entries; a larger
plan is built per call, so no cached plan holds more than
2 * MAX_CACHED_EXPANSIONS + m + 1 entries.

Queries never mutate the trie, so any number may run in parallel against
a frozen trie; each counts its own steps. Plans are immutable tuples and
`lru_cache` keeps its own state consistent, so concurrent queries may
share them.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import PatternShapeError, SizeLimitError, refuse_non_int
from .trie import Trie

Configuration = tuple[int, ...]

# desk-scale ceilings: expansions per brute-force or ring wildcard query,
# and configurations per list
MAX_EXPANSIONS = 1 << 12
MAX_CONFIGURATIONS = 1 << 20
# the search memoizes plans of at most this many expansions, this many plans
MAX_CACHED_EXPANSIONS = 64
PLAN_CACHE_SIZE = 1024

WILDCARD_CHAR = "*"


def validate_configuration(m: int, positions: Configuration) -> None:
    """Require strictly increasing int positions within 1..m."""
    last = 0
    for z in positions:
        if type(z) is not int:
            raise TypeError(f"wildcard position must be an int, got {z!r}")
        if not last < z <= m:
            raise ValueError(f"bad wildcard positions {positions} for m={m}")
        last = z


class QueryPattern:
    """Fixed letters and wildcards, leftmost symbol at position m.

    ``symbols[i]`` is the letter at position m-i, or None for a wildcard.
    A pattern is immutable; two patterns are equal, and hash alike, when
    their symbols are.
    """

    symbols: tuple[int | None, ...]

    def __init__(self, symbols):
        # a copy, so a caller's later edit to its list cannot reach the
        # pattern; tuple() hands a tuple back as it is
        symbols = tuple(symbols or ())
        if not symbols:
            raise PatternShapeError("empty pattern")
        for s in symbols:
            # the exact-type test passes a plain letter; only what fails
            # it pays for the subclass-aware refusal
            if s is not None and not (type(s) is int and s >= 0) and (
                isinstance(s, bool) or not isinstance(s, int) or s < 0
            ):
                raise PatternShapeError(f"pattern letter must be an int >= 0: {s!r}")
        # the instance dict, like `configuration`'s cache, bypasses the
        # refusing __setattr__
        self.__dict__["symbols"] = symbols

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"{type(self).__qualname__}(symbols={self.symbols!r})"

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
        if type(m) is not int:
            refuse_non_int(m=m)
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

    @cached_property
    def configuration(self) -> Configuration:
        """Positions of the wildcards, ascending (least significant first),
        computed once per pattern."""
        symbols = self.symbols
        m = len(symbols)
        return tuple(m - i for i in range(m - 1, -1, -1) if symbols[i] is None)

    def expansions(self, k: int):
        """Return an iterator over the k**w concrete keys in search order.

        The order counts the wildcard letters like a base-k number whose
        least significant digit is the least significant wildcard, which is
        exactly the order the backtracking search decides memberships in.
        The keys are built by list doubling, least significant wildcard
        first: the keys so far are followed by a copy of them for each
        further letter of the next wildcard. Every fixed letter must lie
        in 0..k-1.
        """
        if type(k) is not int:
            refuse_non_int(k=k)
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        base = 0
        place = 1
        weights = []  # place value of each wildcard, least significant first
        for s in reversed(self.symbols):
            if s is None:
                weights.append(place)
            elif s < k:
                base += s * place
            else:
                raise PatternShapeError(
                    f"pattern letter {s} outside alphabet 0..{k - 1}"
                )
            place *= k
        keys = [base]
        for wgt in weights:
            keys += [x + a * wgt for a in range(1, k) for x in keys]
        return iter(keys)


class QueryResult(NamedTuple):
    """Outcome of one wildcard query against a trie.

    per_key_steps lines up with the expansion order; when one dead end
    decides several expansions at once, the cost is charged to the first
    key of the group and the rest record 0, so the entries always sum to
    `steps`.
    """

    matches: frozenset[int]
    steps: int
    per_key_steps: tuple[int, ...]


# builds a QueryResult from a 3-tuple in C, with no __new__ frame
_new = tuple.__new__


def _check_pattern(pattern: QueryPattern, m: int, k: int) -> int:
    """Refuse a pattern that is not a `QueryPattern` of m letters over
    0..k-1, else return its first expansion: the key with every wildcard
    at letter 0."""
    if type(pattern) is not QueryPattern and not isinstance(pattern, QueryPattern):
        raise TypeError(f"pattern must be a QueryPattern, got {pattern!r}")
    symbols = pattern.symbols
    if len(symbols) != m:
        raise PatternShapeError(
            f"pattern length {len(symbols)} does not match key length {m}"
        )
    base = 0
    for s in symbols:
        if s is None:
            base *= k
        elif s < k:
            base = base * k + s
        else:
            raise PatternShapeError(
                f"pattern letter {s} outside alphabet 0..{k - 1}"
            )
    return base


def _build_plan(m: int, k: int, configuration: Configuration):
    """The search's control flow for one configuration: (span, offset, resume).

    - `span[d]`, d = 0..m: k**(w - q) for the q wildcards at depths <= d,
      the expansions that a walk ending at depth d decides at once;
    - `offset[c]`: the wildcard letters of expansion c as a key, which is
      `expansions(k)` with every fixed letter 0, strictly ascending in c;
    - `resume[c]`: the depth m - z of the wildcard that expansion c bumped,
      its least significant nonzero letter (0 for c = 0, the first walk).

    Offsets and resume depths are built by list doubling like
    `expansions`, least significant wildcard first: each further letter
    of the next wildcard repeats the block so far, and the block's first
    expansion is the one that bumps it.
    """
    offset = [0]
    resume = [0]
    for z in configuration:
        weight = k ** (z - 1)
        offset += [x + a * weight for a in range(1, k) for x in offset]
        resume += ([m - z] + resume[1:]) * (k - 1)
    # the wildcards at depths <= d are those at positions z >= m - d, so
    # span[d] = k**q for the q wildcards below m - d; q only falls as d
    # grows, past each wildcard in turn from the most significant
    span = []
    q = len(configuration)
    for d in range(m + 1):
        while q and configuration[q - 1] >= m - d:
            q -= 1
        span.append(k**q)
    return tuple(span), tuple(offset), tuple(resume)


# one memo for the whole process; backtracking_query sends it only plans
# of at most MAX_CACHED_EXPANSIONS expansions
_cached_plan = lru_cache(maxsize=PLAN_CACHE_SIZE)(_build_plan)


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

    When k = 2**b, each letter is a b-bit field of the key, so a stored
    key x shares exactly m - ceil((x ^ t).bit_length() / b) letters with
    t: the highest differing bit lies in the letter that ends the prefix.
    L then takes one xor and one `bit_length` per neighbour. Any other k
    finds L by comparing x // k**j with t // k**j for growing j.

    Everything else comes from the configuration's plan (`_build_plan`):
    decision c targets t = base + offset[c], a walk ending at depth L
    moves c on by span[L], and the next walk resumes at resume[c]. The
    targets ascend with c, so each bisect starts at the last one's index.
    Plans of at most MAX_CACHED_EXPANSIONS expansions come from an
    `lru_cache` of PLAN_CACHE_SIZE entries, which keeps its own state
    consistent under concurrent queries; a larger one is built for the
    call alone.
    """
    k, m = trie.k, trie.m
    base = _check_pattern(pattern, m, k)
    configuration = pattern.configuration
    total = k ** len(configuration)
    plan = _cached_plan if total <= MAX_CACHED_EXPANSIONS else _build_plan
    span, offset, resume_at = plan(m, k, configuration)
    keys = trie.keys
    n_keys = len(keys)
    # b = bits per letter when k is a power of two, else 0
    b = k.bit_length() - 1 if k & (k - 1) == 0 else 0
    if b:
        bm = b * m
    else:
        # power[j] = keys under one node at depth m - j; a key x agrees
        # with t on the first m - j letters exactly when
        # x // power[j] == t // power[j]
        power = [k**j for j in range(m + 1)]
    per_key = [0] * total
    matches: set[int] = set()
    c = i = last = resume = 0

    while True:
        t = base + offset[c]
        i = bisect_left(keys, t, i)
        if i < n_keys and keys[i] == t:
            depth = m
            matches.add(t)
        elif b:
            # the fewest trailing bits in which a neighbour differs from t,
            # b * m when there is none; the walk stops m - ceil(bits / b)
            # letters down
            bits = bm
            if i < n_keys:
                bits = (keys[i] ^ t).bit_length()
            if i:
                below = (keys[i - 1] ^ t).bit_length()
                if below < bits:
                    bits = below
            depth = (bm - bits) // b
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
        # the climb from the last walk's end to the resume depth, then
        # the walk down from there
        per_key[c] = last + depth - 2 * resume
        c += span[depth]
        if c == total:
            break
        resume = resume_at[c]
        last = depth

    return _new(QueryResult, (frozenset(matches), sum(per_key), tuple(per_key)))


def brute_force_query(trie: Trie, pattern: QueryPattern) -> set[int]:
    """Oracle: test every expansion with a plain membership search.

    Shares no traversal state with backtracking_query.
    """
    _check_pattern(pattern, trie.m, trie.k)
    w = len(pattern.configuration)
    if trie.k**w > MAX_EXPANSIONS:
        raise SizeLimitError(
            f"{trie.k ** w} expansions exceed the limit {MAX_EXPANSIONS}"
        )
    return {key for key in pattern.expansions(trie.k) if trie.contains(key)}


def sample_configuration(m: int, w: int, rng: random.Random) -> Configuration:
    """Uniformly random w-subset of positions 1..m, drawn from `rng`.

    The draws are a contract: the result and the bits taken from `rng`
    are those of `tuple(sorted(rng.sample(range(1, m + 1), w)))`. The
    function inlines the rule CPython's `sample` follows, with
    `randbelow(x)` redrawing `getrandbits(x.bit_length())` until the
    result is below x. When m is at most `setsize`, the pick number i
    takes the index randbelow(m - i) into a pool whose last unpicked
    entry then fills the hole; otherwise each pick redraws randbelow(m)
    until it hits an unpicked index. The oracle tests in
    tests/test_wildcard.py replay `rng.sample` and pin both branches.
    """
    if not (type(m) is int and type(w) is int):
        refuse_non_int(m=m, w=w)
    if not 0 <= w <= m:
        raise ValueError(f"need 0 <= w <= m, got w={w}, m={m}")
    getrandbits = rng.getrandbits
    setsize = 21  # sample's own size rule, float log included
    if w > 5:
        setsize += 4 ** math.ceil(math.log(w * 3, 4))
    if m <= setsize:
        pool = list(range(1, m + 1))
        picked = []
        for x in range(m, m - w, -1):
            bits = x.bit_length()
            j = getrandbits(bits)
            while j >= x:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[x - 1]
        picked.sort()
        return tuple(picked)
    bits = m.bit_length()
    taken: set[int] = set()
    for _ in range(w):
        j = getrandbits(bits)
        while j >= m or j in taken:
            j = getrandbits(bits)
        taken.add(j)
    return tuple(sorted(j + 1 for j in taken))


def enumerate_configurations(m: int, w: int) -> list[Configuration]:
    """All w-subsets of positions 1..m in lexicographic order."""
    if not (type(m) is int and type(w) is int):
        refuse_non_int(m=m, w=w)
    if not 0 <= w <= m:
        raise ValueError(f"need 0 <= w <= m, got w={w}, m={m}")
    if math.comb(m, w) > MAX_CONFIGURATIONS:
        raise SizeLimitError(
            f"C({m},{w}) = {math.comb(m, w)} configurations exceed "
            f"{MAX_CONFIGURATIONS}"
        )
    return list(itertools.combinations(range(1, m + 1), w))


def random_pattern(m: int, w: int, k: int, rng: random.Random) -> QueryPattern:
    """Random configuration plus uniform random fixed letters.

    The draws are a contract: `sample_configuration(m, w, rng)`, then one
    `rng.randrange(k)` per fixed letter, left to right. The letters inline
    `randrange`'s rule, redrawing `getrandbits(k.bit_length())` until the
    result is below k. The pattern's `configuration` holds the drawn
    positions, so callers need not scan for them.
    """
    if type(k) is not int:
        refuse_non_int(k=k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    positions = sample_configuration(m, w, rng)
    getrandbits = rng.getrandbits
    bits = k.bit_length()
    letters: list[int | None] = []
    for _ in range(m - w):
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        letters.append(r)
    # a wildcard at position z sits at index m - z
    for z in reversed(positions):
        letters.insert(m - z, None)
    pattern = QueryPattern(tuple(letters))
    pattern.__dict__["configuration"] = positions
    return pattern
