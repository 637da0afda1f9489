import itertools
import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildquery.analysis import config_step_bound
from wildquery.errors import PatternShapeError, SizeLimitError
from wildquery.trie import Trie, complete_trie, random_trie
from wildquery.wildcard import (
    MAX_CACHED_EXPANSIONS,
    PLAN_CACHE_SIZE,
    QueryPattern,
    QueryResult,
    _build_plan,
    _cached_plan,
    _check_pattern,
    backtracking_query,
    brute_force_query,
    enumerate_configurations,
    random_pattern,
    sample_configuration,
)


def edge_walk_query(trie: Trie, pattern: QueryPattern) -> QueryResult:
    """Reference search: the per-edge walk that backtracking_query replaced.

    It tests each child on the path with its own bisect and counts steps
    edge by edge, so it shares no shortcut with the per-decision search.
    """
    k, m = trie.k, trie.m
    _check_pattern(pattern, m, k)
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


def steps_by_levels(trie: Trie, pattern: QueryPattern) -> int:
    """Steps of the backtracking search as 2*V - D, counted level by level.

    V is the number of trie nodes below the root that exist and agree with
    the pattern; D is the depth the last expansion (every wildcard at k-1)
    reaches. Each step down enters a new node of V, each climb re-crosses
    one of those edges once, and the last path is never climbed back.
    """
    k, m, sym = trie.k, trie.m, pattern.symbols
    words = [
        tuple(key // k ** (m - 1 - i) % k for i in range(m)) for key in trie.keys
    ]
    last = tuple(k - 1 if s is None else s for s in sym)
    nodes = reached = 0
    for d in range(1, m + 1):
        level = {
            word[:d]
            for word in words
            if all(s is None or s == a for s, a in zip(sym[:d], word))
        }
        nodes += len(level)
        if last[:d] in level:
            reached = d
    return 2 * nodes - reached


def sample_oracle(m: int, w: int, rng: random.Random):
    """`sample_configuration` before it inlined `Random.sample`."""
    return tuple(sorted(rng.sample(range(1, m + 1), w)))


def random_pattern_oracle(m: int, w: int, k: int, rng: random.Random):
    """`random_pattern` before it inlined its draws: the sample, then one
    `randrange(k)` per fixed letter, through `from_configuration`."""
    positions = sample_oracle(m, w, rng)
    letters = [rng.randrange(k) for _ in range(m - w)]
    return QueryPattern.from_configuration(m, positions, letters)


class TestPattern:
    def test_parse_and_positions(self):
        pattern = QueryPattern.from_string("1*0*0")
        assert pattern.m == 5
        # leftmost letter sits at position m; wildcards land at 4 and 2
        assert pattern.configuration == (2, 4)
        assert pattern.symbols == (1, None, 0, None, 0)

    def test_from_configuration_with_letter_sequence(self):
        pattern = QueryPattern.from_configuration(4, (1, 3), [2, 0])
        assert pattern.symbols == (2, None, 0, None)

    def test_expansions_counting_order(self):
        pattern = QueryPattern.from_string("*0*")
        # least significant wildcard cycles fastest
        assert list(pattern.expansions(2)) == [0b000, 0b001, 0b100, 0b101]
        ternary = QueryPattern.from_string("*1")
        assert list(ternary.expansions(3)) == [1, 4, 7]

    def test_expansions_refuse_an_alphabet_below_one_letter(self):
        # k = 0 or -1 gave one key for a pattern with a wildcard
        pattern = QueryPattern.from_string("*0*")
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"need k >= 1, got {k}"):
                pattern.expansions(k)

    @pytest.mark.parametrize(
        "text, k, letter",
        [("2*", 2, 2), ("*3", 3, 3), ("0*9", 4, 9), ("1", 1, 1)],
    )
    def test_expansions_refuse_a_letter_outside_the_alphabet(self, text, k, letter):
        # "2*" with k = 2 gave [4, 5], both outside the key space [0, 4)
        pattern = QueryPattern.from_string(text)
        with pytest.raises(
            PatternShapeError,
            match=rf"pattern letter {letter} outside alphabet 0\.\.{k - 1}",
        ):
            pattern.expansions(k)

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
        # str.isdigit() passes "²" and "٣": int() broke on the first and
        # read the second as letter 3
        for text in ("1*x", "1\u00b20", "1\u06630"):
            with pytest.raises(PatternShapeError):
                QueryPattern.from_string(text)

    @pytest.mark.parametrize(
        "letters", [[1], [1, 0, 1, 1, 1], []], ids=["short", "long", "empty"]
    )
    def test_fixed_letter_count_must_fit(self, letters):
        # m=4 with one wildcard takes exactly three fixed letters
        with pytest.raises(PatternShapeError):
            QueryPattern.from_configuration(4, (1,), letters)

    @pytest.mark.parametrize(
        "letters", [1.5, None, object()], ids=["float", "none", "object"]
    )
    def test_fixed_letters_that_are_no_int_or_sequence(self, letters):
        with pytest.raises(PatternShapeError):
            QueryPattern.from_configuration(4, (1,), letters)

    @pytest.mark.parametrize(
        "symbols", [(1.5, None), (1, None, True), (-1, None), ("1", None)]
    )
    def test_letters_must_be_non_negative_ints(self, symbols):
        with pytest.raises(PatternShapeError):
            QueryPattern(symbols)

    def test_int_subclass_letters(self):
        # the exact-int fast test fails them, the isinstance check decides
        class Letter(int):
            pass

        assert QueryPattern((Letter(1), None)).symbols == (1, None)
        with pytest.raises(PatternShapeError, match=r"int >= 0: -1"):
            QueryPattern((Letter(-1), None))
        with pytest.raises(PatternShapeError, match=r"int >= 0: True"):
            QueryPattern((1, None, True))

    def test_symbols_are_kept_as_a_tuple(self):
        # a list was stored as given: hash() raised, and a later edit to
        # the caller's list changed the pattern
        letters = [0, None]
        pattern = QueryPattern(letters)
        letters[0] = 1
        assert pattern.symbols == (0, None)
        assert pattern == QueryPattern((0, None))
        assert hash(pattern) == hash(QueryPattern((0, None)))
        symbols = (1, None)
        assert QueryPattern(symbols).symbols is symbols

    def test_equality_and_hash_go_by_symbols(self):
        a, b = QueryPattern.from_string("1*0"), QueryPattern((1, None, 0))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, QueryPattern.from_string("1*1")}) == 2
        assert a != QueryPattern.from_string("1*1")
        # only patterns compare equal to patterns
        assert a != (1, None, 0)
        assert a.__eq__((1, None, 0)) is NotImplemented

    def test_repr_names_the_symbols(self):
        assert repr(QueryPattern.from_string("1*")) == "QueryPattern(symbols=(1, None))"

    def test_patterns_are_immutable(self):
        pattern = QueryPattern.from_string("1*0")
        with pytest.raises(AttributeError):
            pattern.symbols = (0, None, 0)
        with pytest.raises(AttributeError):
            pattern.configuration = (1,)
        with pytest.raises(AttributeError):
            del pattern.symbols
        with pytest.raises(AttributeError):
            pattern.other = 1
        assert pattern.symbols == (1, None, 0)
        # the cached configuration still fills on first read
        assert pattern.configuration == (2,)
        assert vars(pattern) == {"symbols": (1, None, 0), "configuration": (2,)}


class TestConfigurations:
    def test_enumerate_all(self):
        assert enumerate_configurations(3, 2) == [(1, 2), (1, 3), (2, 3)]
        assert enumerate_configurations(4, 1) == [(1,), (2,), (3,), (4,)]
        assert len(enumerate_configurations(10, 4)) == 210

    def test_enumerate_limit(self):
        with pytest.raises(SizeLimitError):
            enumerate_configurations(30, 15)  # C(30, 15) > 2**20

    def test_sample_degenerate_cases(self):
        assert sample_configuration(5, 5, random.Random(0)) == (1, 2, 3, 4, 5)
        assert sample_configuration(5, 0, random.Random(0)) == ()

    def test_sample_deterministic(self):
        assert sample_configuration(12, 4, random.Random(7)) == (
            sample_configuration(12, 4, random.Random(7))
        )

    def test_sample_rejects_bad_w(self):
        with pytest.raises(ValueError):
            sample_configuration(3, 4, random.Random(0))

    def test_sample_makes_the_rng_sample_draws(self):
        # every 0 <= w <= m <= 64, which takes sample's pool branch (m at
        # most setsize) and its set branch (w <= 5 and m > 21); the same
        # positions, and the same bits left in the generator
        pool = 0
        for m in range(65):
            for w in range(m + 1):
                setsize = 21 + (4 ** math.ceil(math.log(w * 3, 4)) if w > 5 else 0)
                pool += m <= setsize
                for seed in (m * 65 + w, f"{m}|{w}"):
                    ref, fast = random.Random(seed), random.Random(seed)
                    assert sample_configuration(m, w, fast) == sample_oracle(m, w, ref)
                    assert fast.getstate() == ref.getstate(), (m, w)
        assert 0 < pool < 65 * 66 // 2

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



class TestRandomPattern:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_makes_the_sample_and_randrange_draws(self, k):
        # 2,000 seeds per shape: pool and set branches of the sample, no
        # wildcards, no fixed letters, and the two perfbench trie and ring
        # shapes; the same pattern, and the same bits left in the generator
        shapes = [(1, 0), (1, 1), (6, 6), (12, 4), (16, 4), (20, 5),
                  (30, 3), (64, 10)]
        for m, w in shapes:
            for seed in range(2000):
                ref, fast = random.Random(seed), random.Random(seed)
                pattern = random_pattern(m, w, k, fast)
                assert pattern == random_pattern_oracle(m, w, k, ref), (m, w, seed)
                assert fast.getstate() == ref.getstate(), (m, w, seed)
                scanned = QueryPattern(pattern.symbols).configuration
                assert pattern.configuration == scanned

    def test_configuration_without_a_draw_is_scanned(self):
        pattern = QueryPattern.from_string("*10*1*")
        assert pattern.configuration == (1, 3, 6)

    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_an_alphabet_it_cannot_draw_from(self, k):
        # the inlined redraw loop would never end on k = 0
        with pytest.raises(ValueError):
            random_pattern(4, 1, k, random.Random(0))


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
        with pytest.raises(PatternShapeError, match="does not match key length"):
            backtracking_query(trie, QueryPattern.from_string("**"))
        with pytest.raises(PatternShapeError, match="outside alphabet 0..1"):
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
        bound = config_step_bound(m, w, pattern.configuration, k)
        assert result.steps <= bound

    def test_brute_force_empty_trie(self):
        trie = Trie(2, 4)
        assert brute_force_query(trie, QueryPattern.from_string("1**0")) == set()

    def test_brute_force_complete_trie_all_match(self):
        trie = complete_trie(2, 4)
        pattern = QueryPattern.from_string("1**0")
        assert len(brute_force_query(trie, pattern)) == 4

    def test_brute_force_expansion_limit(self):
        # 2**13 expansions, past the 2**12 limit, refused before the first
        trie = complete_trie(2, 13)
        pattern = QueryPattern.from_string("*" * 13)
        with pytest.raises(SizeLimitError):
            brute_force_query(trie, pattern)


def _draw_trie(data, k: int, m: int) -> Trie:
    kinds = ["empty", "sparse", "random", "inserted", "complete"]
    kind = data.draw(st.sampled_from(kinds))
    space = k**m
    if kind == "complete":
        return complete_trie(k, m)  # keys are a range
    if kind == "inserted":
        trie = Trie(k, m)
        for key in data.draw(st.lists(st.integers(0, space - 1), max_size=12)):
            trie.insert(key)
        return trie
    if kind == "empty":
        population = 0
    elif kind == "sparse":
        population = data.draw(st.integers(1, min(space, 6)))
    else:
        population = data.draw(st.integers(0, space))
    return random_trie(k, m, population, seed=data.draw(st.integers(0, 2**20)))


class TestPerDecisionSearch:
    """backtracking_query against the per-edge walk and the 2V - D count."""

    # k = 2, 4 and 8 take the xor bit-length arm (b = 1, 2, 3 bits per
    # letter), k = 3 and 5 the division arm
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_edge_walk_and_level_count(self, k, data):
        m = data.draw(st.integers(1, {2: 8, 3: 5, 4: 4, 5: 4, 8: 3}[k]))
        trie = _draw_trie(data, k, m)
        w = data.draw(st.integers(0, m))
        rng = random.Random(data.draw(st.integers(0, 2**20)))
        pattern = random_pattern(m, w, k, rng)

        result = backtracking_query(trie, pattern)
        want = edge_walk_query(trie, pattern)
        assert result.matches == want.matches
        assert result.steps == want.steps
        assert result.per_key_steps == want.per_key_steps
        assert result.steps == steps_by_levels(trie, pattern)

    # k = 4 letters are 2-bit fields; t = 0b10_01_10 spells "212", and each
    # stored key differs from it first in the low bit of one letter, so
    # its xor has an odd bit length and the walk stops above that letter
    @pytest.mark.parametrize(
        "keys,text,steps,per_key",
        [
            ([0b10_01_11], "212", 2, (2,)),  # last letter
            ([0b10_00_10], "212", 1, (1,)),  # middle letter
            ([0b11_01_10], "212", 0, (0,)),  # first letter
            ([0b10_00_10, 0b10_01_11], "212", 2, (2,)),  # one each side
            (
                [0b10_00_10, 0b10_01_11, 0b00_01_11],
                "2**",
                9,
                (2, 0, 1, 1, 2, 0, 0, 1, 2) + (0,) * 7,
            ),
        ],
    )
    def test_neighbour_off_by_the_low_bit_of_a_letter(
        self, keys, text, steps, per_key
    ):
        trie = Trie(4, 3)
        for key in keys:
            trie.insert(key)
        pattern = QueryPattern.from_string(text)
        result = backtracking_query(trie, pattern)
        assert result == edge_walk_query(trie, pattern)
        assert (result.steps, result.per_key_steps) == (steps, per_key)
        assert result.steps == steps_by_levels(trie, pattern)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_binary_trie_against_every_pattern(self, m):
        patterns = [
            QueryPattern(symbols)
            for symbols in itertools.product((0, 1, None), repeat=m)
        ]
        for subset in range(1 << (1 << m)):
            trie = Trie(2, m)
            trie.keys = [key for key in range(1 << m) if subset >> key & 1]
            for pattern in patterns:
                result = backtracking_query(trie, pattern)
                assert result == edge_walk_query(trie, pattern)
                assert result.steps == steps_by_levels(trie, pattern)
                assert result.matches == brute_force_query(trie, pattern)


def _third_full_trie(k: int, m: int, seed: int) -> Trie:
    return random_trie(k, m, k**m // 3, seed=seed)


class TestSearchPlan:
    """The per-configuration tables and their bounded memo."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tables_against_their_definitions(self, k):
        m = {2: 6, 3: 4, 4: 3}[k]
        rng = random.Random(k)
        for w in range(m + 1):
            for positions in enumerate_configurations(m, w):
                letters = [rng.randrange(k) for _ in range(m - w)]
                pattern = QueryPattern.from_configuration(m, positions, letters)
                base = _check_pattern(pattern, m, k)
                span, offset, resume = _build_plan(m, k, positions)
                # the targets are the expansions, strictly ascending, which
                # the bisect hint relies on
                assert [base + x for x in offset] == list(pattern.expansions(k))
                assert all(a < b for a, b in zip(offset, offset[1:]))
                for d in range(m + 1):
                    assigned = sum(m - z <= d for z in positions)
                    assert span[d] == k ** (w - assigned)
                assert resume[0] == 0
                for c in range(1, k**w):
                    rank = 0  # the least significant nonzero letter of c
                    while c // k**rank % k == 0:
                        rank += 1
                    assert resume[c] == m - positions[rank]

    @pytest.mark.parametrize("k", [2, 3])
    def test_span_equals_the_per_depth_count(self, k):
        # the one-index span against the expression it replaced, which
        # counted the wildcards below m - d afresh at every depth
        for m in range(1, 11):
            for w in range(m + 1):
                for positions in enumerate_configurations(m, w):
                    span = _build_plan(m, k, positions)[0]
                    assert span == tuple(
                        k ** sum(z < m - d for z in positions)
                        for d in range(m + 1)
                    ), (m, positions)

    def test_cold_and_warm_cache_agree(self):
        trie = _third_full_trie(2, 8, 5)
        pattern = QueryPattern.from_string("1*0**1*0")
        _cached_plan.cache_clear()
        cold = backtracking_query(trie, pattern)
        assert _cached_plan.cache_info().misses == 1
        warm = backtracking_query(trie, pattern)
        assert _cached_plan.cache_info().hits == 1
        assert cold == warm == edge_walk_query(trie, pattern)

    def test_same_configuration_at_two_alphabets(self):
        # a cache key that dropped k would hand the k=3 query a binary plan
        m, positions = 5, (1, 3, 4)
        _cached_plan.cache_clear()
        for k in (2, 3):
            trie = _third_full_trie(k, m, k)
            pattern = QueryPattern.from_configuration(m, positions, [1, 0])
            assert backtracking_query(trie, pattern) == edge_walk_query(trie, pattern)
        assert _cached_plan.cache_info().currsize == 2

    def test_large_pattern_bypasses_the_cache(self):
        k, m, w = 2, 8, 7
        assert k**w > MAX_CACHED_EXPANSIONS
        trie = _third_full_trie(k, m, 11)
        before = _cached_plan.cache_info()
        for positions in enumerate_configurations(m, w):
            pattern = QueryPattern.from_configuration(m, positions, 1)
            assert backtracking_query(trie, pattern) == edge_walk_query(trie, pattern)
        assert _cached_plan.cache_info() == before

    def test_cache_stays_within_its_bound(self):
        # C(14, 5) = 2002 configurations of 32 expansions, each cached
        k, m, w = 2, 14, 5
        assert k**w <= MAX_CACHED_EXPANSIONS
        trie = random_trie(k, m, 200, seed=3)
        _cached_plan.cache_clear()
        for n, positions in enumerate(enumerate_configurations(m, w), 1):
            backtracking_query(trie, QueryPattern.from_configuration(m, positions))
            info = _cached_plan.cache_info()
            assert info.maxsize == PLAN_CACHE_SIZE
            assert info.currsize == min(n, PLAN_CACHE_SIZE)
