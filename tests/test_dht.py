import random
from collections import Counter

import pytest

from wildquery.analysis import config_step_bound
from wildquery.dht import (
    ENTRY_BOUND,
    FULL,
    MAX_RING_BITS,
    ChordNetwork,
    build_network,
)
from wildquery.errors import PatternShapeError, SizeLimitError
from wildquery.wildcard import QueryPattern, sample_configuration


def randrange_fill(net, count, seed):
    """The ring fill as first written, kept as the oracle for its draws:
    per entry one randrange(n) for the node, then one randrange(arc)."""
    rng = random.Random(seed)
    n, size = net.n, net.size
    keys = net.node_keys
    loads = [0] * n
    stored = Counter()
    for _ in range(count):
        addr = rng.randrange(n)
        arc = (keys[addr] - keys[addr - 1]) % size
        stored[(keys[addr - 1] + 1 + rng.randrange(arc)) % size] += 1
        loads[addr] += 1
    return loads, stored


def below_by_redraw(getrandbits, x):
    """The rule the ring fill inlines for randrange(x)."""
    bits = x.bit_length()
    r = getrandbits(bits)
    while r >= x:
        r = getrandbits(bits)
    return r


class TestConstruction:
    def test_two_node_ring(self):
        net = build_network(2, 2, seed=1)
        k0, k1 = net.node_keys
        lines = net.snapshot().splitlines()[1:]
        assert f"succ={k1} pred={k1}" in lines[0]
        assert f"succ={k0} pred={k0}" in lines[1]
        # each node neighbors the other, so every owner is reached in place
        for d in range(net.size):
            for start in range(net.n):
                assert net.lookup(d, start).hops == 0

    def test_node_keys_distinct_sorted(self):
        net = build_network(50, 10, seed=3)
        assert net.node_keys == sorted(set(net.node_keys))
        assert len(net.loads) == len(net.fingers) == net.n == 50

    def test_deterministic_given_seed(self):
        a = build_network(20, 8, seed=5)
        b = build_network(20, 8, seed=5)
        assert a.node_keys == b.node_keys
        assert a.snapshot() == b.snapshot()

    def test_injection_limit(self):
        with pytest.raises(ValueError):
            build_network(9, 3, seed=0)

    def test_full_mode_has_every_finger(self):
        net = build_network(16, 8, seed=7)
        for addr in range(net.n):
            assert all(f is not None for f in net.fingers[addr])

    @staticmethod
    def assert_fingers_match_ring_scan(net):
        # finger i exists iff the node is granted it, and then points at
        # the node found by scanning the whole ring for the nearest key
        for addr in range(net.n):
            key = net.node_keys[addr]
            granted = net.m if net.finger_mode == FULL else min(
                net.m, net.loads[addr]
            )
            assert len(net.fingers[addr]) == net.m
            for i, finger in enumerate(net.fingers[addr], start=1):
                if i > granted:
                    assert finger is None
                    continue
                target = (key + (1 << (i - 1))) % net.size
                want = min(
                    range(net.n),
                    key=lambda a: (net.node_keys[a] - target) % net.size,
                )
                assert finger == want

    def test_fingers_match_ring_scan_oracle(self):
        self.assert_fingers_match_ring_scan(build_network(40, 10, seed=5))
        net = build_network(40, 10, seed=5, finger_mode=ENTRY_BOUND)
        # refills of one ring at growing loads: no fingers at 0, then
        # more nodes granted more fingers, up to a mean load past m
        for count in range(0, 601, 20):
            net.distribute_entries(count, seed=count)
            self.assert_fingers_match_ring_scan(net)
            # the refill's rebuild must equal a rebuild of a fresh ring
            fresh = ChordNetwork(net.m, net.node_keys, ENTRY_BOUND)
            fresh.loads = list(net.loads)
            for addr in range(net.n):
                fresh._build_table(addr)
            assert fresh.fingers == net.fingers
            assert fresh._table_addrs == net._table_addrs
            assert fresh._table_offs == net._table_offs


class TestEntries:
    def test_entry_bound_with_no_entries_has_no_fingers(self):
        net = build_network(10, 8, seed=2, finger_mode=ENTRY_BOUND)
        for addr in range(net.n):
            assert net.fingers[addr] == (None,) * net.m
        for line in net.snapshot().splitlines()[1:]:
            assert " fingers= entries=0" in line

    def test_entry_bound_finger_rule(self):
        net = build_network(16, 10, seed=4, finger_mode=ENTRY_BOUND)
        net.distribute_entries(100, seed=9)
        for addr in range(net.n):
            granted = sum(1 for f in net.fingers[addr] if f is not None)
            assert granted == min(net.m, net.loads[addr])

    def test_entries_live_at_successor_of_their_key(self):
        net = build_network(12, 9, seed=6)
        net.distribute_entries(400, seed=7)
        # replay the documented draws: a uniform node, then a uniform key
        # in its arc (predecessor key, node key]
        rng = random.Random(7)
        want = [0] * net.n
        want_stored = Counter()
        stored = set(net.stored_keys())
        for _ in range(400):
            addr = rng.randrange(net.n)
            lo, hi = net.node_keys[addr - 1], net.node_keys[addr]
            d = (lo + 1 + rng.randrange((hi - lo) % net.size)) % net.size
            assert net.successor_of(d) == addr
            assert d in stored
            want[addr] += 1
            want_stored[d] += 1
        assert net.loads == want
        assert net._stored == want_stored
        assert sum(net.loads) == 400

    @pytest.mark.parametrize("mode", [FULL, ENTRY_BOUND])
    @pytest.mark.parametrize(
        "n, m",
        # n=2 and n=64 are powers of two, where randrange(n) rejects about
        # half its draws; on the m=1 ring every arc is 1, so randrange(1)
        [(2, 1), (2, 8), (3, 6), (64, 12), (1000, 16)],
    )
    def test_fill_makes_the_randrange_draws(self, n, m, mode):
        net = build_network(n, m, seed=n + m, finger_mode=mode)
        # each fill replaces the last on the same ring
        for count, seed in ((3 * n, 0), (0, 1), (40 * n, "5|entries|2"), (n, 9)):
            net.distribute_entries(count, seed)
            loads, stored = randrange_fill(net, count, seed)
            assert net.loads == loads
            assert net._stored == stored
            assert net.stored_keys() == sorted(stored)
            if mode == ENTRY_BOUND and n <= 64:  # the scan oracle is O(n^2 m)
                TestConstruction.assert_fingers_match_ring_scan(net)

    def test_per_node_mean_is_exact_and_spread_is_binomial(self):
        net = build_network(64, 12, seed=8)
        count = 6400
        net.distribute_entries(count, seed=9)
        loads = net.loads
        assert sum(loads) == count
        mean = count / net.n
        # one fixed node's load is Binomial(count, 1/n)
        sigma = (count * (1 / net.n) * (1 - 1 / net.n)) ** 0.5
        assert abs(loads[0] - mean) <= 4 * sigma

    def test_heavily_loaded_ring_rarely_misses_full_finger_entry_counts(self):
        # N = 8*m*n gives every node ~8m entries; nodes under m entries
        # (too few for a full entry-bound table) should be essentially absent
        m, n = 16, 256
        net = build_network(n, m, seed=31, finger_mode=ENTRY_BOUND)
        net.distribute_entries(8 * m * n, seed=32)
        light = sum(1 for load in net.loads if load < m)
        assert light / n < 0.01


def test_cpython_randrange_still_redraws_getrandbits_below_bound():
    # The ring fill assumes Random.randrange(x) is CPython's
    # _randbelow_with_getrandbits: redraw getrandbits(x.bit_length())
    # until the result is below x. If this fails, a new Python changed
    # that rule, and the fill and every ring digest must follow it.
    for seed in (0, 7, "3|entries|1"):
        ref, rule = random.Random(seed), random.Random(seed)
        for x in range(1, 4097):
            assert ref.randrange(x) == below_by_redraw(rule.getrandbits, x), x
        for x in (4099, 65535, 65536, 65537, 10**6 + 3, (1 << 23) + 1,
                  (1 << 24) - 1, 1 << MAX_RING_BITS):
            for _ in range(20):
                assert ref.randrange(x) == below_by_redraw(rule.getrandbits, x)
        # both streams consumed the same bits
        assert ref.getstate() == rule.getstate()


class TestLookup:
    def test_own_key_zero_hops(self):
        net = build_network(32, 8, seed=9)
        net.distribute_entries(50, seed=1)
        d = net.stored_keys()[0]
        owner = net.successor_of(d)
        out = net.lookup(d, owner)
        assert out.found and out.hops == 0 and not out.error_case

    def test_full_mode_exhaustive_sweep(self):
        net = build_network(32, 8, seed=9)
        net.distribute_entries(100, seed=10)
        stored = set(net.stored_keys())
        for d in range(net.size):
            t = net.successor_of(d)
            tkey = net.node_keys[t]
            truth = d in stored
            for start in range(net.n):
                out = net.lookup(d, start)
                assert out.correct and not out.error_case
                assert out.found == truth
                assert out.hops <= net.m
                assert out.hops == len(out.path) - 1
                dists = [
                    (tkey - net.node_keys[a]) % net.size for a in out.path
                ]
                for prev, nxt in zip(dists, dists[1:]):
                    assert nxt <= prev // 2

    def test_lookup_deterministic(self):
        net = build_network(100, 12, seed=3)
        net.distribute_entries(500, seed=4)
        a = net.lookup(1234, 17)
        b = net.lookup(1234, 17)
        assert a == b

    def test_reject_policy_answers_absent_on_stall(self):
        net = build_network(24, 8, seed=3, finger_mode=ENTRY_BOUND)
        net.distribute_entries(1, seed=3)  # one node gets one finger
        (d,) = net.stored_keys()
        outcomes = [net.lookup(d, start) for start in range(net.n)]
        stalled = [out for out in outcomes if out.error_case]
        assert stalled, "expected at least one stall without fingers"
        for out in stalled:
            assert not out.found and not out.correct

    @pytest.mark.parametrize(
        "count", [0, 3 * 24, 8 * 24], ids=["no-entries", "few", "m-times-n"]
    )
    def test_lookup_hops_bounded_by_m(self, count):
        # entry-bound rings with no entries (so no fingers, only ring
        # neighbors), a few per node, and m*n: every (d, start) pair must
        # stop within m hops, each hop shortening the bit length of the
        # remaining distance
        m, n = 8, 24
        net = build_network(n, m, seed=3, finger_mode=ENTRY_BOUND)
        net.distribute_entries(count, seed=4)
        stored = set(net.stored_keys())
        errors = 0
        for d in range(net.size):
            tkey = net.node_keys[net.successor_of(d)]
            for start in range(net.n):
                out = net.lookup(d, start)
                assert out.hops <= m
                bits = [
                    ((tkey - net.node_keys[a]) % net.size).bit_length()
                    for a in out.path
                ]
                assert all(nxt < prev for prev, nxt in zip(bits, bits[1:]))
                if out.error_case:
                    errors += 1
                    assert not out.found
                else:
                    assert out.correct and out.found == (d in stored)
        if count == 0:
            assert errors, "a ring without fingers must stall somewhere"

    @staticmethod
    def scan_route(net, start, t):
        """Route to owner t with the hop scan `lookup` once ran.

        Candidates are the ring neighbors and the granted fingers; the hop
        goes to the one strictly nearest the owner, and a hop that does
        not shorten the distance's bit length is the error case.
        Returns (path, error_case).
        """
        keys, mask, n = net.node_keys, net.size - 1, net.n
        tkey = keys[t]
        a = start
        path = [a]
        while a != t and (a + 1) % n != t:
            dist = (tkey - keys[a]) & mask
            candidates = {(a + 1) % n, (a - 1) % n}
            candidates.update(f for f in net.fingers[a] if f is not None)
            candidates.discard(a)
            best, best_dist = a, dist
            for u in candidates:
                du = (tkey - keys[u]) & mask
                if du < best_dist:
                    best, best_dist = u, du
            if best_dist.bit_length() >= dist.bit_length():
                return path, True
            a = best
            path.append(a)
        return path, False

    def assert_bisect_matches_scan(self, net):
        keys, mask = net.node_keys, net.size - 1
        for a in range(net.n):
            addrs, offs = net._table_addrs[a], net._table_offs[a]
            assert len(addrs) == len(offs)
            assert all(x < y for x, y in zip(offs, offs[1:]))
            assert offs == [(keys[u] - keys[a]) & mask for u in addrs]
        for t in range(net.n):
            for start in range(net.n):
                out = net.lookup(keys[t], start)
                assert (list(out.path), out.error_case) == self.scan_route(
                    net, start, t
                )

    def test_bisect_hop_matches_scan_oracle(self):
        net = build_network(40, 10, seed=5)
        net.distribute_entries(200, seed=1)
        self.assert_bisect_matches_scan(net)
        net = build_network(40, 10, seed=5, finger_mode=ENTRY_BOUND)
        # refills at growing loads, from no fingers to a mean load past m
        for count in (0, 40, 80, 120, 200, 280, 400, 480):
            net.distribute_entries(count, seed=count)
            self.assert_bisect_matches_scan(net)

    def test_bad_arguments(self):
        net = build_network(8, 6, seed=1)
        with pytest.raises(ValueError):
            net.lookup(1 << 6, 0)
        with pytest.raises(ValueError):
            net.lookup(5, 99)


class TestWildcardQuery:
    def test_no_wildcards_single_lookup(self):
        net = build_network(64, 10, seed=11)
        net.distribute_entries(300, seed=12)
        pattern = QueryPattern.from_configuration(10, (), 0)
        res = net.wildcard_query(pattern, 5)
        assert list(pattern.expansions(2)) == [0]
        assert len(res.per_key_hops) == 1
        assert res.total_hops <= net.m
        assert res.resolved

    def test_matches_ground_truth_in_full_mode(self):
        net = build_network(128, 10, seed=13)
        net.distribute_entries(2000, seed=14)
        stored = set(net.stored_keys())
        rng = random.Random(15)
        for _ in range(40):
            positions = sample_configuration(10, 3, rng)
            letters = [rng.randrange(2) for _ in range(7)]
            pattern = QueryPattern.from_configuration(10, positions, letters)
            res = net.wildcard_query(pattern, rng.randrange(net.n))
            assert res.resolved
            truth = {d for d in pattern.expansions(2) if d in stored}
            assert res.matches == truth
            assert res.total_hops == sum(res.per_key_hops)

    def test_hop_accounting_against_step_bound(self):
        net = build_network(1 << 9, 14, seed=16)
        net.distribute_entries(4 * 14 * (1 << 9), seed=17)
        rng = random.Random(18)
        for _ in range(60):
            w = rng.choice([2, 3, 4])
            positions = sample_configuration(14, w, rng)
            letters = [rng.randrange(2) for _ in range(14 - w)]
            pattern = QueryPattern.from_configuration(14, positions, letters)
            res = net.wildcard_query(pattern, rng.randrange(net.n))
            keys = list(pattern.expansions(2))
            assert res.resolved
            assert res.total_hops <= config_step_bound(14, w, positions, 2)
            assert res.per_key_hops[0] <= net.m
            for c in range(1, 1 << w):
                flipped = positions[(((c - 1) ^ c).bit_length()) - 1]
                assert res.per_key_hops[c] <= 2 * flipped
                # successive keys differ only at and below the flipped position
                assert (keys[c] ^ keys[c - 1]) < (1 << flipped)

    def test_mean_hops_over_enumerated_configs_under_average_bound(self):
        from wildquery.analysis import mean_step_bound
        from wildquery.wildcard import enumerate_configurations

        net = build_network(256, 10, seed=25)
        net.distribute_entries(2 * 10 * 256, seed=26)
        rng = random.Random(27)
        m, w = 10, 2
        totals = []
        for positions in enumerate_configurations(m, w):
            letters = [rng.randrange(2) for _ in range(m - w)]
            pattern = QueryPattern.from_configuration(m, positions, letters)
            res = net.wildcard_query(pattern, rng.randrange(net.n))
            assert res.resolved
            totals.append(res.total_hops)
        assert sum(totals) / len(totals) <= float(mean_step_bound(m, w, 2))

    def test_protocol_order_is_counting_order(self):
        net = build_network(16, 6, seed=19)
        net.distribute_entries(96, seed=19)
        pattern = QueryPattern.from_string("0*1*0*")
        keys = list(pattern.expansions(2))
        # the least significant wildcard flips fastest
        assert keys == [
            0b001000, 0b001001, 0b001100, 0b001101,
            0b011000, 0b011001, 0b011100, 0b011101,
        ]
        # replay: each key in that order, from where the last lookup ended
        peer, hops, matches = 0, [], set()
        for d in keys:
            out = net.lookup(d, peer)
            hops.append(out.hops)
            if out.found:
                matches.add(d)
            peer = out.path[-1]
        res = net.wildcard_query(pattern, 0)
        assert res.per_key_hops == tuple(hops)
        assert res.matches == matches

    def test_rejects_non_binary_or_misshaped_patterns(self):
        net = build_network(8, 6, seed=20)
        # the trie search raises the same class for the same mistakes
        with pytest.raises(PatternShapeError):
            net.wildcard_query(QueryPattern.from_string("2*0*00"), 0)
        with pytest.raises(PatternShapeError):
            net.wildcard_query(QueryPattern.from_string("***"), 0)
        # 2**13 lookups, past the 2**12 limit, refused before the first
        big = build_network(2, 13, seed=20)
        with pytest.raises(SizeLimitError):
            big.wildcard_query(QueryPattern.from_string("*" * 13), 0)

    def test_deterministic(self):
        net = build_network(64, 10, seed=21)
        net.distribute_entries(500, seed=22)
        pattern = QueryPattern.from_string("01*0*10*10")
        assert net.wildcard_query(pattern, 3) == net.wildcard_query(pattern, 3)


class TestSnapshot:
    def test_format_and_content(self):
        net = build_network(4, 5, seed=23)
        net.distribute_entries(6, seed=24)
        text = net.snapshot()
        lines = text.splitlines()
        assert lines[0] == "# chord ring m=5 n=4 mode=full"
        assert len(lines) == 1 + net.n
        for addr, line in enumerate(lines[1:]):
            assert line.startswith(f"node {addr}: key={net.node_keys[addr]}")
            assert line.endswith(f" entries={net.loads[addr]}")
        assert text.endswith("\n")

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            ChordNetwork(4, [1, 1, 3])
        with pytest.raises(ValueError):
            ChordNetwork(4, [1, 99])
        with pytest.raises(ValueError):
            ChordNetwork(4, [1, 2], finger_mode="sparse")
