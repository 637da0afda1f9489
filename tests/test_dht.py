import itertools
import math
import random
import sys
from bisect import bisect_left, bisect_right
from collections import Counter

import pytest

from wildquery.analysis import config_step_bound
from wildquery.dht import (
    ENTRY_BOUND,
    FULL,
    MAX_RING_BITS,
    ChordNetwork,
    LookupOutcome,
    build_network,
)
from wildquery.errors import PatternShapeError, SizeLimitError
from wildquery.wildcard import (
    QueryPattern,
    enumerate_configurations,
    sample_configuration,
)


def randrange_fill(net, count, seed):
    """The ring fill as first written, kept as the oracle for its draws:
    per entry one randrange(n) for the node, then one randrange(arc)."""
    rng = random.Random(seed)
    n, size = net.n, net.size
    keys = net.node_keys
    loads = [0] * n
    stored = set()
    for _ in range(count):
        addr = rng.randrange(n)
        arc = (keys[addr] - keys[addr - 1]) % size
        stored.add((keys[addr - 1] + 1 + rng.randrange(arc)) % size)
        loads[addr] += 1
    return loads, stored


def below_by_redraw(getrandbits, x):
    """The rule the ring fill inlines for randrange(x)."""
    bits = x.bit_length()
    r = getrandbits(bits)
    while r >= x:
        r = getrandbits(bits)
    return r


def sample_by_rule(getrandbits, n, k):
    """CPython 3.11's Random.sample(range(n), k), written out: the pool
    branch when n <= setsize, else redraws until an unpicked index."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            j = below_by_redraw(getrandbits, n - i)
            result.append(pool[j])
            pool[j] = pool[n - i - 1]
        return result
    selected = set()
    for _ in range(k):
        j = below_by_redraw(getrandbits, n)
        while j in selected:
            j = below_by_redraw(getrandbits, n)
        selected.add(j)
        result.append(j)
    return result


def reference_lookup(self, d, start):
    """`ChordNetwork.lookup` as it stood before its 0-hop exit and inline
    outcome, kept verbatim (with the network as `self`) as its oracle."""
    if not 0 <= d < self.size:
        raise ValueError(f"data key {d} outside the ring")
    if not 0 <= start < self.n:
        raise ValueError(f"bad start node {start!r}")

    keys = self.node_keys
    addrs = self._table_addrs
    offs = self._table_offs
    mask = self.size - 1
    n = self.n

    a = start
    t = bisect_left(keys, d) % n
    tkey = keys[t]
    path = [a]
    error = False
    while a != t and (a + 1) % n != t:
        dist = (tkey - keys[a]) & mask
        j = bisect_right(offs[a], dist) - 1
        if j < 0 or (dist - offs[a][j]).bit_length() >= dist.bit_length():
            error = True  # no table node improves a bit of the distance
            break
        a = addrs[a][j]
        path.append(a)

    truth = d in self._stored
    found = truth and not error
    return LookupOutcome(
        found, found == truth, len(path) - 1, tuple(path), error
    )


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

    @pytest.mark.parametrize(
        "build, args, name",
        [
            # a float key passed the range check, then leaked "unsupported
            # operand type(s) for &" from _build_tables
            (ChordNetwork, (4, [1.5, 3]), "node key"),
            (ChordNetwork, (4, [1, True]), "node key"),
            (ChordNetwork, (4.0, [1, 3]), "ring bits m"),
            # a float n leaked "can't multiply sequence by non-int"
            (build_network, (2.0, 4, 1), "node count n"),
            (build_network, (2, 4.0, 1), "ring bits m"),
            # a float count leaked "'float' object cannot be interpreted
            # as an integer", and True placed one entry
            (build_network(2, 4, 1).distribute_entries, (2.5, 1), "entry count"),
            (build_network(2, 4, 1).distribute_entries, (True, 1), "entry count"),
        ],
        ids=lambda v: v.__name__ if callable(v) else repr(v),
    )
    def test_non_int_ring_input_is_refused_by_name(self, build, args, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            build(*args)

    def test_ring_bits_outside_the_range_are_refused(self):
        for m in (0, MAX_RING_BITS + 1):
            with pytest.raises(ValueError, match=f"got {m}$"):
                ChordNetwork(m, [0, 1])
            with pytest.raises(ValueError, match=f"got {m}$"):
                build_network(2, m, 1)

    def test_full_mode_has_every_finger(self):
        net = build_network(16, 8, seed=7)
        for addr in range(net.n):
            assert all(f is not None for f in net.fingers[addr])

    @staticmethod
    def assert_fingers_match_ring_scan(net):
        # a node holds exactly its granted fingers 1..g, and finger i points
        # at the node found by scanning the whole ring for the nearest key
        for addr in range(net.n):
            key = net.node_keys[addr]
            granted = net.m if net.finger_mode == FULL else min(
                net.m, net.loads[addr]
            )
            assert len(net.fingers[addr]) == granted
            for i, finger in enumerate(net.fingers[addr], start=1):
                target = (key + (1 << (i - 1))) % net.size
                want = min(
                    range(net.n),
                    key=lambda a: (net.node_keys[a] - target) % net.size,
                )
                assert finger == want

    @staticmethod
    def assert_tables_match_ring_scan(net):
        # a node's hop candidates are its successor, its predecessor and
        # its granted fingers, each found by scanning the ring, listed once
        # in order of clockwise offset, the node itself (offset 0) left out
        TestConstruction.assert_fingers_match_ring_scan(net)
        keys, size = net.node_keys, net.size
        for addr in range(net.n):
            def offset(u):
                return (keys[u] - keys[addr]) % size

            others = [u for u in range(net.n) if u != addr]
            succ, pred = min(others, key=offset), max(others, key=offset)
            by_off = {offset(u): u for u in (succ, pred, *net.fingers[addr])}
            by_off.pop(0, None)
            offs = sorted(by_off)
            assert net._table_offs[addr] == offs, addr
            assert net._table_addrs[addr] == [by_off[off] for off in offs], addr

    @pytest.mark.parametrize("mode", [FULL, ENTRY_BOUND])
    @pytest.mark.parametrize(
        "m, keys, wraps",
        [
            (1, [0, 1], False),  # m=1, n=2: the successor is the predecessor
            (6, [5, 40], True),  # a finger past the other node wraps
            (3, list(range(8)), False),  # n = 2**m, every key taken
            (4, list(range(16)), False),
            # clustered keys: high fingers pass the predecessor and wrap
            # back to the node itself
            (8, [0, 1, 2, 3], True),
            (10, [3, 9, 10, 700, 701, 703], True),
            (12, random.Random(3).sample(range(4096), 40), False),
        ],
        ids=["m1-n2", "n2", "m3-every-key", "m4-every-key", "cluster",
             "two-clusters", "sparse"],
    )
    def test_tables_match_ring_scan_oracle(self, m, keys, wraps, mode):
        net = ChordNetwork(m, keys, mode)
        n = net.n
        self.assert_tables_match_ring_scan(net)
        wrapped = 0
        # refills of one ring: sparse, dense, past m per node, then sparse
        for count in (n, 3 * n, 4 * m * n, 1):
            net.distribute_entries(count, seed=count)
            self.assert_tables_match_ring_scan(net)
            wrapped += sum(a in f for a, f in enumerate(net.fingers))
        assert bool(wrapped) == wraps

    def test_fingers_match_ring_scan_oracle(self):
        self.assert_tables_match_ring_scan(build_network(40, 10, seed=5))
        net = build_network(40, 10, seed=5, finger_mode=ENTRY_BOUND)
        # refills of one ring at growing loads: no fingers at 0, then
        # more nodes granted more fingers, up to a mean load past m
        for count in range(0, 601, 20):
            net.distribute_entries(count, seed=count)
            self.assert_tables_match_ring_scan(net)
            # the refill's rebuild must equal a rebuild of a fresh ring
            fresh = ChordNetwork(net.m, net.node_keys, ENTRY_BOUND)
            fresh.loads = list(net.loads)
            fresh._build_tables()
            assert fresh.fingers == net.fingers
            assert fresh._table_addrs == net._table_addrs
            assert fresh._table_offs == net._table_offs


class TestEntries:
    def test_entry_bound_with_no_entries_has_no_fingers(self):
        net = build_network(10, 8, seed=2, finger_mode=ENTRY_BOUND)
        for addr in range(net.n):
            assert net.fingers[addr] == ()
        for line in net.snapshot().splitlines()[1:]:
            assert " fingers= entries=0" in line

    def test_entry_bound_finger_rule(self):
        net = build_network(16, 10, seed=4, finger_mode=ENTRY_BOUND)
        net.distribute_entries(100, seed=9)
        for addr in range(net.n):
            granted = sum(1 for f in net.fingers[addr] if f is not None)
            assert granted == min(net.m, net.loads[addr])

    @pytest.mark.parametrize(
        "n, m, seed", [(2, 1, 0), (2, 2, 1), (5, 4, 2), (16, 6, 3), (40, 10, 5)]
    )
    def test_entry_bound_ring_with_m_entries_everywhere_is_full(self, n, m, seed):
        # the lemma behind the lookup-failure bound: a node holding at
        # least m entries is granted every finger, so once every node does,
        # the entry-bound tables are the full-mode ones
        full = build_network(n, m, seed)
        net = ChordNetwork(m, full.node_keys, ENTRY_BOUND)
        short = 0
        count = n
        while True:
            net.distribute_entries(count, seed=count)
            if min(net.loads) >= m:
                break
            for addr, load in enumerate(net.loads):
                if load < m:
                    short += 1
                    assert len(net.fingers[addr]) == load
            count *= 2
        assert short, "no fill left a node below m entries"
        assert min(net.loads) >= m
        assert net.fingers == full.fingers
        assert net._table_offs == full._table_offs
        assert net._table_addrs == full._table_addrs

    def test_entries_live_at_successor_of_their_key(self):
        net = build_network(12, 9, seed=6)
        net.distribute_entries(400, seed=7)
        # replay the documented draws: a uniform node, then a uniform key
        # in its arc (predecessor key, node key]
        rng = random.Random(7)
        want = [0] * net.n
        want_stored = set()
        stored = set(net.stored_keys())
        for _ in range(400):
            addr = rng.randrange(net.n)
            lo, hi = net.node_keys[addr - 1], net.node_keys[addr]
            d = (lo + 1 + rng.randrange((hi - lo) % net.size)) % net.size
            assert net.successor_of(d) == addr
            assert d in stored
            want[addr] += 1
            want_stored.add(d)
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
    # The ring fill and chord-decay's lookup draws assume Random.randrange(x)
    # and Random.choice(seq) are CPython's _randbelow_with_getrandbits:
    # redraw getrandbits(x.bit_length()) until the result is below x
    # (x = len(seq) for choice). If this fails, a new Python changed that
    # rule, and the fill, chord-decay and every ring digest must follow it.
    for seed in (0, 7, "3|entries|1"):
        ref, rule = random.Random(seed), random.Random(seed)
        for x in range(1, 4097):
            assert ref.randrange(x) == below_by_redraw(rule.getrandbits, x), x
        for x in (4099, 65535, 65536, 65537, 10**6 + 3, (1 << 23) + 1,
                  (1 << 24) - 1, 1 << MAX_RING_BITS):
            for _ in range(20):
                assert ref.randrange(x) == below_by_redraw(rule.getrandbits, x)
        # chord-decay inlines Random.choice(seq) as seq[randrange(len(seq))]
        for x in (*range(1, 300), 4096, 4097, 8191, 8192, 12287):
            seq = range(x)
            got = ref.choice(seq)
            assert got == seq[below_by_redraw(rule.getrandbits, x)], x
        # both streams consumed the same bits
        assert ref.getstate() == rule.getstate()



def test_cpython_sample_still_picks_pool_or_set_by_setsize():
    # sample_configuration (and so random_pattern and random_trie) inlines
    # CPython's Random.sample: the pool branch with its swap-from-the-end
    # when n <= setsize, else redraws of randbelow(n) until an unpicked
    # index. If this fails, a new Python changed that rule, and the draw,
    # every trie-random (its tries and its patterns), position-law and
    # chord-wildcard digest must follow it.
    branches = set()
    # every small case, then one of random_trie's sizes per branch
    cases = [(n, k) for n in range(100) for k in range(min(n, 40) + 1)]
    cases += [(4096, 1024), (65536, 100)]
    for seed in (0, 7, "2|trial|5"):
        ref, rule = random.Random(seed), random.Random(seed)
        for n, k in cases:
            got = ref.sample(range(n), k)
            want = sample_by_rule(rule.getrandbits, n, k)
            assert got == want, (
                f"Random.sample(range({n}), {k}) left CPython 3.11's "
                "pool/set rule that sample_configuration, random_pattern "
                "and random_trie inline"
            )
            setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
            branches.add((n <= setsize, n > 100))
        assert ref.getstate() == rule.getstate(), (
            "Random.sample consumed other bits than the pool/set rule"
        )
    assert branches == {(True, False), (False, False), (True, True), (False, True)}


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

    def test_non_int_arguments_are_refused_by_name(self):
        # a float start once ended in the path or leaked an index error,
        # and a float key was answered as if it were a key
        net = build_network(8, 6, seed=1)
        for d, start, name in [
            (13, 2.0, "start node"), (17, 0.5, "start node"),
            (1.5, 0, "data key"), ("13", 0, "data key"),
            (None, 0, "data key"), (13, "0", "start node"),
            # a bool routed as key 1 or started at node 1
            (True, 1, "data key"), (False, 0, "data key"),
            (1, True, "start node"), (13, False, "start node"),
        ]:
            with pytest.raises(TypeError, match=f"^{name} must be an int"):
                net.lookup(d, start)

        # another int subclass is an int, and the outcome carries plain ints
        class Key(int):
            pass

        out = net.lookup(Key(1), Key(1))
        assert out == net.lookup(1, 1)
        assert all(type(a) is int for a in out.path)

    def test_successor_of_refuses_a_bad_key_as_lookup_does(self):
        # 2.0 answered node 1, and True, -5 and 10**9 answered node 0
        net = build_network(8, 4, 1)
        for d, error, message in [
            (2.0, TypeError, "data key must be an int, got 2.0"),
            (True, TypeError, "data key must be an int, got True"),
            ("3", TypeError, "data key must be an int, got '3'"),
            (-5, ValueError, "data key -5 outside the ring"),
            (16, ValueError, "data key 16 outside the ring"),
            (10**9, ValueError, f"data key {10**9} outside the ring"),
        ]:
            with pytest.raises(error, match=f"^{message}$"):
                net.successor_of(d)
            with pytest.raises(error, match=f"^{message}$"):
                net.lookup(d, 0)
        for d in range(net.size):
            want = min(
                range(net.n), key=lambda a: (net.node_keys[a] - d) % net.size
            )
            assert net.successor_of(d) == want

    @pytest.mark.parametrize("mode", [FULL, ENTRY_BOUND])
    @pytest.mark.parametrize("n", [2, 3, 64, "clustered"])
    def test_equals_reference_lookup(self, n, mode):
        # every (d, start) pair on rings with no entries, 3n and m*n, so
        # stored and unstored keys, 0-hop exits, routed lookups and, on
        # entry-bound rings, stalls all meet the oracle field by field;
        # sweep order (d outer, start inner) lets the route memo serve a
        # route again, shuffled order mostly routes afresh. On the
        # clustered ring, nodes 0, 1 and 2 have arcs of one key, node 0's
        # arc starts at 2**m, which the mask wraps to 0, and the 0-hop keys
        # from node 2**m - 1 wrap past key 0 into node 0's arc
        m = 7
        if n == "clustered":
            node_keys = [0, 1, 2, (1 << m) - 1, 1 << (m - 1)]
            n = len(node_keys)
            make = lambda: ChordNetwork(m, node_keys, finger_mode=mode)
        else:
            make = lambda: build_network(n, m, seed=n, finger_mode=mode)
        pairs = [(d, start) for d in range(1 << m) for start in range(n)]
        shuffled = random.Random(n).sample(pairs, len(pairs))
        for order in (pairs, shuffled):
            net = make()
            kinds = Counter()
            paths = {}  # a memo hit hands back the path object it stored
            reused = 0
            for count in (0, 3 * n, m * n):
                net.distribute_entries(count, seed=count)
                for d, start in order:
                    out = net.lookup(d, start)
                    want = reference_lookup(net, d, start)
                    assert type(out) is LookupOutcome
                    assert out._asdict() == want._asdict(), (d, start, count)
                    kinds[out.hops > 0, out.found, out.error_case] += 1
                    key = net.successor_of(d), start
                    reused += out.hops > 0 and out.path is paths.get(key)
                    paths[key] = out.path
            assert kinds[False, True, False] and kinds[False, False, False]
            if n == 64:
                assert kinds[True, True, False] and kinds[True, False, False]
                if mode == ENTRY_BOUND:
                    assert sum(v for (_, _, err), v in kinds.items() if err)
                if order is pairs:
                    assert reused
        for d, start in [(-1, 0), (net.size, 0), (0, -1), (0, n)]:
            with pytest.raises(ValueError):
                reference_lookup(net, d, start)
            with pytest.raises(ValueError):
                net.lookup(d, start)

    @pytest.mark.parametrize("n", [2, 64])
    def test_zero_hop_outcomes_are_shared_per_start_and_truth(self, n):
        # a 0-hop lookup hands back one of its start's two outcomes, the
        # one for its key's truth; a refill flips the truth, not the pair
        m = 10
        count = 1 << (m - 1)
        net = build_network(n, m, seed=8)
        net.distribute_entries(count, seed=9)
        stored = set(net.stored_keys())
        shared = {}  # start -> (a stored key, its outcome, the absent one)
        for start in range(n):
            owners = (start, (start + 1) % n)
            pair = {}
            for d in range(net.size):
                if net.successor_of(d) in owners:
                    out = net.lookup(d, start)
                    truth = d in stored
                    assert out == (truth, True, 0, (start,), False)
                    assert out is pair.setdefault(truth, out), (d, start)
                    if truth:
                        key = d
            if len(pair) == 2:
                shared[start] = key, pair[True], pair[False]
        assert len(shared) > n // 2
        net.distribute_entries(0, seed=9)
        for start, (d, present, absent) in shared.items():
            assert net.lookup(d, start) is absent
        net.distribute_entries(count, seed=9)
        for start, (d, present, absent) in shared.items():
            assert net.lookup(d, start) is present

    def test_refill_resets_the_route_memo(self):
        # sparse entries grant few fingers and dense ones many, so a refill
        # changes routes; each target's sweep leaves its owner's routes in
        # the memo, and the refill must not let the next sweep reuse them
        n, m = 64, 7
        net = build_network(n, m, seed=5, finger_mode=ENTRY_BOUND)
        changed = 0
        for d in range(0, net.size, 4):
            net.distribute_entries(n, seed=1)
            before = [net.lookup(d, start) for start in range(n)]
            assert net._route_memo[0] == net.successor_of(d)
            net.distribute_entries(m * n, seed=2)
            for start in range(n):
                out = net.lookup(d, start)
                assert out == reference_lookup(net, d, start), (d, start)
                changed += out[2:] != before[start][2:]
        assert changed

    @pytest.mark.parametrize("mode", [FULL, ENTRY_BOUND])
    def test_route_memo_holds_one_owner(self, mode):
        n, m = 64, 9
        net = build_network(n, m, seed=3, finger_mode=mode)
        net.distribute_entries(3 * n, seed=4)
        for d in range(net.size):
            for start in range(n):
                net.lookup(d, start)
        last = net.size - 1
        owner, routes = net._route_memo
        assert owner == net.successor_of(last)
        assert 0 < len(routes) <= n
        for start, route in routes.items():
            assert route == reference_lookup(net, last, start)[2:]
        # a routed lookup to another owner drops the last owner's routes:
        # these starts are at least n/4 nodes from the owners 0 and n/2
        far, first = net.node_keys[n // 2], net.node_keys[0]
        for start in range(n // 4):
            net.lookup(far, start)
            net.lookup(first, n // 2 + start)
            route = reference_lookup(net, first, n // 2 + start)[2:]
            assert net._route_memo == (0, {n // 2 + start: route})

    def test_lookups_interleaved_at_every_line_keep_the_memo_exact(self):
        # a concurrent reader can swap the memo between any two lines of
        # another's lookup; a trace hook does so deterministically, running
        # two routed lookups to the opposite owner at every line, and every
        # outcome and every memoized route must stay the oracle's
        n, m = 32, 8
        net = build_network(n, m, seed=6, finger_mode=ENTRY_BOUND)
        net.distribute_entries(2 * n, seed=7)
        code = ChordNetwork.lookup.__code__
        interrupts = []

        def on_line(frame, event, arg):
            if event == "line":
                for d, start in interrupts:
                    net.lookup(d, start)
            return on_line

        def on_call(frame, event, arg):
            return on_line if frame.f_code is code else None

        for d in range(0, net.size, 8):
            other = (d + net.size // 2) % net.size
            for start in range(n):
                far = (start + n // 2) % n
                interrupts[:] = [(other, far), (other, (far + 1) % n)]
                previous = sys.gettrace()
                sys.settrace(on_call)
                try:
                    out = net.lookup(d, start)
                finally:
                    sys.settrace(previous)
                assert out == reference_lookup(net, d, start), (d, start)
                owner, routes = net._route_memo
                for s, route in (routes or {}).items():
                    want = reference_lookup(net, net.node_keys[owner], s)
                    assert route == want[2:], (owner, s)


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

    @pytest.mark.parametrize("mode", [FULL, ENTRY_BOUND])
    def test_equals_chained_reference_lookups(self, mode):
        # every m=6 pattern, up to the all-wildcard one whose 64 lookups
        # take the xor walk through every rank, its keys in counting order
        # from itertools.product, each looked up by the oracle from where
        # the previous one ended
        m, n = 6, 16
        net = build_network(n, m, seed=4, finger_mode=mode)
        net.distribute_entries(2 * n, seed=5)
        unresolved = 0
        for w in range(m + 1):
            for positions in enumerate_configurations(m, w):
                weights = [1 << (z - 1) for z in reversed(positions)]
                for letters in itertools.product((0, 1), repeat=m - w):
                    pattern = QueryPattern.from_configuration(m, positions, letters)
                    base = sum(
                        s << (m - 1 - i)
                        for i, s in enumerate(pattern.symbols)
                        if s is not None
                    )
                    keys = [
                        base + sum(a * wgt for a, wgt in zip(combo, weights))
                        for combo in itertools.product((0, 1), repeat=w)
                    ]
                    for start in range(0, n, 5):
                        peer, hops, matches, resolved = start, [], set(), True
                        for d in keys:
                            out = reference_lookup(net, d, peer)
                            hops.append(out.hops)
                            resolved = resolved and not out.error_case
                            if out.found:
                                matches.add(d)
                            peer = out.path[-1]
                        res = net.wildcard_query(pattern, start)
                        assert res.per_key_hops == tuple(hops)
                        assert res.total_hops == sum(hops)
                        assert res.matches == matches
                        assert res.resolved == resolved
                        unresolved += not resolved
        if mode == ENTRY_BOUND:
            assert unresolved

    def test_rejects_non_binary_or_misshaped_patterns(self):
        net = build_network(8, 6, seed=20)
        # the trie search raises the same class for the same mistakes
        with pytest.raises(PatternShapeError, match="outside alphabet 0..1"):
            net.wildcard_query(QueryPattern.from_string("2*0*00"), 0)
        with pytest.raises(PatternShapeError, match="does not match key length"):
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
