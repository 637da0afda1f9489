"""Deterministic in-process simulation of a Chord-style ring.

Nodes carry distinct keys in [0, 2**m); an entry with data key d lives at
the successor of d, the first node at or clockwise after d. Lookups route
greedily: the current node moves to the routing-table node closest (in
clockwise ring distance) to the target's successor, and stops as soon as
the target key falls between the current node and one of its neighbors,
answering from the identified owner's entries. That closest node is
Chord's closest preceding finger: the candidate with the largest
clockwise offset from the current node that does not pass the target.
Each node keeps its candidates (ring neighbors and granted fingers)
sorted by that offset, so one bisect picks the hop. A hop that cannot
shorten the bit length of the remaining distance is the error case: the
lookup gives up and reports the key absent, which is how sparse
entry-bound finger tables lose correctness. Every accepted hop shortens
that bit length, so no lookup takes more than m hops.

Finger tables come in two modes. "full" grants every node all m fingers
(finger i points at the successor of key + 2**(i-1)). "entry-bound"
grants finger i only to nodes holding at least i entries, which ties
routing power to the entry distribution; a node's fingers are always
a prefix 1..g, and one pass builds every node's table.

Everything is seeded and single-threaded. A built network's tables and
entries are read-only during measurement. A lookup writes two things.
A routed one writes the memo of the routes to the owner it last routed
to: the memo attribute is replaced whole by a new (owner, routes) tuple,
and its dict only gains routes, each the deterministic route for its
(owner, start). A 0-hop one fills its start's pair of outcomes, absent
and present, on the start's first 0-hop lookup; the pair depends on the
node keys alone, so concurrent fills store equal immutable values. So
concurrent lookups against a frozen network still get the outcomes a
lone lookup would. Redistributing entries requires exclusive access.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import NamedTuple

from .errors import SizeLimitError
from .wildcard import MAX_EXPANSIONS, QueryPattern, _check_pattern

FULL = "full"
ENTRY_BOUND = "entry-bound"

MAX_RING_BITS = 24


class LookupOutcome(NamedTuple):
    """Result of a single-key lookup.

    `found` is the protocol's answer, `correct` compares it against the
    omniscient entry set. `error_case` records that greedy routing stalled
    and the protocol answered "absent" without reaching the owner. `path`
    lists node addresses, start first, so hops == len(path) - 1.
    """

    found: bool
    correct: bool
    hops: int
    path: tuple[int, ...]
    error_case: bool


# builds a LookupOutcome from a tuple in C, with no __new__ frame
_new = tuple.__new__
# route memo of a network whose tables just changed: no owner, no routes
_NO_ROUTES = (-1, None)


class RingQueryResult(NamedTuple):
    """A wildcard query resolved over the ring, key by key.

    Hop counts line up with `pattern.expansions(2)`, the protocol order
    (all wildcards 0 first, then repeated flips of the least significant
    unfinished wildcard).
    """

    matches: frozenset[int]
    per_key_hops: tuple[int, ...]
    total_hops: int
    resolved: bool


class ChordNetwork:
    """n nodes on the 2**m ring with per-node finger tables and loads.

    `fingers[addr]` holds the node's granted fingers 1..g in order (g = m
    in full mode, min(m, load) entry-bound), and `loads[addr]` the number
    of entries the node stores.
    """

    def __init__(self, m: int, node_keys: list[int], finger_mode: str = FULL):
        _require_ring_bits(m)
        if finger_mode not in (FULL, ENTRY_BOUND):
            raise ValueError(f"unknown finger mode {finger_mode!r}")
        n = len(node_keys)
        if n < 2:
            raise ValueError("need at least 2 nodes")
        for key in node_keys:
            if type(key) is not int:
                raise TypeError(f"node key must be an int, got {key!r}")
            if not 0 <= key < 1 << m:
                raise ValueError("node key outside the ring")
        if len(set(node_keys)) != n:
            raise ValueError("node keys must be distinct")
        self.m = m
        self.size = 1 << m
        self.finger_mode = finger_mode
        self.node_keys = sorted(node_keys)
        self.n = n
        self.loads = [0] * n
        self._stored: set[int] = set()
        # node a owns the _arcs[a] keys from _arc_first[a]; the 0-hop keys
        # from a, owned by a or its successor, are the _arc_width[a] keys
        # from there (see `lookup`); _zero_hop[a] is a's (absent, present)
        # outcome pair, made on use
        keys = self.node_keys
        mask = self._mask = self.size - 1
        arcs = self._arcs = [(keys[a] - keys[a - 1]) & mask for a in range(n)]
        self._arc_first = [keys[a - 1] + 1 for a in range(n)]
        self._arc_width = [arcs[a] + arcs[a + 1 - n] for a in range(n)]
        self._zero_hop: list[tuple | None] = [None] * n
        self._build_tables()

    def successor_of(self, d: int) -> int:
        """Address of the node owning key d, the first at or after d.

        A bad key is refused as `lookup` refuses it.
        """
        if not (type(d) is int and 0 <= d < self.size):
            d = self._check_key(d)
        return bisect_left(self.node_keys, d) % self.n

    def _build_tables(self) -> None:
        """Build every node's fingers and hop candidates in one sorted pass.

        Finger i (0-based here) is the owner of key + 2**i. While 2**i
        fits in the gap to the successor, that owner is the successor, so
        the first min(granted, gap.bit_length()) fingers take no bisect.

        The candidate table lists the successor, the granted fingers and
        the predecessor by clockwise offset from the node, each offset
        once, 0 (the node itself) left out. No bisect is needed for that
        order: a finger's offset never decreases with i and never passes
        the predecessor's, until a target past the predecessor wraps back
        to the node itself, which has offset 0, as does every later
        finger. So the successor, then each further finger whose offset
        exceeds the last one kept, then the predecessor if its offset does
        too, is already sorted and distinct. On a 2-node ring the
        predecessor is the successor and is kept once.
        """
        n, m, mask = self.n, self.m, self.size - 1
        keys = self.node_keys
        loads = None if self.finger_mode == FULL else self.loads
        fingers, table_addrs, table_offs = [], [], []
        for addr, key in enumerate(keys):
            granted = m if loads is None else min(m, loads[addr])
            succ = addr + 1 if addr + 1 < n else 0
            last = gap = (keys[succ] - key) & mask
            near = min(granted, gap.bit_length())
            node_fingers = [succ] * near
            offs = [gap]
            addrs = [succ]
            for i in range(near, granted):
                f = bisect_left(keys, (key + (1 << i)) & mask)
                if f == n:
                    f = 0
                node_fingers.append(f)
                off = (keys[f] - key) & mask
                if off > last:
                    offs.append(off)
                    addrs.append(f)
                    last = off
            pred = addr - 1 if addr else n - 1
            off = (keys[pred] - key) & mask
            if off > last:
                offs.append(off)
                addrs.append(pred)
            fingers.append(tuple(node_fingers))
            table_offs.append(offs)
            table_addrs.append(addrs)
        self.fingers = fingers
        self._table_addrs = table_addrs
        self._table_offs = table_offs
        # the only writer of the tables, so no memoized route outlives them
        self._route_memo = _NO_ROUTES

    # -- entries -----------------------------------------------------------

    def distribute_entries(self, count: int, seed) -> "ChordNetwork":
        """Replace all entries with `count` new ones, node-uniform.

        Each entry independently picks a uniform node, then a data key
        uniform over that node's arc (predecessor key, node key], so the
        entry is stored exactly at the successor of its data key.
        Entry-bound finger tables are rebuilt afterwards.

        The draws are a contract: per entry, `random.Random(seed)` makes
        one `randrange(n)` for the node, then one `randrange(arc)` for the
        key. The loop inlines the rule CPython's `randrange(x)` follows,
        redrawing `getrandbits(x.bit_length())` until the result is below
        x, so it consumes the same bits in the same order. The oracle test
        in tests/test_dht.py replays the `randrange` loop and pins it.
        """
        if type(count) is not int:
            raise TypeError(f"entry count must be an int, got {count!r}")
        if count < 0:
            raise ValueError("entry count must be >= 0")
        getrandbits = random.Random(seed).getrandbits
        n, mask = self.n, self._mask
        arcs, bases = self._arcs, self._arc_first
        arc_bits = [arc.bit_length() for arc in arcs]
        n_bits = n.bit_length()
        loads = [0] * n
        stored: set[int] = set()
        add = stored.add
        for _ in range(count):
            a = getrandbits(n_bits)
            while a >= n:
                a = getrandbits(n_bits)
            arc = arcs[a]
            bits = arc_bits[a]
            r = getrandbits(bits)
            while r >= arc:
                r = getrandbits(bits)
            add((bases[a] + r) & mask)
            loads[a] += 1
        self.loads = loads
        self._stored = stored
        if self.finger_mode == ENTRY_BOUND:
            self._build_tables()
        return self

    def stored_keys(self) -> list[int]:
        """Distinct data keys currently stored, ascending."""
        return sorted(self._stored)

    # -- lookup ------------------------------------------------------------

    def lookup(self, d: int, start: int) -> LookupOutcome:
        """Resolve the membership of data key d from a start node address.

        Greedy routing: hop to the table node nearest the owner of d,
        which in full-finger mode provably at least halves the remaining
        clockwise distance every hop. The walk ends when d lies between
        the current node and a ring neighbor; the owner's entries then
        supply the answer without a further hop. If no table node improves
        the distance by a bit, the lookup answers absent at once (the
        error case). Each accepted hop therefore strictly shortens the bit
        length of a distance below 2**m, so a lookup takes at most m hops
        and needs no hop cap.

        A lookup that starts at the owner or at its predecessor takes 0
        hops, and an arc test tells it apart before the owner's bisect: the
        keys those two nodes own are the arcs of start and of its
        successor, `_arc_width[start]` keys clockwise from
        `_arc_first[start]` = keys[start - 1] + 1, so the lookup is 0-hop
        exactly when `(d - _arc_first[start]) & mask < _arc_width[start]`.
        On a 2-node ring the two arcs are the whole ring. The outcome then
        is one of the start's two, made on its first 0-hop lookup and
        shared after that: `_zero_hop[start][truth]`, so a refill that
        changes the truth of d changes which of the two comes back.

        A routed lookup reuses the route of an earlier one to the same
        owner from the same start. The network keeps the routes of the
        last owner it routed to, as one `(owner, routes)` tuple: routes
        maps a start to `(hops, path, error_case)`, and a routed lookup to
        another owner swaps in a new tuple with a fresh dict. A route
        depends only on the tables, which `_build_tables` alone writes and
        which reset the memo there; `found` and `correct` are recomputed
        from this call's entries. Every call therefore returns the outcome
        routing would, and concurrent readers only ever add the same routes.

        One bisect finds the nearest table node. Let `dist` be the
        clockwise distance from the current node a to the owner, and
        off_u the clockwise offset of candidate u from a. When
        off_u <= dist, u is `dist - off_u` from the owner; otherwise the
        distance wraps past 2**m and exceeds `dist`. The nearest candidate
        closer than a itself is therefore the one with the largest
        off_u <= dist, and there is none when every offset exceeds
        `dist`. Distinct nodes have distinct offsets, so nothing ties.
        """
        n = self.n
        if not (
            type(d) is int and 0 <= d < self.size
            and type(start) is int and 0 <= start < n
        ):
            d, start = self._check_lookup(d, start)

        # the owner is start itself or its clockwise neighbor
        if (d - self._arc_first[start]) & self._mask < self._arc_width[start]:
            pair = self._zero_hop[start]
            if pair is None:
                path = (start,)
                pair = self._zero_hop[start] = (
                    _new(LookupOutcome, (False, True, 0, path, False)),
                    _new(LookupOutcome, (True, True, 0, path, False)),
                )
            return pair[d in self._stored]

        keys = self.node_keys
        t = bisect_left(keys, d)
        if t == n:
            t = 0
        truth = d in self._stored
        owner, routes = self._route_memo
        if owner != t:
            routes = {}
            self._route_memo = (t, routes)
        route = routes.get(start)
        if route is None:
            addrs = self._table_addrs
            offs = self._table_offs
            mask = self._mask
            tkey = keys[t]
            a = start
            path = [a]
            while True:
                dist = (tkey - keys[a]) & mask
                a_offs = offs[a]
                j = bisect_right(a_offs, dist)
                if not j or (dist - a_offs[j - 1]).bit_length() >= dist.bit_length():
                    # no table node improves a bit of the distance: stall
                    error = True
                    break
                a = addrs[a][j - 1]
                path.append(a)
                if a == t or a + 1 == t or a - t == n - 1:
                    error = False
                    break
            route = routes[start] = (len(path) - 1, tuple(path), error)

        hops, path, error = route
        if error:  # answer absent
            return _new(LookupOutcome, (False, not truth, hops, path, True))
        return _new(LookupOutcome, (truth, True, hops, path, False))

    def _check_key(self, d) -> int:
        """Refuse a bad data key by name; return it as a plain int.

        A bool is refused like any other non-int, as every public int
        parameter refuses it; another int subclass passes on as an int.
        """
        if type(d) is bool or not isinstance(d, int):
            raise TypeError(f"data key must be an int, got {d!r}")
        if not 0 <= d < self.size:
            raise ValueError(f"data key {d} outside the ring")
        return int(d)

    def _check_lookup(self, d, start) -> tuple[int, int]:
        """Refuse a bad `lookup` argument by name, the key first.

        Both follow `_check_key`'s rule: a bool is refused, another int
        subclass passes on as an int.
        """
        d = self._check_key(d)
        if type(start) is bool or not isinstance(start, int):
            raise TypeError(f"start node must be an int, got {start!r}")
        if not 0 <= start < self.n:
            raise ValueError(f"bad start node {start!r}")
        return d, int(start)

    def wildcard_query(self, pattern: QueryPattern, start: int) -> RingQueryResult:
        """Resolve every expansion of a binary pattern over the ring.

        Expansions are looked up in protocol order, each starting at the
        peer where the previous lookup ended. `wildcard._check_pattern`
        refuses a letter other than 0 and 1 and returns `base`, the key
        with every wildcard at 0. The keys then come from an xor walk: going
        from expansion c - 1 to c clears the wildcards of rank below
        r = `_ruler(w)[c]` and sets the one of rank r, so the key changes
        by `flip[r]`, the bits of wildcard ranks 0..r. `_ruler(w)[0]` selects
        the mask 0, so the walk's first key is `base`. The keys and their
        order are those of `pattern.expansions(2)`.
        """
        base = _check_pattern(pattern, self.m, 2)
        configuration = pattern.configuration
        w = len(configuration)
        if 1 << w > MAX_EXPANSIONS:
            raise SizeLimitError(f"{1 << w} lookups exceed {MAX_EXPANSIONS}")
        flip = []
        bits = 0
        for z in configuration:
            bits |= 1 << (z - 1)
            flip.append(bits)
        flip.append(0)  # _ruler's sentinel rank, -1, for the first key
        lookup = self.lookup
        peer = start
        hops = []
        append = hops.append
        resolved = True
        matches = []
        d = base
        for rank in _ruler(w):
            d ^= flip[rank]
            found, _, h, path, error = lookup(d, peer)
            append(h)
            if error:
                resolved = False
            if found:
                matches.append(d)
            peer = path[-1]
        return RingQueryResult(
            frozenset(matches), tuple(hops), sum(hops), resolved
        )

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> str:
        """Text dump, one node per line, for debugging reproducibility.

        Format: ``node <addr>: key=<key> succ=<key> pred=<key>
        fingers=<i:key;...> entries=<count>`` after a single header line.
        """
        lines = [
            f"# chord ring m={self.m} n={self.n} mode={self.finger_mode}"
        ]
        for addr in range(self.n):
            fingers = ";".join(
                f"{i}:{self.node_keys[f]}"
                for i, f in enumerate(self.fingers[addr], start=1)
            )
            lines.append(
                f"node {addr}: key={self.node_keys[addr]}"
                f" succ={self.node_keys[(addr + 1) % self.n]}"
                f" pred={self.node_keys[(addr - 1) % self.n]}"
                f" fingers={fingers}"
                f" entries={self.loads[addr]}"
            )
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=MAX_EXPANSIONS.bit_length())  # w <= 12: one entry per w
def _ruler(w: int) -> tuple[int, ...]:
    """Per expansion c of a w-wildcard query, the rank of the wildcard that
    c sets: the least significant wildcard whose letter goes from 0 to 1
    in the counting order. Expansion 0 sets none and gets the sentinel -1.
    """
    return (-1, *[((c - 1) ^ c).bit_length() - 1 for c in range(1, 1 << w)])


def _require_ring_bits(m) -> None:
    if type(m) is not int:
        raise TypeError(f"ring bits m must be an int, got {m!r}")
    if not 1 <= m <= MAX_RING_BITS:
        raise ValueError(f"need 1 <= m <= {MAX_RING_BITS}, got {m}")


def build_network(n: int, m: int, seed, finger_mode: str = FULL) -> ChordNetwork:
    """Sample n distinct node keys uniformly and assemble the ring."""
    _require_ring_bits(m)
    if type(n) is not int:
        raise TypeError(f"node count n must be an int, got {n!r}")
    if not 2 <= n <= (1 << m):
        raise ValueError(
            f"need 2 <= n <= 2**m for distinct node keys, got n={n}, m={m}"
        )
    rng = random.Random(seed)
    node_keys = rng.sample(range(1 << m), n)
    return ChordNetwork(m, node_keys, finger_mode=finger_mode)
