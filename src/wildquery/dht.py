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
routing power to the entry distribution.

Everything is seeded and single-threaded; a built network is read-only
during measurement, so concurrent lookups against a frozen network are
safe. Redistributing entries requires exclusive access.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import PatternShapeError, SizeLimitError
from .wildcard import QueryPattern

FULL = "full"
ENTRY_BOUND = "entry-bound"

MAX_RING_BITS = 24
MAX_LOOKUPS = 1 << 12  # expansions one wildcard query may look up


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


@dataclass(frozen=True)
class RingQueryResult:
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

    `fingers[addr]` has one slot per finger index 1..m, holding the
    finger's address or None where the node is not granted it;
    `loads[addr]` is the number of entries the node stores.
    """

    def __init__(self, m: int, node_keys: list[int], finger_mode: str = FULL):
        if m < 1 or m > MAX_RING_BITS:
            raise ValueError(f"need 1 <= m <= {MAX_RING_BITS}, got {m}")
        if finger_mode not in (FULL, ENTRY_BOUND):
            raise ValueError(f"unknown finger mode {finger_mode!r}")
        n = len(node_keys)
        if n < 2:
            raise ValueError("need at least 2 nodes")
        if len(set(node_keys)) != n:
            raise ValueError("node keys must be distinct")
        if any(not 0 <= k < (1 << m) for k in node_keys):
            raise ValueError("node key outside the ring")
        self.m = m
        self.size = 1 << m
        self.finger_mode = finger_mode
        self.node_keys = sorted(node_keys)
        self.n = n
        self.loads = [0] * n
        self._stored: Counter = Counter()
        self.fingers: list[tuple] = [()] * n
        # hop candidates of each node sorted by clockwise offset from it,
        # as aligned lists of addresses and offsets
        self._table_addrs: list[list[int]] = [[] for _ in range(n)]
        self._table_offs: list[list[int]] = [[] for _ in range(n)]
        for addr in range(n):
            self._build_table(addr)

    def successor_of(self, d: int) -> int:
        """Address of the node owning key d, the first at or after d."""
        return bisect_left(self.node_keys, d) % self.n

    def _build_table(self, addr: int) -> None:
        """Set one node's fingers from its grant, and its hop candidates."""
        n, m, mask = self.n, self.m, self.size - 1
        keys = self.node_keys
        key = keys[addr]
        granted = m if self.finger_mode == FULL else min(m, self.loads[addr])
        fingers = tuple(
            self.successor_of((key + (1 << i)) & mask) if i < granted else None
            for i in range(m)
        )
        self.fingers[addr] = fingers
        by_off = {
            (keys[u] - key) & mask: u
            for u in ((addr + 1) % n, (addr - 1) % n, *fingers)
            if u is not None
        }
        by_off.pop(0, None)  # moving to oneself is not a hop
        offs = sorted(by_off)
        self._table_offs[addr] = offs
        self._table_addrs[addr] = [by_off[off] for off in offs]

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
        if count < 0:
            raise ValueError("entry count must be >= 0")
        getrandbits = random.Random(seed).getrandbits
        n, mask = self.n, self.size - 1
        keys = self.node_keys
        arcs = [(keys[a] - keys[a - 1]) & mask for a in range(n)]
        arc_bits = [arc.bit_length() for arc in arcs]
        bases = [keys[a - 1] + 1 for a in range(n)]
        n_bits = n.bit_length()
        loads = [0] * n
        data = array("q")  # 8 bytes a key; a list adds an int object per key
        append = data.append
        for _ in range(count):
            a = getrandbits(n_bits)
            while a >= n:
                a = getrandbits(n_bits)
            arc = arcs[a]
            bits = arc_bits[a]
            r = getrandbits(bits)
            while r >= arc:
                r = getrandbits(bits)
            append((bases[a] + r) & mask)
            loads[a] += 1
        self.loads = loads
        self._stored = Counter(data)
        if self.finger_mode == ENTRY_BOUND:
            for addr in range(n):
                self._build_table(addr)
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

        One bisect finds the nearest table node. Let `dist` be the
        clockwise distance from the current node a to the owner, and
        off_u the clockwise offset of candidate u from a. When
        off_u <= dist, u is `dist - off_u` from the owner; otherwise the
        distance wraps past 2**m and exceeds `dist`. The nearest candidate
        closer than a itself is therefore the one with the largest
        off_u <= dist, and there is none when every offset exceeds
        `dist`. Distinct nodes have distinct offsets, so nothing ties.
        """
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

        # a Counter entry is never 0, so membership is the ground truth
        truth = d in self._stored
        found = truth and not error
        return LookupOutcome(
            found, found == truth, len(path) - 1, tuple(path), error
        )

    def wildcard_query(self, pattern: QueryPattern, start: int) -> RingQueryResult:
        """Resolve every expansion of a binary pattern over the ring.

        Expansions are looked up in protocol order, each starting at the
        peer where the previous lookup ended.
        """
        if pattern.m != self.m:
            raise PatternShapeError(
                f"pattern length {pattern.m} does not match ring bits {self.m}"
            )
        for s in pattern.symbols:
            if s is not None and s > 1:
                raise PatternShapeError("ring patterns are binary")
        if 2**pattern.wildcard_count > MAX_LOOKUPS:
            raise SizeLimitError(
                f"{2 ** pattern.wildcard_count} lookups exceed {MAX_LOOKUPS}"
            )
        peer = start
        hops = []
        resolved = True
        matches = set()
        for d in pattern.expansions(2):
            outcome = self.lookup(d, peer)
            hops.append(outcome.hops)
            resolved = resolved and not outcome.error_case
            if outcome.found:
                matches.add(d)
            peer = outcome.path[-1]
        return RingQueryResult(
            matches=frozenset(matches),
            per_key_hops=tuple(hops),
            total_hops=sum(hops),
            resolved=resolved,
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
                if f is not None
            )
            lines.append(
                f"node {addr}: key={self.node_keys[addr]}"
                f" succ={self.node_keys[(addr + 1) % self.n]}"
                f" pred={self.node_keys[(addr - 1) % self.n]}"
                f" fingers={fingers}"
                f" entries={self.loads[addr]}"
            )
        return "\n".join(lines) + "\n"


def build_network(n: int, m: int, seed, finger_mode: str = FULL) -> ChordNetwork:
    """Sample n distinct node keys uniformly and assemble the ring."""
    if m < 1 or m > MAX_RING_BITS:
        raise ValueError(f"need 1 <= m <= {MAX_RING_BITS}, got {m}")
    if not 2 <= n <= (1 << m):
        raise ValueError(
            f"need 2 <= n <= 2**m for distinct node keys, got n={n}, m={m}"
        )
    rng = random.Random(seed)
    node_keys = rng.sample(range(1 << m), n)
    return ChordNetwork(m, node_keys, finger_mode=finger_mode)
