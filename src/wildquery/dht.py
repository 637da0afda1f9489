"""Deterministic in-process simulation of a Chord-style ring.

Nodes carry distinct keys in [0, 2**m); an entry with data key d lives at
the successor of d, the first node at or clockwise after d. Lookups route
greedily: the current node moves to the routing-table node closest (in
clockwise ring distance) to the target's successor, and stops as soon as
the target key falls between the current node and one of its neighbors,
answering from the identified owner's entries. A hop that cannot shorten
the bit length of the remaining distance is the error case: the lookup
gives up and reports the key absent, which is how sparse entry-bound
finger tables lose correctness.

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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .errors import PatternShapeError, SizeLimitError
from .wildcard import QueryPattern

RING = "ring"
XOR = "xor"

FULL = "full"
ENTRY_BOUND = "entry-bound"

HOP_CAP_FACTOR = 4
MAX_RING_BITS = 24
DEFAULT_MAX_LOOKUPS = 1 << 12


def ring_distance(a: int, b: int, m: int) -> int:
    """Clockwise distance from a to b on the 2**m ring."""
    return (b - a) & ((1 << m) - 1)


def xor_distance(a: int, b: int) -> int:
    """Bitwise-XOR metric; symmetric, zero only at equality."""
    return a ^ b


@dataclass(frozen=True)
class NodeId:
    key: int
    address: int


@dataclass(frozen=True)
class Entry:
    data_key: int
    value: object


@dataclass(frozen=True)
class RoutingTable:
    """One node's links: ring neighbors plus whatever fingers it holds."""

    owner: int
    successor: int
    predecessor: int
    fingers: tuple  # length m, address or None per finger index 1..m
    finger_mode: str


@dataclass(frozen=True)
class LookupOutcome:
    """Result of a single-key lookup.

    `found` is the protocol's answer, `correct` compares it against the
    omniscient entry set. `error_case` records that greedy routing stalled
    (or hit the hop cap) and the protocol answered "absent" without
    reaching the owner. `path` lists node addresses, start first, so
    hops == len(path) - 1.
    """

    found: bool
    correct: bool
    hops: int
    path: tuple[int, ...]
    error_case: bool


@dataclass(frozen=True)
class RingQueryResult:
    """A wildcard query resolved over the ring, key by key.

    Keys appear in protocol order (all wildcards 0 first, then repeated
    flips of the least significant unfinished wildcard). Hop and
    correctness entries line up with `keys`.
    """

    keys: tuple[int, ...]
    matches: frozenset[int]
    per_key_hops: tuple[int, ...]
    per_key_correct: tuple[bool, ...]
    per_key_error: tuple[bool, ...]
    total_hops: int
    resolved: bool


class ChordNetwork:
    """n nodes on the 2**m ring with per-node finger tables and entries."""

    def __init__(self, m: int, node_keys: list[int], finger_mode: str = FULL,
                 metric: str = RING):
        if m < 1 or m > MAX_RING_BITS:
            raise ValueError(f"need 1 <= m <= {MAX_RING_BITS}, got {m}")
        if finger_mode not in (FULL, ENTRY_BOUND):
            raise ValueError(f"unknown finger mode {finger_mode!r}")
        if metric not in (RING, XOR):
            raise ValueError(f"unknown metric {metric!r}")
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
        self.metric = metric
        self.node_keys = sorted(node_keys)
        self.n = n
        self.nodes = [NodeId(key, addr) for addr, key in enumerate(self.node_keys)]
        self.entries: list[list[Entry]] = [[] for _ in range(n)]
        self._stored: Counter = Counter()
        self._rebuild_tables()

    # -- static structure -------------------------------------------------

    def successor_of(self, d: int) -> int:
        """Address of the node owning key d (minimum distance from d)."""
        if self.metric == XOR:
            return min(range(self.n), key=lambda a: self.node_keys[a] ^ d)
        i = bisect_left(self.node_keys, d)
        return i % self.n

    def predecessor_of(self, d: int) -> int:
        """Address of the last node strictly before d on the ring."""
        i = bisect_left(self.node_keys, d)
        return (i - 1) % self.n

    def successor(self, addr: int) -> int:
        return (addr + 1) % self.n

    def predecessor(self, addr: int) -> int:
        return (addr - 1) % self.n

    def _ring_successor_of(self, d: int) -> int:
        i = bisect_left(self.node_keys, d)
        return i % self.n

    def _rebuild_tables(self) -> None:
        n, m, mask = self.n, self.m, self.size - 1
        keys = self.node_keys
        self._fingers: list[tuple] = []
        self._table_addrs: list[tuple[int, ...]] = []
        for addr in range(n):
            if self.finger_mode == FULL:
                granted = m
            else:
                granted = min(m, len(self.entries[addr]))
            fingers = []
            for i in range(1, m + 1):
                if i > granted:
                    fingers.append(None)
                    continue
                target = (keys[addr] + (1 << (i - 1))) & mask
                fingers.append(self._ring_successor_of(target))
            self._fingers.append(tuple(fingers))
            candidates = dict.fromkeys(
                [(addr + 1) % n, (addr - 1) % n]
                + [f for f in fingers if f is not None]
            )
            candidates.pop(addr, None)  # moving to oneself is not a hop
            self._table_addrs.append(tuple(candidates))

    def routing_table(self, addr: int) -> RoutingTable:
        return RoutingTable(
            owner=addr,
            successor=(addr + 1) % self.n,
            predecessor=(addr - 1) % self.n,
            fingers=self._fingers[addr],
            finger_mode=self.finger_mode,
        )

    # -- entries -----------------------------------------------------------

    def distribute_entries(self, count: int, seed) -> "ChordNetwork":
        """Replace all entries with `count` new ones, node-uniform.

        Each entry independently picks a uniform node, then a data key
        uniform over that node's arc (predecessor key, node key], so the
        entry is stored exactly at the successor of its data key.
        Entry-bound finger tables are rebuilt afterwards.
        """
        if count < 0:
            raise ValueError("entry count must be >= 0")
        rng = random.Random(seed)
        n, size = self.n, self.size
        keys = self.node_keys
        self.entries = [[] for _ in range(n)]
        self._stored = Counter()
        for i in range(count):
            addr = rng.randrange(n)
            arc = (keys[addr] - keys[addr - 1]) % size
            d = (keys[addr - 1] + 1 + rng.randrange(arc)) % size
            self.entries[addr].append(Entry(d, i))
            self._stored[d] += 1
        if self.finger_mode == ENTRY_BOUND:
            self._rebuild_tables()
        return self

    def store_entry(self, d: int, value) -> None:
        """Place a single entry at the successor of d."""
        if not 0 <= d < self.size:
            raise ValueError(f"data key {d} outside the ring")
        addr = self._ring_successor_of(d)
        self.entries[addr].append(Entry(d, value))
        self._stored[d] += 1
        if self.finger_mode == ENTRY_BOUND:
            self._rebuild_tables()

    def ground_truth(self, d: int) -> bool:
        """Omniscient membership: scan-all equivalent over stored entries."""
        return self._stored[d] > 0

    def stored_keys(self) -> list[int]:
        """Distinct data keys currently stored, ascending."""
        return sorted(self._stored)

    # -- lookup ------------------------------------------------------------

    def lookup(self, d: int, start, on_stall: str = "reject") -> LookupOutcome:
        """Resolve the membership of data key d from a start node.

        Greedy routing: hop to the table node nearest the owner of d,
        which in full-finger mode provably at least halves the remaining
        clockwise distance every hop. The walk ends when d lies between
        the current node and a ring neighbor; the owner's entries then
        supply the answer without a further hop. If no table node improves
        the distance by a bit, the behavior depends on `on_stall`:
        "reject" answers absent immediately (the error case), "walk"
        falls back to plain successor steps. A hop cap of 4*m bounds any
        walk; exceeding it is also an error case.
        """
        if self.metric != RING:
            raise ValueError("lookup routes on the ring metric only")
        if not 0 <= d < self.size:
            raise ValueError(f"data key {d} outside the ring")
        if on_stall not in ("reject", "walk"):
            raise ValueError(f"unknown stall policy {on_stall!r}")
        a = start.address if isinstance(start, NodeId) else start
        if not 0 <= a < self.n:
            raise ValueError(f"bad start node {start!r}")

        keys = self.node_keys
        tables = self._table_addrs
        mask = self.size - 1
        n = self.n
        cap = HOP_CAP_FACTOR * self.m

        t = self._ring_successor_of(d)
        tkey = keys[t]
        path = [a]
        error = False
        while a != t and (a + 1) % n != t:
            if len(path) > cap:
                error = True
                break
            dist = (tkey - keys[a]) & mask
            best = a
            best_dist = dist
            # distances to a fixed target determine keys uniquely on the
            # ring, so distinct nodes never tie for the minimum
            for u in tables[a]:
                du = (tkey - keys[u]) & mask
                if du < best_dist:
                    best_dist = du
                    best = u
            if best_dist.bit_length() >= dist.bit_length():
                # no table node improves a bit of the remaining distance
                if on_stall == "reject":
                    error = True
                    break
                best = (a + 1) % n  # successor always makes some progress
            a = best
            path.append(a)

        truth = self._stored[d] > 0
        found = truth and not error
        return LookupOutcome(
            found=found,
            correct=found == truth,
            hops=len(path) - 1,
            path=tuple(path),
            error_case=error,
        )

    def wildcard_query(
        self,
        pattern: QueryPattern,
        start,
        on_stall: str = "reject",
        max_lookups: int = DEFAULT_MAX_LOOKUPS,
    ) -> RingQueryResult:
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
        if 2**pattern.wildcard_count > max_lookups:
            raise SizeLimitError(
                f"{2 ** pattern.wildcard_count} lookups exceed {max_lookups}"
            )
        peer = start.address if isinstance(start, NodeId) else start
        keys = []
        hops = []
        correct = []
        errors = []
        matches = set()
        for d in pattern.expansions(2):
            outcome = self.lookup(d, peer, on_stall=on_stall)
            keys.append(d)
            hops.append(outcome.hops)
            correct.append(outcome.correct)
            errors.append(outcome.error_case)
            if outcome.found:
                matches.add(d)
            peer = outcome.path[-1]
        return RingQueryResult(
            keys=tuple(keys),
            matches=frozenset(matches),
            per_key_hops=tuple(hops),
            per_key_correct=tuple(correct),
            per_key_error=tuple(errors),
            total_hops=sum(hops),
            resolved=not any(errors),
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
                for i, f in enumerate(self._fingers[addr], start=1)
                if f is not None
            )
            lines.append(
                f"node {addr}: key={self.node_keys[addr]}"
                f" succ={self.node_keys[(addr + 1) % self.n]}"
                f" pred={self.node_keys[(addr - 1) % self.n]}"
                f" fingers={fingers}"
                f" entries={len(self.entries[addr])}"
            )
        return "\n".join(lines) + "\n"


def build_network(n: int, m: int, seed, finger_mode: str = FULL,
                  metric: str = RING) -> ChordNetwork:
    """Sample n distinct node keys uniformly and assemble the ring."""
    if m < 1 or m > MAX_RING_BITS:
        raise ValueError(f"need 1 <= m <= {MAX_RING_BITS}, got {m}")
    if not 2 <= n <= (1 << m):
        raise ValueError(
            f"need 2 <= n <= 2**m for distinct node keys, got n={n}, m={m}"
        )
    rng = random.Random(seed)
    node_keys = rng.sample(range(1 << m), n)
    return ChordNetwork(m, node_keys, finger_mode=finger_mode, metric=metric)
