"""In-memory spans around the calls the experiment runners make into each layer.

A span is (name, start, end, parent, pass id). Spans live in flat arrays
while the pass runs and are written out only after it ends. The wrappers
are installed from the benchmark's side: names the runners imported into
`wildquery.experiments` are rebound there, because rebinding them in their
home module would not reach the runner; `ChordNetwork` methods and
`QueryPattern.from_configuration` are patched on their classes, so calls
made from inside the library (`wildcard_query` calling `lookup`,
`random_pattern` calling `from_configuration`) are traced too.
"""

from __future__ import annotations

import math
import time
from array import array

# (owner attribute, span name): functions the runners reach by module name
EXPERIMENT_NAMES = (
    ("random_trie", "trie.random_trie"),
    ("backtracking_query", "wildcard.backtracking_query"),
    ("random_pattern", "wildcard.random_pattern"),
    ("sample_configuration", "wildcard.sample_configuration"),
    ("config_step_bound", "analysis.config_step_bound"),
    ("mean_step_bound", "analysis.mean_step_bound"),
    ("build_network", "dht.build_network"),
    ("_halving_ok", "experiments.halving_check"),
)

CHORD_METHODS = (
    ("lookup", "dht.lookup"),
    ("wildcard_query", "dht.wildcard_query"),
    ("distribute_entries", "dht.distribute_entries"),
    ("stored_keys", "dht.stored_keys"),
)

PATTERN_SPANS = (
    "wildcard.random_pattern",
    "wildcard.sample_configuration",
    "wildcard.from_configuration",
)
BOUND_SPANS = ("analysis.config_step_bound", "analysis.mean_step_bound")

# counts that no optimisation may change; any drift between passes of one
# seed, or from the pinned value, fails the pass
TRACED_EXACT = (
    "wildcard.steps_total",
    "dht.hops_total",
    "dht.error_lookups",
    "dht.entries_placed",
    "trie.keys_inserted",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _nearest_rank(ordered, q):
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Records spans for one pass; single-threaded by construction."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.tally = dict.fromkeys(
            ("steps", "matches", "expansions", "hops", "errors", "correct",
             "entries", "keys"),
            0,
        )

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def leave(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """Return `fn` wrapped in a span. `observe(args, kwargs, result)`
        runs after the span closes, in a sibling `trace.count` span, so
        counting adds to no layer's self time."""
        nid = self._id(name)
        count_id = self._id("trace.count")
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                j = len(start)
                name_id.append(count_id)
                parent.append(stack[-1])
                end.append(0.0)
                start.append(clock())
                observe(args, kwargs, result)
                end[j] = clock()
            return result

        return traced

    def install(self, experiments, chord_network, query_pattern) -> None:
        """Wrap every layer entry point the runners call."""
        t = self.tally

        def on_trie(args, kwargs, trie):
            t["keys"] += _arg(args, kwargs, 2, "population")

        def on_query(args, kwargs, res):
            t["steps"] += res.steps
            t["matches"] += len(res.matches)
            t["expansions"] += len(res.per_key_steps)

        def on_lookup(args, kwargs, out):
            t["hops"] += out.hops
            t["errors"] += out.error_case
            t["correct"] += out.correct

        def on_distribute(args, kwargs, net):
            t["entries"] += _arg(args, kwargs, 1, "count")

        observers = {
            "trie.random_trie": on_trie,
            "wildcard.backtracking_query": on_query,
            "dht.lookup": on_lookup,
            "dht.distribute_entries": on_distribute,
        }
        for attr, name in EXPERIMENT_NAMES:
            fn = getattr(experiments, attr)
            setattr(experiments, attr, self.wrap(name, fn, observers.get(name)))
        for attr, name in CHORD_METHODS:
            fn = getattr(chord_network, attr)
            setattr(chord_network, attr, self.wrap(name, fn, observers.get(name)))
        bound = query_pattern.from_configuration  # classmethod bound to the class
        query_pattern.from_configuration = staticmethod(
            self.wrap("wildcard.from_configuration", bound)
        )

    def summary(self, report) -> dict:
        """Per-layer metrics of this pass, derived from the spans."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        incl = dict.fromkeys(self.names, 0.0)
        own = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        samples: dict[str, list[float]] = {
            "wildcard.backtracking_query": [], "dht.lookup": [],
        }
        self_sum = 0.0
        for i in range(n):
            name = self.names[name_id[i]]
            incl[name] += dur[i]
            own[name] += dur[i] - child[i]
            self_sum += dur[i] - child[i]
            calls[name] += 1
            if name in samples:
                samples[name].append(dur[i])

        def total(table, names):
            return sum(table.get(x, 0.0) for x in names)

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        t = self.tally
        q_us = sorted(d * 1e6 for d in samples["wildcard.backtracking_query"])
        l_us = sorted(d * 1e6 for d in samples["dht.lookup"])
        queries = calls.get("wildcard.backtracking_query", 0)
        lookups = calls.get("dht.lookup", 0)
        # trie runners write one row per query with its exact bound in bound_num
        bound_sum = sum(row.bound_num for row in report.rows) if queries else 0
        build_s = incl.get("trie.random_trie", 0.0)
        bound_s = total(incl, BOUND_SPANS)
        bound_calls = sum(calls.get(x, 0) for x in BOUND_SPANS)
        distribute_s = incl.get("dht.distribute_entries", 0.0)
        layers = {
            "trie.build_s": build_s,
            "trie.build_calls": calls.get("trie.random_trie", 0),
            "trie.keys_inserted": t["keys"],
            "trie.build_us_per_key": per(build_s, t["keys"], 1e6),
            "wildcard.query_s": incl.get("wildcard.backtracking_query", 0.0),
            "wildcard.queries": queries,
            "wildcard.query_us_p50": _nearest_rank(q_us, 0.5),
            "wildcard.query_us_p999": _nearest_rank(q_us, 0.999),
            "wildcard.steps_total": t["steps"],
            "wildcard.steps_per_bound": per(t["steps"], bound_sum),
            "wildcard.match_ratio": per(t["matches"], t["expansions"]),
            "wildcard.pattern_s": total(own, PATTERN_SPANS),
            "analysis.bound_s": bound_s,
            "analysis.bound_calls": bound_calls,
            "analysis.bound_us_per_call": per(bound_s, bound_calls, 1e6),
            "dht.lookup_s": incl.get("dht.lookup", 0.0),
            "dht.lookups": lookups,
            "dht.lookup_us_p50": _nearest_rank(l_us, 0.5),
            "dht.lookup_us_p999": _nearest_rank(l_us, 0.999),
            "dht.hops_total": t["hops"],
            "dht.hops_per_lookup": per(t["hops"], lookups),
            "dht.error_lookups": t["errors"],
            "dht.correct_ratio": per(t["correct"], lookups),
            "dht.wildcard_query_self_s": own.get("dht.wildcard_query", 0.0),
            "dht.wildcard_queries": calls.get("dht.wildcard_query", 0),
            "dht.distribute_s": distribute_s,
            "dht.entries_placed": t["entries"],
            "dht.distribute_us_per_entry": per(distribute_s, t["entries"], 1e6),
            "dht.build_s": incl.get("dht.build_network", 0.0),
            "dht.stored_keys_s": incl.get("dht.stored_keys", 0.0),
            "experiments.runner_self_s": own.get("experiments.runner", 0.0),
            "experiments.halving_check_s": incl.get("experiments.halving_check", 0.0),
            "experiments.emit_s": incl.get("experiments.emit", 0.0),
        }
        return {"layers": layers, "self_sum_s": self_sum, "spans": n}

    def write(self, path) -> None:
        """Write this pass's spans as TSV, times relative to the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        names, name_id, parent = self.names, self.name_id, self.parent
        start, end, pid = self.start, self.end, self.pass_id
        with open(path, "w") as handle:
            handle.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
            handle.writelines(
                f"{pid}\t{i}\t{parent[i]}\t{names[name_id[i]]}\t"
                f"{start[i] - origin:.9f}\t{end[i] - origin:.9f}\n"
                for i in range(len(start))
            )
