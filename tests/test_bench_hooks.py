"""The traced benchmark's hooks still name real library entry points.

perfbench/tracing.py wraps functions the experiment runners reach through
`wildquery.experiments` and methods of `ChordNetwork` by name, reads
counts from fixed positional arguments (`distribute_entries`' entry
count, `random_trie`'s population) and from named result fields, and
counts one traced lookup per wildcard expansion.
The unit tests never run the benchmark, so a rename here would otherwise
surface only as a broken traced run.
"""

import importlib.util
import inspect
import random
from collections import Counter
from pathlib import Path

from test_golden import GOLDEN

from wildquery import experiments
from wildquery.dht import (
    ChordNetwork,
    LookupOutcome,
    RingQueryResult,
    build_network,
)
from wildquery.trie import random_trie
from wildquery.wildcard import QueryPattern, QueryResult, random_pattern

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Load perfbench/<name>.py read-only, without touching sys.path."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _load("tracing")
    for attr, _span in tracing.EXPERIMENT_NAMES:
        assert callable(getattr(experiments, attr, None)), attr
    for attr, _span in tracing.CHORD_METHODS:
        assert callable(getattr(ChordNetwork, attr, None)), attr


def test_benchmark_and_golden_configs_set_only_their_table_keys():
    # perfbench/run.py builds ExperimentConfig from each workload's config,
    # the goldens from their params; neither may set a parameter the
    # experiment does not read, nor a chord mode other than its fixed one
    workloads = _load("run").WORKLOADS
    configs = [dict(w["config"]) for w in workloads.values()]
    configs += [{"experiment": name, **params} for name, params, *_ in GOLDEN]
    for config in configs:
        name = config.pop("experiment")
        _, params = experiments.EXPERIMENTS[name]
        assert config.keys() <= params.keys(), (name, config)
        if "mode" in params:
            assert config.get("mode") == params["mode"], (name, config)


# calls each runner makes through the names the tracer rebinds, at the
# last golden config of each experiment
TRACED_CALLS = {
    "trie-exact": {
        "backtracking_query": 10, "config_step_bound": 10, "mean_step_bound": 1,
    },
    "trie-random": {
        "backtracking_query": 300, "config_step_bound": 300,
        "mean_step_bound": 1, "random_pattern": 300, "random_trie": 3,
    },
    "identity-sweep": {"mean_step_bound": 55},
    "position-law": {"sample_configuration": 20000},
    "chord-single": {"_halving_ok": 4096, "build_network": 1},
    "chord-wildcard": {
        "build_network": 1, "config_step_bound": 60, "mean_step_bound": 1,
        "random_pattern": 60,
    },
    "chord-decay": {"build_network": 60},
}


def test_runners_call_traced_names_through_module_globals(monkeypatch):
    # a runner that captured one of these names before the tracer rebinds
    # it would bypass the wrapper, and the traced pins would drift
    calls = Counter()
    for attr, _span in _load("tracing").EXPERIMENT_NAMES:

        def counted(*args, _fn=getattr(experiments, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiments, attr, counted)
    last = {name: params for name, params, *_ in GOLDEN}
    assert set(last) == set(experiments.EXPERIMENTS) == set(TRACED_CALLS)
    for name, params in last.items():
        calls.clear()
        experiments.run_experiment(
            experiments.ExperimentConfig(experiment=name, seed=7, **params)
        )
        assert dict(calls) == TRACED_CALLS[name], name


# ChordNetwork.lookup calls of each ring runner at its last golden config;
# the traced dht.lookups and dht.hops_total pins count every one, so a
# runner may make a lookup faster but may not skip it
LOOKUP_CALLS = {"chord-single": 4096, "chord-wildcard": 480, "chord-decay": 3000}


def test_ring_runners_make_every_lookup(monkeypatch):
    calls = Counter()
    lookup = ChordNetwork.lookup

    def counted(self, d, start):
        calls[d, start] += 1
        return lookup(self, d, start)

    monkeypatch.setattr(ChordNetwork, "lookup", counted)
    last = {name: params for name, params, *_ in GOLDEN}
    for name, expected in LOOKUP_CALLS.items():
        calls.clear()
        experiments.run_experiment(
            experiments.ExperimentConfig(experiment=name, seed=7, **last[name])
        )
        assert calls.total() == expected, name
        if name == "chord-single":
            # the m=8, n=16 sweep looks up each (target, start) pair once,
            # though each owner's routes recur 2**8 / 16 times on average
            assert set(calls.values()) == {1}


def test_counted_arguments_sit_where_the_tracer_reads_them():
    # on_distribute reads args[1] (args[0] is the network itself) and
    # on_trie reads args[2] of random_trie
    params = list(inspect.signature(ChordNetwork.distribute_entries).parameters)
    assert params[:2] == ["self", "count"]
    params = list(inspect.signature(experiments.random_trie).parameters)
    assert params[2] == "population"


def test_result_fields_the_tracer_reads():
    # on_lookup reads hops, error_case and correct; on_query reads steps,
    # matches and per_key_steps
    assert {"hops", "error_case", "correct"} <= set(LookupOutcome._fields)
    assert {"steps", "matches", "per_key_steps"} <= set(QueryResult._fields)


def test_rows_expose_the_fields_perfbench_reads():
    # perfbench/worker.py's verify gates on row.ok, and tracing.py's
    # summary sums row.bound_num over the trie runners' rows
    report = experiments.run_experiment(
        experiments.ExperimentConfig(experiment="trie-exact", seed=7, m=3, w=1)
    )
    assert [row.ok for row in report.rows] == [True] * 3
    assert [row.bound_num for row in report.rows] == [
        experiments.config_step_bound(3, 1, (z,), 2) for z in (1, 2, 3)
    ]


def test_query_takes_trie_and_pattern_and_charges_every_expansion():
    # the trie-search shape: trie-random at k=2, m=12, w=4 over 1,024 keys;
    # the runners pass (trie, pattern) positionally, and on_query counts
    # len(per_key_steps) as the expansions and reads steps beside it
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    params = inspect.signature(experiments.backtracking_query).parameters
    assert [(p.name, p.kind) for p in params.values()] == [
        ("trie", positional), ("pattern", positional),
    ]
    trie = random_trie(2, 12, 1024, 3)
    rng = random.Random(3)
    for _ in range(50):
        res = experiments.backtracking_query(trie, random_pattern(12, 4, 2, rng))
        assert type(res) is QueryResult
        assert len(res.per_key_steps) == 2**4
        assert sum(res.per_key_steps) == res.steps


def test_wildcard_query_calls_lookup_once_per_expansion(monkeypatch):
    # the traced dht.lookups and dht.hops_total pins count these calls
    calls = []
    lookup = ChordNetwork.lookup

    def counted(self, d, start):
        calls.append(d)
        return lookup(self, d, start)

    monkeypatch.setattr(ChordNetwork, "lookup", counted)
    net = build_network(16, 6, seed=1)
    pattern = QueryPattern.from_string("0*1*0*")
    res = net.wildcard_query(pattern, 0)
    assert len(calls) == 8
    assert calls == list(pattern.expansions(2))
    assert len(res.per_key_hops) == 8
    assert type(res) is RingQueryResult


def test_emit_is_a_module_global_called_with_report_fmt_path(tmp_path):
    # perfbench/worker.py reads experiments.emit, wraps it when traced and
    # calls it positionally as emit(report, fmt, path) for csv, then json
    assert "emit" in vars(experiments)
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    params = inspect.signature(experiments.emit).parameters
    assert [(p.name, p.kind) for p in params.values()] == [
        ("report", positional), ("fmt", positional), ("path", positional),
    ]
    report = experiments.run_experiment(
        experiments.ExperimentConfig(experiment="trie-exact", seed=7, m=3, w=1)
    )
    for fmt in ("csv", "json"):
        path = tmp_path / f"report.{fmt}"
        experiments.emit(report, fmt, str(path))
        assert path.stat().st_size > 0, fmt
