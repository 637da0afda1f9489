"""The traced benchmark's hooks still name real library entry points.

perfbench/tracing.py wraps functions the experiment runners reach through
`wildquery.experiments` and methods of `ChordNetwork` by name, and reads
counts from fixed positional arguments (`distribute_entries`' entry
count, `random_trie`'s population).
The unit tests never run the benchmark, so a rename here would otherwise
surface only as a broken traced run.
"""

import importlib.util
import inspect
from pathlib import Path

from wildquery import experiments
from wildquery.dht import ChordNetwork

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _load_tracing()
    for attr, _span in tracing.EXPERIMENT_NAMES:
        assert callable(getattr(experiments, attr, None)), attr
    for attr, _span in tracing.CHORD_METHODS:
        assert callable(getattr(ChordNetwork, attr, None)), attr


def test_counted_arguments_sit_where_the_tracer_reads_them():
    # on_distribute reads args[1] (args[0] is the network itself) and
    # on_trie reads args[2] of random_trie
    params = list(inspect.signature(ChordNetwork.distribute_entries).parameters)
    assert params[:2] == ["self", "count"]
    params = list(inspect.signature(experiments.random_trie).parameters)
    assert params[2] == "population"
