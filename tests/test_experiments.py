import contextlib
import csv
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN, _case_id

from wildquery import experiments
from wildquery import cli
from wildquery.cli import build_parser, config_from_args, main
from wildquery.dht import ENTRY_BOUND, FULL, ChordNetwork, build_network
from wildquery.experiments import (
    MAX_ENTRIES_FACTOR,
    MAX_TRIE_KEYS,
    ExperimentConfig,
    ExperimentFailure,
    ExperimentReport,
    Row,
    SizingError,
    emit,
    run_chord_decay,
    run_chord_single,
    run_chord_wildcard,
    run_experiment,
    run_identity_sweep,
    run_position_law,
    run_trie_exact,
    run_trie_random,
)
from wildquery.wildcard import random_pattern


def cfg(experiment, **kw):
    kw.setdefault("seed", 7)
    return ExperimentConfig(experiment=experiment, **kw)


def reference_halving_ok(net, d, path):
    """Oracle: the halving check as it was before it kept verdicts; it
    finds the owner and walks the whole path on every call."""
    t = net.successor_of(d)
    tkey = net.node_keys[t]
    mask = net.size - 1
    prev = (tkey - net.node_keys[path[0]]) & mask
    for addr in path[1:]:
        cur = (tkey - net.node_keys[addr]) & mask
        if cur > prev // 2:
            return False
        prev = cur
    return True


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _cli_params(params):
    """The parameters a subcommand takes as flags: all but the fixed mode."""
    return {dest: value for dest, value in params.items() if dest != "mode"}


# every experiment parameter of ExperimentConfig, the fixed mode included
_PARAMETERS = [
    name for name in ExperimentConfig._fields
    if name not in ("experiment", "seed", "fmt", "out")
]
# (experiment, parameter) for each parameter the experiment does not read
_UNREAD = [
    (name, dest)
    for name, (_, params) in experiments.EXPERIMENTS.items()
    for dest in _PARAMETERS
    if dest not in _cli_params(params)
]


_RUN_BUDGET_S = 20.0  # a golden config runs in well under a second
_REFUSAL_BUDGET_S = 1.0  # a guard refuses before any run or ring fill


class _Overrun(Exception):
    """A CLI run outlived its time budget."""


def _run_main(args, budget_s):
    """Run the CLI in-process; return its exit code and stderr.

    argparse's SystemExit gives the exit code. A SIGALRM after `budget_s`
    ends a run that would otherwise hang the test.
    """

    def overrun(signum, frame):
        raise _Overrun(f"{args} still running after {budget_s} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()
        ):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


class TestRunners:
    def test_trie_exact_rows_and_mean(self):
        report = run_trie_exact(cfg("trie-exact", m=2, w=1))
        assert [row.measured for row in report.rows] == [4, 6]
        assert report.aggregates["measured_mean"] == {
            "num": 5, "den": 1, "decimal": 5.0,
        }
        assert report.aggregates["mean_equals_bound"]

    def test_trie_exact_ternary_spot(self):
        report = run_trie_exact(cfg("trie-exact", m=1, w=1, k=3))
        assert report.aggregates["bound_mean"]["num"] == 5

    def test_trie_exact_sizing(self):
        with pytest.raises(SizingError):
            run_trie_exact(cfg("trie-exact", m=40, w=5))

    @pytest.mark.parametrize("name", ["trie-exact", "trie-random"])
    @pytest.mark.parametrize("m, k", [(10_000_000, 3), (8, 10**20)])
    def test_trie_guards_refuse_huge_sizes_at_once(self, name, m, k):
        # k**m is never formed: at m = 10**7 that alone takes seconds, and
        # its decimal digits exceed what str() may convert
        started = time.perf_counter()
        with pytest.raises(SizingError, match=str(MAX_TRIE_KEYS)) as err:
            run_experiment(cfg(name, m=m, w=0, k=k, population=0, trials=1))
        assert time.perf_counter() - started < 0.5
        assert len(str(err.value)) < 80  # the hint holds no huge number

    def test_trie_random_bounds_hold(self):
        report = run_trie_random(
            cfg("trie-random", m=10, w=3, population=400, trials=300)
        )
        assert all(row.ok for row in report.rows)
        assert report.aggregates["bound_violations"] == 0
        assert report.aggregates["mean_within_3_sigma"]

    def test_trie_random_empty_population(self):
        report = run_trie_random(
            cfg("trie-random", m=6, w=2, population=0, trials=50)
        )
        assert all(row.measured == 0 for row in report.rows)

    def test_trie_random_full_population_mean_hits_bound(self):
        report = run_trie_random(
            cfg("trie-random", m=6, w=2, population=64, trials=200)
        )
        # complete trie: every trial is exactly tight
        assert all(row.measured == row.bound_num for row in report.rows)

    def test_identity_sweep(self):
        report = run_identity_sweep(cfg("identity-sweep", m=8))
        assert report.aggregates["all_equal"]
        kinds = {row.param.split("-")[0] for row in report.rows}
        assert kinds == {"mean", "convolution"}

    def test_position_law(self):
        report = run_position_law(cfg("position-law", m=6, w=2, trials=30000, seed=1))
        assert report.aggregates["sums_exact"]
        assert report.aggregates["all_within_3_sigma"]
        assert len(report.rows) == 2 * 6

    def test_chord_single_sampled(self):
        report = run_chord_single(
            cfg("chord-single", m=10, n=128, trials=300, mode="full")
        )
        assert report.aggregates["all_correct"]
        assert report.aggregates["max_hops"] <= 10

    def test_chord_single_exhaustive_small(self):
        report = run_chord_single(
            cfg("chord-single", m=7, n=16, trials=0, mode="full")
        )
        assert len(report.rows) == 1 << 7
        assert report.aggregates["lookups"] == (1 << 7) * 16

    @pytest.mark.parametrize("trials", [0, 20])
    @pytest.mark.parametrize(
        "fault", ["error", "incorrect", "too-many-hops", "no-halving"]
    )
    def test_chord_single_refuses_a_bad_lookup(self, trials, fault, monkeypatch):
        # the sweep (trials=0) and the sampled mode check every outcome and
        # raise at the first bad one
        m = 8
        calls = []
        lookup = ChordNetwork.lookup

        def faulty(net, d, start):
            out = lookup(net, d, start)
            calls.append((d, start, out.path))
            if fault == "error":
                return out._replace(found=False, correct=True, error_case=True)
            if fault == "incorrect":
                return out._replace(correct=False)
            if fault == "too-many-hops":
                return out._replace(hops=m + 1)
            return out

        monkeypatch.setattr(ChordNetwork, "lookup", faulty)
        if fault == "no-halving":
            monkeypatch.setattr(experiments, "_halving_ok", lambda *args: False)
        with pytest.raises(ExperimentFailure) as caught:
            run_chord_single(
                cfg("chord-single", m=m, n=16, trials=trials, mode="full")
            )
        [(d, start, path)] = calls
        assert str(caught.value) == {
            "error": f"incorrect lookup d={d} start={start}",
            "incorrect": f"incorrect lookup d={d} start={start}",
            "too-many-hops": f"{m + 1} hops > m={m} for d={d} start={start}",
            "no-halving": f"halving violated on path {path} for d={d}",
        }[fault]

    def test_halving_check_refuses_a_hop_that_does_not_halve(self):
        # keys 0, 4, 8, 12 on the 16-ring; the owner of d=0 is node 0,
        # 12 away from node 1 (key 4)
        net = ChordNetwork(4, [0, 4, 8, 12])
        assert experiments._halving_ok(net, 0, (1,), set())
        assert experiments._halving_ok(net, 0, (1, 3), set())  # 12 -> 4
        assert not experiments._halving_ok(net, 0, (1, 2), set())  # 12 -> 8 > 6
        assert not experiments._halving_ok(net, 0, (1, 3, 2), set())  # 4 -> 8

    @pytest.mark.parametrize("m, n", [(7, 16), (5, 2), (4, 16), (6, 3)])
    def test_kept_verdicts_agree_with_the_oracle_over_a_sweep(self, m, n):
        # one set per owner in the sweep order, with hand-made non-halving
        # paths checked between the lookups' own paths
        net = ChordNetwork(m, random.Random(m * n).sample(range(1 << m), n))
        owner = None
        for d in range(net.size):
            t = net.successor_of(d)
            if t != owner:
                owner, approved = t, set()
            for start in range(n):
                path = net.lookup(d, start).path
                bad = [
                    p for p in (path[::-1], path + (path[0],), (0,) + path)
                    if not reference_halving_ok(net, d, p)
                ]
                for p in (path, *bad, path):
                    assert experiments._halving_ok(
                        net, t, p, approved
                    ) == reference_halving_ok(net, d, p)
                assert len(approved) <= n
                assert all(reference_halving_ok(net, d, p) for p in approved)

    @pytest.mark.parametrize("trials", [0, 50])
    def test_runner_checks_toward_the_owner_with_a_set_per_owner(
        self, monkeypatch, trials
    ):
        check = experiments._halving_ok
        calls = []
        lookup = ChordNetwork.lookup

        def recording_lookup(net, d, start):
            calls.append([net, d])
            return lookup(net, d, start)

        def recording(net, t, path, approved):
            # the set itself, not just its id, so no id is reused
            calls[-1] += [t, approved]
            return check(net, t, path, approved)

        monkeypatch.setattr(ChordNetwork, "lookup", recording_lookup)
        monkeypatch.setattr(experiments, "_halving_ok", recording)
        m, n = 6, 8
        run_chord_single(cfg("chord-single", m=m, n=n, trials=trials))
        assert len(calls) == ((1 << m) * n if trials == 0 else trials)
        owners = {}
        for net, d, t, approved in calls:
            assert t == net.successor_of(d)
            assert owners.setdefault(id(approved), t) == t
        assert len(owners) > 1
        # keys 0, 4, 8, 12: (1, 3) goes 12 -> 4 toward key 0, but 4 -> 12
        # toward key 8, which a fresh set refuses
        net = ChordNetwork(4, [0, 4, 8, 12])
        approved = set()
        assert check(net, 0, (1, 3), approved)
        assert approved == {(1, 3)}
        assert not check(net, 2, (1, 3), set())
        assert not reference_halving_ok(net, 8, (1, 3))

    def test_sweep_refuses_a_fresh_bad_path_on_a_repeated_route(
        self, monkeypatch
    ):
        # the second time the sweep meets an (owner, start) route with two
        # or more hops, lookup hands back an equal-length copy with its
        # last two hops swapped, which moves away from the owner
        seen, bad = set(), []
        lookup = ChordNetwork.lookup

        def faulty(net, d, start):
            out = lookup(net, d, start)
            route = (net.successor_of(d), start)
            if len(out.path) >= 3 and route in seen and not bad:
                path = out.path[:-2] + (out.path[-1], out.path[-2])
                bad.append((d, path))
                return out._replace(path=path)
            seen.add(route)
            return out

        monkeypatch.setattr(ChordNetwork, "lookup", faulty)
        with pytest.raises(ExperimentFailure) as caught:
            run_chord_single(cfg("chord-single", m=8, n=16, trials=0))
        [(d, path)] = bad
        assert str(caught.value) == f"halving violated on path {path} for d={d}"

    def test_sweep_keeps_at_most_n_verdicts(self, monkeypatch):
        m, n = 8, 16
        check = experiments._halving_ok
        held = []

        def counting(net, t, path, approved):
            ok = check(net, t, path, approved)
            held.append(len(approved))
            return ok

        monkeypatch.setattr(experiments, "_halving_ok", counting)
        run_chord_single(cfg("chord-single", m=m, n=n, trials=0))
        assert len(held) == (1 << m) * n
        assert max(held) == n

    def test_chord_single_requires_full_mode(self):
        with pytest.raises(
            SizingError, match="needs finger mode 'full', got 'entry-bound'"
        ):
            run_chord_single(
                cfg("chord-single", m=10, n=64, trials=10, mode="entry-bound")
            )

    def test_chord_wildcard_without_wildcards(self):
        report = run_chord_wildcard(
            cfg("chord-wildcard", m=12, w=0, n=256, trials=100,
                entries_factor=2, mode="full")
        )
        # single lookups: within m hops each
        assert all(row.measured <= 12 for row in report.rows)
        assert report.aggregates["mean_under_half_naive"] is None

    def test_chord_wildcard(self):
        report = run_chord_wildcard(
            cfg("chord-wildcard", m=12, w=3, n=256, trials=40,
                entries_factor=4, mode="full")
        )
        assert all(row.ok for row in report.rows)
        assert report.aggregates["mean_under_bound_plus_m"]
        assert report.aggregates["mean_under_half_naive"]
        assert 0 <= report.aggregates["sharp_locality_rate"] <= 1

    def test_chord_decay_trend(self):
        report = run_chord_decay(
            cfg("chord-decay", m=12, n=64, trials=60, entries_factor=4,
                mode="entry-bound")
        )
        rates = report.aggregates["error_rate_by_factor"]
        assert list(rates) == ["1", "2", "4"]
        assert rates["1"] >= rates["2"] >= rates["4"] == 0.0
        assert report.aggregates["monotone_non_increasing"]

    # n = 64 is a power of two, so randrange(n) rejects about half its 7-bit
    # draws; n = 48 rejects a quarter of its 6-bit ones
    @pytest.mark.parametrize("n", [64, 48])
    def test_chord_decay_makes_the_choice_and_randrange_draws(
        self, n, monkeypatch
    ):
        # the runner's lookups, in order, against rng.choice(stored) then
        # rng.randrange(n) replayed from each (C, s) generator
        m, factor = 12, 4
        seen = []
        real_lookup = ChordNetwork.lookup

        def recording_lookup(net, d, start):
            seen.append((d, start))
            return real_lookup(net, d, start)

        monkeypatch.setattr(ChordNetwork, "lookup", recording_lookup)
        trials = 40
        run_chord_decay(
            cfg("chord-decay", m=m, n=n, trials=trials, entries_factor=factor,
                mode="entry-bound")
        )
        monkeypatch.undo()

        want = []
        stored_lengths = set()
        for f in [1 << i for i in range(factor.bit_length())]:
            for s in range(experiments.DECAY_SEEDS):
                net = build_network(n, m, f"7|net|{f}|{s}", ENTRY_BOUND)
                net.distribute_entries(f * m * n, f"7|entries|{f}|{s}")
                stored = net.stored_keys()
                stored_lengths.add(len(stored))
                rng = random.Random(f"7|lookups|{f}|{s}")
                for _ in range(trials):
                    d = rng.choice(stored)
                    want.append((d, rng.randrange(n)))
        assert seen == want
        assert any(x & (x - 1) for x in stored_lengths), (
            "every len(stored) was a power of two"
        )

    @pytest.mark.parametrize("seed", [7, "ring", "ünï|cödé"])
    @pytest.mark.parametrize("name", ["trie-random", "chord-wildcard"])
    def test_each_trial_patterns_from_the_state_of_its_str_seeded_generator(
        self, name, seed, monkeypatch
    ):
        # the generator's state as each trial's random_pattern gets it,
        # against a fresh random.Random("<seed>|trial|<i>") per trial
        states = []
        real_pattern = experiments.random_pattern

        def recording_pattern(m, w, k, rng):
            states.append(rng.getstate())
            return real_pattern(m, w, k, rng)

        monkeypatch.setattr(experiments, "random_pattern", recording_pattern)
        trials = 40
        run_experiment(
            cfg(name, seed=seed, m=8, w=2, k=2, n=16, population=64,
                trials=trials)
        )
        want = [
            random.Random(f"{seed}|trial|{i}").getstate() for i in range(trials)
        ]
        assert states == want

    @pytest.mark.parametrize("seed", [7, "ring", "ünï|cödé"])
    def test_chord_single_samples_each_trial_from_its_str_seeded_generator(
        self, seed, monkeypatch
    ):
        # the sampled (d, start) of each trial against rng.randrange(2**m)
        # then rng.randrange(n) from random.Random("<seed>|trial|<i>")
        m, n, trials = 8, 16, 40
        seen = []
        real_lookup = ChordNetwork.lookup

        def recording_lookup(net, d, start):
            seen.append((d, start))
            return real_lookup(net, d, start)

        monkeypatch.setattr(ChordNetwork, "lookup", recording_lookup)
        run_chord_single(cfg("chord-single", seed=seed, m=m, n=n, trials=trials))
        want = []
        for i in range(trials):
            rng = random.Random(f"{seed}|trial|{i}")
            want.append((rng.randrange(1 << m), rng.randrange(n)))
        assert seen == want

    # n = 64 and 1024 are powers of two, so randrange(n) rejects about half
    # its draws; n = 48 rejects a quarter
    @pytest.mark.parametrize("n", [64, 48, 1024])
    def test_chord_wildcard_starts_are_the_randrange_draws(
        self, n, monkeypatch
    ):
        # the runner's starts, in order, against random_pattern then
        # rng.randrange(n) replayed from each trial's str-seeded generator
        m, w, trials = 12, 3, 60
        seen = []
        real_query = ChordNetwork.wildcard_query

        def recording_query(net, pattern, start):
            seen.append((pattern, start))
            return real_query(net, pattern, start)

        monkeypatch.setattr(ChordNetwork, "wildcard_query", recording_query)
        run_chord_wildcard(cfg("chord-wildcard", m=m, w=w, n=n, trials=trials))
        monkeypatch.undo()

        want = []
        for trial in range(trials):
            rng = random.Random(f"7|trial|{trial}")
            pattern = random_pattern(m, w, 2, rng)
            want.append((pattern, rng.randrange(n)))
        assert seen == want

    @pytest.mark.parametrize(
        "name, mode",
        [("chord-single", "full"), ("chord-wildcard", "full"),
         ("chord-decay", "entry-bound")],
    )
    def test_ring_runners_cap_entries_factor_before_building(
        self, name, mode, monkeypatch
    ):
        def must_not_build(*args):
            raise AssertionError("a ring was built despite the entries cap")

        monkeypatch.setattr(experiments, "build_network", must_not_build)
        with pytest.raises(SizingError, match=str(MAX_ENTRIES_FACTOR)):
            run_experiment(
                cfg(name, m=8, w=2, n=16, trials=10, mode=mode,
                    entries_factor=MAX_ENTRIES_FACTOR + 1)
            )

    def test_chord_single_runs_on_an_empty_ring(self):
        # unlike the other ring runners, chord-single needs no stored keys
        report = run_chord_single(
            cfg("chord-single", m=6, n=8, trials=50, entries_factor=0)
        )
        assert report.aggregates["all_correct"]

    def test_chord_decay_rejects_factor_zero(self):
        with pytest.raises(SizingError):
            run_chord_decay(
                cfg("chord-decay", m=12, n=64, trials=10, entries_factor=0,
                    mode="entry-bound")
            )

    def test_unknown_experiment(self):
        with pytest.raises(SizingError):
            run_experiment(cfg("warp-drive"))


# the CSV header README documents
CSV_HEADER = (
    "experiment,m,w,k,n,param,trial,measured,bound_num,bound_den,ratio,ok,seed"
)


def _old_emit(report, fmt, path):
    """The writer emit replaced, kept as its byte oracle: json.dump with
    indent=2 over the whole payload, and one dict per CSV row."""
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_HEADER.split(","))
            for row in report.rows:
                writer.writerow(
                    {**row._asdict(), "ok": "true" if row.ok else "false"}.values()
                )
    else:
        payload = {
            "experiment": report.experiment,
            "version": report.version,
            "config": report.config,
            "rows": [row._asdict() for row in report.rows],
            "aggregates": report.aggregates,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def _assert_emits_as_oracle(report, tmp_path, formats=("csv", "json")):
    for fmt in formats:
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        emit(report, fmt, got)
        _old_emit(report, fmt, want)
        assert got.read_bytes() == want.read_bytes(), fmt


# string cells json must escape and % must not format, every float
# json spells by name, and None
SPECIAL_SEEDS = ["caf\u00e9 \u2713", "100%", '"q"', "back\\slash", "nul\x00byte",
                 "%s%%", "a,b\tc\nd", 7]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.1, 3, None]


def _special_report(n_rows):
    seeds, floats = SPECIAL_SEEDS, SPECIAL_FLOATS
    rows = [
        Row(
            "trie-exact", None if i % 3 == 0 else i, i % 4, 2, None,
            f"%d {seeds[i % len(seeds)]}", i,
            floats[i % (len(floats) - 1)],  # measured is never None
            i + 1, 3, floats[(i + 1) % len(floats)], i % 2 == 0,
            seeds[i % len(seeds)],
        )
        for i in range(n_rows)
    ]
    aggregates = {
        "mean": math.nan, "max": math.inf, "min": -math.inf, "none": None,
        "nested": {
            "list": [1, 2.5, None, "\u00e9%\x00\"", {"deep": [-math.inf, True]}],
            "empty_list": [], "empty_dict": {},
        },
    }
    config = {"experiment": "trie-exact", "seed": "\u00e9%\"\\\x00", "m": None}
    return ExperimentReport("trie-exact", config, "0", rows, aggregates)


class TestEmit:
    @pytest.mark.parametrize("case", GOLDEN, ids=map(_case_id, GOLDEN))
    def test_golden_reports_match_the_old_writer(self, case, tmp_path):
        name, params, *_ = case
        report = run_experiment(ExperimentConfig(experiment=name, seed=7, **params))
        _assert_emits_as_oracle(report, tmp_path)

    # 0 and 1 row, and either side of the 64-row encode chunks
    @pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 130])
    def test_special_values_match_the_old_writer(self, n_rows, tmp_path):
        _assert_emits_as_oracle(_special_report(n_rows), tmp_path)

    def test_empty_json_report(self, tmp_path):
        report = ExperimentReport(
            experiment="trie-exact", config={}, version="0", rows=[],
            aggregates={},
        )
        _assert_emits_as_oracle(report, tmp_path, formats=("json",))
        assert (tmp_path / "got.json").read_text() == (
            '{\n  "experiment": "trie-exact",\n  "version": "0",\n'
            '  "config": {},\n  "rows": [],\n  "aggregates": {}\n}\n'
        )

    def test_csv_header_and_shape(self, tmp_path):
        report = run_trie_exact(cfg("trie-exact", m=2, w=1))
        path = tmp_path / "r.csv"
        emit(report, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        assert lines[1] == "trie-exact,2,1,2,,1,0,4,4,1,1.0,true,7"

    def test_json_mirrors_rows_and_aggregates(self, tmp_path):
        report = run_trie_exact(cfg("trie-exact", m=2, w=1))
        path = tmp_path / "r.json"
        emit(report, "json", path)
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "trie-exact"
        assert payload["config"]["m"] == 2
        assert len(payload["rows"]) == len(report.rows)
        assert payload["rows"][0]["measured"] == 4
        assert payload["aggregates"]["mean_equals_bound"] is True
        assert "wall_clock_s" not in payload

    def test_reruns_are_byte_identical(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            report = run_chord_wildcard(
                cfg("chord-wildcard", m=10, w=2, n=64, trials=20,
                    entries_factor=2, mode="full")
            )
            for fmt in ("csv", "json"):
                path = tmp_path / f"{name}.{fmt}"
                emit(report, fmt, path)
                paths.append(path)
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[1].read_bytes() == paths[3].read_bytes()

    def test_empty_report_is_header_only(self, tmp_path):
        report = ExperimentReport(
            experiment="trie-exact", config={}, version="0", rows=[],
            aggregates={},
        )
        path = tmp_path / "empty.csv"
        emit(report, "csv", path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_unwritable_path(self, tmp_path):
        report = run_trie_exact(cfg("trie-exact", m=2, w=1))
        with pytest.raises(OSError) as err:
            emit(report, "csv", tmp_path / "nope" / "r.csv")
        assert "nope" in str(err.value)

    def test_unknown_format(self, tmp_path):
        report = run_trie_exact(cfg("trie-exact", m=2, w=1))
        with pytest.raises(ValueError):
            emit(report, "yaml", tmp_path / "r.yaml")


class TestReportAndConfigTypes:
    def test_reports_compare_equal_whatever_their_wall_clock(self):
        config = cfg("trie-exact", m=3, w=1)
        a, b = run_experiment(config), run_experiment(config)
        assert a == b
        assert run_trie_exact(config) == a
        assert a != run_experiment(config._replace(seed=8))
        assert a.__eq__(a.rows) is NotImplemented

    def test_report_repr_names_every_field(self):
        report = ExperimentReport("trie-exact", {}, "0", [], {})
        assert repr(report) == (
            "ExperimentReport(experiment='trie-exact', config={}, "
            "version='0', rows=[], aggregates={})"
        )

    def test_config_fields_are_the_json_config_keys(self, tmp_path):
        config = cfg("trie-exact", m=3, w=1)
        path = tmp_path / "r.json"
        emit(run_experiment(config), "json", path)
        written = json.loads(path.read_text())["config"]
        assert list(written) == list(ExperimentConfig._fields)
        assert written == config._asdict()

    def test_config_is_immutable_and_changed_by_replace(self):
        config = cfg("trie-exact", m=3, w=1)
        with pytest.raises(AttributeError):
            config.m = 4
        assert config._replace(m=4).m == 4 and config.m == 3

    @pytest.mark.parametrize(
        "flags, out",
        [([], "trie-exact.csv"), (["--format", "json"], "trie-exact.json")],
    )
    def test_cli_default_out_is_experiment_dot_format(self, flags, out):
        args = build_parser().parse_args(
            ["trie-exact", "--m", "3", "--w", "1", "--seed", "7", *flags]
        )
        assert config_from_args(args).out == out


class TestCli:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["trie-exact", "--m", "3", "--w", "2", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "3 rows" in stdout
        assert "mean_equals_bound = True" in stdout

    def test_passing_run_prints_its_wall_clock_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["trie-exact", "--m", "3", "--w", "2", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        mean = "{'num': 41, 'den': 3, 'decimal': 13.666666666666666}"
        assert captured.out.splitlines() == [
            f"trie-exact: 3 rows -> {out}",
            "  configurations = 3",
            f"  measured_mean = {mean}",
            "  measured_max = 17",
            f"  bound_mean = {mean}",
            "  mean_equals_bound = True",
            "  all_rows_tight = True",
        ]
        assert re.fullmatch(r"wall clock: \d+\.\d\ds\n", captured.err)

    def test_missing_seed_is_usage_error(self, capsys):
        assert main(["trie-exact", "--m", "3", "--w", "2"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_oversize_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["identity-sweep", "--m", "99", "--seed", "1",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2

    def test_assertion_failure_exits_one(self, monkeypatch, capsys):
        from wildquery import experiments

        def explode(cfg):
            raise ExperimentFailure("forced for the exit-code contract")

        _, params = experiments.EXPERIMENTS["trie-exact"]
        monkeypatch.setitem(experiments.EXPERIMENTS, "trie-exact", (explode, params))
        code = main(["trie-exact", "--m", "2", "--w", "1", "--seed", "1"])
        assert code == 1
        assert "ASSERTION FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where", ["missing-dir", "file-as-dir", "is-dir", "empty", "blank"]
    )
    def test_unwritable_out_rejected_before_run(
        self, where, tmp_path, monkeypatch, capsys
    ):
        def must_not_run(cfg):
            raise AssertionError("the run started despite an unwritable --out")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        monkeypatch.chdir(tmp_path)  # a relative path lands here, if anywhere
        (tmp_path / "file").write_text("")
        out = {
            "missing-dir": tmp_path / "missing" / "r.csv",
            "file-as-dir": tmp_path / "file" / "r.csv",
            "is-dir": tmp_path,
            "empty": "",
            "blank": "   ",
        }[where]
        code = main(
            ["position-law", "--m", "5", "--w", "2", "--trials", "100",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"m": 4, "w": 2, "seed": 3}))
        out = tmp_path / "r.json"
        code = main(
            ["trie-exact", "--config", str(config), "--w", "1",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["m"] == 4
        assert payload["config"]["w"] == 1  # explicit flag beats the file

    def test_config_file_for_other_experiment_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": "chord-decay", "seed": 3}))
        assert main(["trie-exact", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "args, config",
        [
            (["trie-exact"], {"seed": 1, "out": "rep\u0000ort.csv"}),
            (["trie-exact"], {"seed": 1, "out": "x\ud800.csv"}),
            (["trie-exact"], {"seed": "a\ud800b"}),
            (["trie-random", "--population", "2", "--trials", "3"],
             {"seed": "a\ud800b"}),
        ],
        ids=["nul-out", "surrogate-out", "surrogate-seed", "trie-random-seed"],
    )
    def test_config_no_report_can_hold_is_refused_before_the_run(
        self, args, config, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # a relative report lands here, if anywhere
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*args, "--m", "2", "--w", "1", "--config", str(path)]
        code, err = _run_main(argv, budget_s=_REFUSAL_BUDGET_S)
        assert code == 2, err
        assert err.startswith("usage error: "), err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_report_bytes_do_not_depend_on_the_locale(self, tmp_path, capsys):
        # under LC_ALL=C, with no locale coercion and no UTF-8 mode, the
        # preferred encoding is ASCII, which cannot write the seed "é"
        config = tmp_path / "cfg.json"
        config.write_text('{"seed": "\u00e9"}', encoding="utf-8")
        args = ["trie-exact", "--m", "2", "--w", "1", "--config", str(config)]
        env = dict(
            os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
            PYTHONPATH=str(Path(experiments.__file__).resolve().parent.parent),
        )
        for fmt in ("csv", "json"):
            # one path for both runs, since a JSON report's config holds it
            argv = [*args, "--format", fmt, "--out", str(tmp_path / f"r.{fmt}")]
            child = subprocess.run(
                [sys.executable, "-m", "wildquery", *argv],
                env=env, capture_output=True, timeout=60,
            )
            assert child.returncode == 0, child.stderr
            there = (tmp_path / f"r.{fmt}").read_bytes()
            assert main(argv) == 0
            assert (tmp_path / f"r.{fmt}").read_bytes() == there

    def test_config_integer_past_the_digit_limit_names_the_file(
        self, tmp_path, capsys
    ):
        config = tmp_path / "big.json"
        config.write_text('{"population": ' + "9" * 5000 + "}")
        assert main(["trie-random", "--seed", "1", "--config", str(config)]) == 2
        assert f"usage error: cannot read config {config}: " in (
            capsys.readouterr().err
        )

    def test_cli_rerun_byte_identical(self, tmp_path):
        args = [
            "position-law", "--m", "5", "--w", "2", "--trials", "5000",
            "--seed", "2",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "args, hint",
        [
            (["trie-random", "--population", "-1"],
             "need 0 <= population <= k**m = 4096, got -1"),
            (["chord-wildcard", "--entries-factor", "0"],
             f"need 1 <= entries factor <= {MAX_ENTRIES_FACTOR}, got 0"),
            (["trie-random", "--trials", "0"],
             "need 1 <= trials <= 1000000, got 0"),
            (["position-law", "--trials", "0"],
             "need 1 <= trials <= 10000000, got 0"),
            (["chord-single", "--trials", "-1"],
             "need 0 <= trials <= 1000000 (0 sweeps every pair), got -1"),
            (["chord-wildcard", "--trials", "0"],
             "need 1 <= trials <= 100000, got 0"),
            (["chord-decay", "--trials", "100001"],
             "need 1 <= trials <= 100000, got 100001"),
            (["chord-single", "--n", "1"], "need 2 <= n <= 4096, got 1"),
            (["identity-sweep", "--m", "26"], "need 1 <= m <= 25, got 26"),
            (["chord-decay", "--entries-factor", "0"],
             f"need 1 <= entries factor <= {MAX_ENTRIES_FACTOR}, got 0 "
             "(0 has no stored keys to look up)"),
            (["chord-decay", "--m", "3"], "need 4 <= m <= 16, got 3"),
            (["chord-single", "--m", "17"], "need 1 <= m <= 16, got 17"),
            (["chord-wildcard", "--entries-factor", "65"],
             f"need 0 <= entries factor <= {MAX_ENTRIES_FACTOR}, got 65"),
        ],
        ids=[
            "population", "entries-factor", "trie-random-trials",
            "position-law-trials", "chord-single-trials",
            "chord-wildcard-trials", "chord-decay-trials", "ring-nodes",
            "identity-m", "decay-entries-factor", "decay-m", "ring-m",
            "entries-factor-above",
        ],
    )
    def test_sizing_hint_names_range_and_value(self, args, hint, tmp_path):
        args += ["--seed", "7", "--out", str(tmp_path / "r.csv")]
        code, err = _run_main(args, budget_s=_REFUSAL_BUDGET_S)
        assert code == 2
        assert f"sizing error: {hint}\n" in err

    # 5 examples for each of the 7 experiments
    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_in_range_flags_exit_with_a_documented_code(self, name, data):
        m = data.draw(st.integers(1, 17))
        ranges = {
            "w": st.integers(0, min(m, 9)),
            "k": st.integers(2, 5),
            "n": st.integers(2, min(300, 1 << m)),
            "population": st.integers(0, 300),
            "entries_factor": st.integers(0, 8),
            "trials": st.integers(0, 60),
        }
        flags = {"m": m}
        _, params = experiments.EXPERIMENTS[name]
        for dest, values in ranges.items():
            if dest in params:
                flags[dest] = data.draw(values)
        fmt = data.draw(st.sampled_from(["csv", "json"]))
        with tempfile.TemporaryDirectory() as tmp:
            args = [name, "--seed", "7", "--format", fmt]
            args += ["--out", str(Path(tmp) / "r")]
            args += [f"{_flag(dest)}={value}" for dest, value in flags.items()]
            code, err = _run_main(args, budget_s=_RUN_BUDGET_S)
        assert code in (0, 1, 2), (args, code, err)
        assert "Traceback" not in err, (args, err)
        if code == 1:
            assert "ASSERTION FAILED" in err, (args, err)
        if code == 2:
            assert "usage error" in err or "sizing error" in err, (args, err)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mistyped_config_value_is_usage_error(self, data):
        junk = st.one_of(
            st.none(),
            st.booleans(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.lists(st.integers(), max_size=2),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        )
        wrong = {
            "seed": junk,
            "fmt": junk | st.text().filter(lambda t: t not in ("csv", "json")),
            "out": junk.filter(lambda v: v is not None),
        }
        name = data.draw(st.sampled_from(list(experiments.EXPERIMENTS)))
        _, params = experiments.EXPERIMENTS[name]
        integers = list(_cli_params(params))
        dest = data.draw(st.sampled_from([*integers, *wrong]))
        value = data.draw(wrong.get(dest, junk | st.text(max_size=4)))
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.json"
            config.write_text(json.dumps({"seed": 1, dest: value}))
            out = Path(tmp) / "r.csv"
            args = [name, "--config", str(config)]
            if dest != "out":
                args += ["--out", str(out)]
            code, err = _run_main(args, budget_s=_REFUSAL_BUDGET_S)
            assert code == 2, (name, dest, value)
            # refused by the type check, not as a key the experiment lacks
            assert f"usage error: {dest} must be" in err or (
                dest == "seed" and value is None
            ), (name, dest, value, err)
            assert not out.exists()

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        case=st.sampled_from([
            (name, _cli_params(params), flag)
            for name, params, *_ in GOLDEN
            for flag in _cli_params(params)
        ]),
        value=st.integers(max_value=-1) | st.integers(min_value=10**7 + 1),
    )
    # both stalled at the guards: k**m took seconds before any refusal, and
    # chord-single filled a ring with 10**7 * m * n entries
    @example(case=("trie-exact", dict(m=5, w=2, k=3), "m"), value=10**7 + 1)
    @example(
        case=("chord-single", dict(m=8, n=16, trials=0), "entries_factor"),
        value=10**7 + 1,
    )
    def test_out_of_range_int_flag_is_refused_or_run(self, case, value):
        name, params, flag = case
        flags = {**params, flag: value}
        with tempfile.TemporaryDirectory() as tmp:
            args = [name, "--seed", "7", "--out", str(Path(tmp) / "r.csv")]
            args += [f"{_flag(dest)}={v}" for dest, v in flags.items()]
            started = time.perf_counter()
            code, err = _run_main(args, budget_s=_RUN_BUDGET_S)
            elapsed = time.perf_counter() - started
        assert code in (0, 2), (args, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert elapsed < _REFUSAL_BUDGET_S, (args, elapsed, err)

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize(
        "name, dest", _UNREAD, ids=[f"{n}-{d}" for n, d in _UNREAD]
    )
    def test_unread_parameter_is_refused_before_the_run(
        self, name, dest, how, tmp_path, monkeypatch
    ):
        def must_not_run(cfg):
            raise AssertionError(f"{name} ran with the unread {dest}")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        value = FULL if dest == "mode" else 1
        out = tmp_path / "r.csv"
        args = [name, "--seed", "7", "--out", str(out)]
        if how == "flag":
            args.append(f"{_flag(dest)}={value}")
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({dest: value}))
            args += ["--config", str(config)]
        code, err = _run_main(args, budget_s=_REFUSAL_BUDGET_S)
        assert code == 2, (args, err)
        assert (_flag(dest) if how == "flag" else repr(dest)) in err, err
        assert not out.exists()

    @pytest.mark.parametrize("case", GOLDEN, ids=map(_case_id, GOLDEN))
    def test_golden_config_from_the_cli(self, case, tmp_path):
        # mode has no flag, so the chord cases get theirs from EXPERIMENTS
        name, params = case[0], case[1]
        out = str(tmp_path / "r.csv")
        argv = [name, "--seed", "7", "--out", out]
        argv += [f"{_flag(dest)}={v}" for dest, v in _cli_params(params).items()]
        assert config_from_args(build_parser().parse_args(argv)) == (
            ExperimentConfig(experiment=name, seed=7, out=out, **params)
        )
