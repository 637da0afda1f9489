"""Seeded experiment runners with CSV/JSON reports.

Each runner measures one family of claims and enforces its hard
assertions in-line, raising ExperimentFailure on the first violation so a
driving process exits nonzero. Reports are pure functions of the config
and seed: identical inputs emit identical bytes. Wall-clock time is kept
on the report object for logging but never serialized.

Derived randomness comes from string-composed seeds such as
"<seed>|trial|<i>", so every factor of an experiment (network, entries,
per-trial draws) has its own recorded, reproducible stream.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain, islice
from operator import le
from random import _sha512  # the digest `Random.seed` uses; see _trial_rng
from typing import NamedTuple

from . import __version__
from .analysis import (
    binomial_convolution_identity,
    config_step_bound,
    mean_step_bound,
    mean_step_bound_hypergeometric,
    wildcard_position_pmf,
)
from .dht import ENTRY_BOUND, FULL, _ruler, build_network
from .errors import SizeLimitError
from .trie import MAX_TRIE_KEYS, complete_trie, random_trie
from .wildcard import (
    QueryPattern,
    backtracking_query,
    enumerate_configurations,
    random_pattern,
    sample_configuration,
)

DECAY_SEEDS = 20

# desk-scale ceilings; anything larger is refused with a sizing hint
MAX_ENUM_WORK = 50_000_000
MAX_IDENTITY_M = 25
MAX_TRIALS = 1_000_000
MAX_LAW_TRIALS = 10_000_000
MAX_RING_NODES = 1 << 12
MAX_SWEEP_WORK = 1 << 21
MAX_CHORD_TRIALS = 100_000
MAX_ENTRIES_FACTOR = 64


class ExperimentFailure(Exception):
    """A hard per-row or aggregate assertion was violated."""


class SizingError(SizeLimitError):
    """The requested parameters exceed the documented desk-scale limits."""


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int | str
    m: int = 0
    w: int = 0
    k: int = 2
    n: int = 0
    population: int = 0
    entries_factor: int = 1
    trials: int = 0
    mode: str = FULL
    fmt: str = "csv"
    out: str | None = None


class Row(NamedTuple):
    """One result line; field order matches the CSV columns."""

    experiment: str
    m: int | None
    w: int | None
    k: int | None
    n: int | None
    param: str
    trial: int
    measured: int | float
    bound_num: int
    bound_den: int
    ratio: float | None
    ok: bool
    seed: int | str


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    version: str
    rows: list[Row]
    aggregates: dict
    wall_clock_s: float | None = field(default=None, compare=False)


def _rng(seed, *labels) -> random.Random:
    return random.Random("|".join([str(seed), *map(str, labels)]))


def _trial_rng(seed) -> tuple[random.Random, Callable[[int], None]]:
    """One generator for a runner's trials and the function that re-seeds it.

    `reseed(i)` gives `rng` the state of `_rng(seed, "trial", i)` without
    building a new generator per trial. It does what `Random.seed` does
    with a str (version 2), minus that method's Python frame: it encodes
    "<seed>|trial|<i>" as UTF-8, appends the SHA-512 digest of those
    bytes, reads the whole as a big-endian int and hands it straight to
    the C seeding. It takes the digest from `random`'s own `_sha512`, the
    builtin one there, since hashlib's OpenSSL constructor costs about
    0.3 µs more per call, most of what skipping the frame saves. The
    oracle test in tests/test_experiments.py pins the state against
    `random.Random(f"{seed}|trial|{i}")`.
    """
    rng = random.Random(0)
    prefix = f"{seed}|trial|"
    c_seed = super(random.Random, rng).seed

    def reseed(i: int) -> None:
        a = (prefix + str(i)).encode()
        c_seed(int.from_bytes(a + _sha512(a).digest(), "big"))
        rng.gauss_next = None

    return rng, reseed


def _frac(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": float(value),
    }


def _config_label(positions) -> str:
    return "+".join(map(str, positions)) if positions else "-"


class _ConfigLabels(dict):
    """positions -> row label, made on first use, so the rows of one
    configuration share one string."""

    def __missing__(self, positions):
        param = self[positions] = _config_label(positions)
        return param


def _row_adder(cfg, rows, m=None, w=None, k=None, n=None, with_ratio=True):
    """Return add(param, measured, bound), which appends a Row numbered by
    its index in `rows`. `bound` is an int or a Fraction. Runners raise
    before adding a row whose check fails, so every row is ok."""
    experiment, seed, append = cfg.experiment, cfg.seed, rows.append
    new = tuple.__new__  # builds a Row in C, with no __new__ frame

    def add(param, measured, bound) -> None:
        num, den = bound.numerator, bound.denominator
        ratio = float(measured) * den / num if with_ratio and num else None
        append(new(Row, (
            experiment, m, w, k, n, param, len(rows), measured, num, den,
            ratio, True, seed,
        )))

    return add


def _report(cfg, rows: list[Row], aggregates: dict) -> ExperimentReport:
    return ExperimentReport(
        cfg.experiment, asdict(cfg), __version__, rows, aggregates
    )


def _require(cond: bool, hint: str) -> None:
    if not cond:
        raise SizingError(hint)


def _require_between(lo: int, name: str, value: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise SizingError(f"need {lo} <= {name} <= {hi}, got {value}")


def _require_trie(cfg) -> None:
    """The m/w/k ranges and the trie key limit of both trie runners."""
    m, w, k = cfg.m, cfg.w, cfg.k
    _require(1 <= m, f"m must be >= 1, got {m}")
    _require(0 <= w <= m, f"need 0 <= w <= m, got w={w}, m={m}")
    _require(k >= 2, f"k must be >= 2, got {k}")
    # k >= 2 and m >= 1 give 2**m <= k**m and k <= k**m, so a larger m or
    # k is refused before k**m, whose cost grows with m, is computed
    _require(
        m < MAX_TRIE_KEYS.bit_length()
        and k <= MAX_TRIE_KEYS
        and k**m <= MAX_TRIE_KEYS,
        f"k**m exceeds the limit of {MAX_TRIE_KEYS} trie keys; lower m or k",
    )


def _require_ring(cfg, mode: str, min_m: int = 1) -> None:
    """The mode, ring size and entry ranges of the three chord runners."""
    m, n = cfg.m, cfg.n
    _require(
        cfg.mode == mode,
        f"{cfg.experiment} needs finger mode {mode!r}, got {cfg.mode!r}",
    )
    _require_between(2, "n", n, MAX_RING_NODES)
    _require_between(min_m, "m", m, 16)
    _require(n <= 1 << m, f"need n <= 2**m, got n={n}, m={m}")
    _require_between(0, "entries factor", cfg.entries_factor, MAX_ENTRIES_FACTOR)


# -- trie experiments -------------------------------------------------------


def run_trie_exact(cfg: ExperimentConfig) -> ExperimentReport:
    """Enumerate all configurations on the complete trie; means must match.

    Per row: measured steps must equal the per-configuration bound
    exactly. Aggregate: the exact mean over configurations must equal the
    closed-form average bound.
    """
    _require_trie(cfg)
    m, w, k = cfg.m, cfg.w, cfg.k
    work = math.comb(m, w) * k**m
    _require(
        work <= MAX_ENUM_WORK,
        f"C(m,w)*k**m = {work} exceeds {MAX_ENUM_WORK}; lower m or w",
    )

    bound_mean = mean_step_bound(m, w, k)
    trie = complete_trie(k, m)
    rows: list[Row] = []
    add = _row_adder(cfg, rows, m=m, w=w, k=k)
    configs = enumerate_configurations(m, w)
    for positions in configs:
        bound = config_step_bound(m, w, positions, k)
        steps = backtracking_query(
            trie, QueryPattern.from_configuration(m, positions)
        ).steps
        if steps != bound:
            raise ExperimentFailure(
                f"steps {steps} != bound {bound} for configuration {positions}"
            )
        add(_config_label(positions), steps, bound)
    measured_mean = Fraction(sum(row.measured for row in rows), len(rows))
    if measured_mean != bound_mean:
        raise ExperimentFailure(
            f"mean {measured_mean} != closed form {bound_mean} for "
            f"m={m}, w={w}, k={k}"
        )
    return _report(cfg, rows, {
        "configurations": len(configs),
        "measured_mean": _frac(measured_mean),
        "measured_max": max(row.measured for row in rows),
        "bound_mean": _frac(bound_mean),
        "mean_equals_bound": True,
        "all_rows_tight": True,
    })


def run_trie_random(cfg: ExperimentConfig) -> ExperimentReport:
    """Sampled tries and configurations; steps may never exceed the bound.

    Trials run in consecutive blocks of about 100 that share one trie, so
    every block index 0..trie_count-1 draws exactly one fresh trie. The
    sample mean must stay within three standard errors below-or-at the
    average bound.
    """
    _require_trie(cfg)
    m, w, k = cfg.m, cfg.w, cfg.k
    trials, population = cfg.trials, cfg.population
    _require(
        0 <= population <= k**m,
        f"need 0 <= population <= k**m = {k**m}, got {population}",
    )
    _require_between(1, "trials", trials, MAX_TRIALS)

    bound_mean = mean_step_bound(m, w, k)
    trie_count = max(1, trials // 100)
    trie_block = -1
    rows: list[Row] = []
    add = _row_adder(cfg, rows, m=m, w=w, k=k)
    params = _ConfigLabels()
    rng, reseed = _trial_rng(cfg.seed)
    for trial in range(trials):
        block = trial * trie_count // trials
        if block != trie_block:
            trie = random_trie(k, m, population, f"{cfg.seed}|trie|{block}")
            trie_block = block
        reseed(trial)
        pattern = random_pattern(m, w, k, rng)
        positions = pattern.configuration
        bound = config_step_bound(m, w, positions, k)
        steps = backtracking_query(trie, pattern).steps
        if steps > bound:
            raise ExperimentFailure(
                f"steps {steps} > bound {bound} at trial {trial}"
            )
        add(params[positions], steps, bound)
    samples = [row.measured for row in rows]
    mean = statistics.fmean(samples)
    sem = (
        statistics.stdev(samples) / math.sqrt(len(samples))
        if len(samples) > 1
        else 0.0
    )
    limit = float(bound_mean) + 3 * sem
    if mean > limit:
        raise ExperimentFailure(
            f"sample mean {mean} above bound {float(bound_mean)} + 3*SEM {sem}"
        )
    return _report(cfg, rows, {
        "trials": trials,
        "distinct_tries": trie_count,
        "sample_mean": mean,
        "sample_max": max(samples),
        "sample_sem": sem,
        "bound_mean": _frac(bound_mean),
        "mean_within_3_sigma": True,
        "bound_violations": 0,
    })


def run_identity_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Exact identities over every (m, w, j) up to the configured m.

    Checks that the hypergeometric double-sum mean equals the closed form
    and that the binomial convolution collapses to a single binomial.
    """
    m_max = cfg.m
    _require_between(1, "m", m_max, MAX_IDENTITY_M)
    rows: list[Row] = []
    for m in range(1, m_max + 1):
        for w in range(1, m + 1):
            add = _row_adder(cfg, rows, m=m, w=w, k=2)
            by_sum = mean_step_bound_hypergeometric(m, w)
            closed = mean_step_bound(m, w, 2)
            if by_sum != closed:
                raise ExperimentFailure(
                    f"sum form {by_sum} != closed form {closed} at m={m}, w={w}"
                )
            add("mean-form", float(by_sum), closed)
            for j in range(1, w + 1):
                lhs, rhs = binomial_convolution_identity(m, w, j)
                if lhs != rhs:
                    raise ExperimentFailure(
                        f"convolution {lhs} != {rhs} at m={m}, w={w}, j={j}"
                    )
                add(f"convolution-j={j}", lhs, rhs)
    return _report(cfg, rows, {
        "max_m": m_max,
        "checks": len(rows),
        "all_equal": True,
    })


def run_position_law(cfg: ExperimentConfig) -> ExperimentReport:
    """Wildcard position law: exact sums plus a seeded frequency check.

    The pmf must sum to exactly 1 over positions for every rank, and the
    empirical rank-position frequencies from `trials` uniform draws must
    sit within three binomial sigmas of the exact values.
    """
    m, w, trials = cfg.m, cfg.w, cfg.trials
    _require(1 <= w <= m <= 64, f"need 1 <= w <= m <= 64, got m={m}, w={w}")
    _require_between(1, "trials", trials, MAX_LAW_TRIALS)

    rng = _rng(cfg.seed, "draws")
    counts = [[0] * (m + 1) for _ in range(w + 1)]
    for _ in range(trials):
        positions = sample_configuration(m, w, rng)
        for j, z in enumerate(positions, start=1):
            counts[j][z] += 1

    rows: list[Row] = []
    add = _row_adder(cfg, rows, m=m, w=w)
    for j in range(1, w + 1):
        pmf = [wildcard_position_pmf(m, w, z, j) for z in range(1, m + 1)]
        if sum(pmf) != 1:
            raise ExperimentFailure(f"pmf sums to {sum(pmf)} != 1 for j={j}")
        for z, p in enumerate(pmf, start=1):
            freq = counts[j][z] / trials
            sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
            if not abs(freq - float(p)) <= 3 * sigma:
                raise ExperimentFailure(
                    f"frequency {freq} off exact {p} by more than 3 sigma "
                    f"at j={j}, z={z}"
                )
            add(f"j={j}/z={z}", freq, p)
    return _report(cfg, rows, {
        "trials": trials,
        "cells": len(rows),
        "sums_exact": True,
        "all_within_3_sigma": True,
    })


# -- chord experiments -------------------------------------------------------


def _halving_ok(net, t: int, path, approved: set) -> bool:
    """Whether every hop of `path` at least halves the clockwise distance
    left to node t, as it must on a full-finger ring when t owns the key.

    `approved` holds the paths already approved toward t, and the caller
    starts a fresh set for each owner. A path in the set passes without a
    walk; a path that passes the walk joins it. This is exact: the
    verdict depends only on t's key and the path, the set keeps every
    path in it alive and compares by equality, and a failing path is
    never stored.
    """
    if path in approved:
        return True
    keys = net.node_keys
    mask = net.size - 1
    tkey = keys[t]
    prev = (tkey - keys[path[0]]) & mask
    for addr in path[1:]:
        cur = (tkey - keys[addr]) & mask
        if cur > prev // 2:
            return False
        prev = cur
    approved.add(path)
    return True


def _sampled_lookups(seed, trials: int, size: int, n: int):
    """chord-single's sampled (target, starts, label), one per trial."""
    rng, reseed = _trial_rng(seed)
    for trial in range(trials):
        reseed(trial)
        d = rng.randrange(size)
        start = rng.randrange(n)
        yield d, (start,), f"d={d}/start={start}"


def run_chord_single(cfg: ExperimentConfig) -> ExperimentReport:
    """Single-key lookups on a full-finger ring.

    trials == 0 sweeps every (target, start) pair exhaustively, one row
    per target carrying the worst hop count over starts; otherwise each
    trial samples one pair. Every lookup must answer correctly, use at
    most m hops, and halve the remaining distance on every hop. The
    halving check runs once per lookup, toward the owner `successor_of`
    names, with one set of approved paths per owner: a path the route
    memo hands back again toward the same owner is not walked again.
    """
    _require_ring(cfg, FULL)
    m, n, trials = cfg.m, cfg.n, cfg.trials
    if trials == 0:
        _require(
            (1 << m) * n <= MAX_SWEEP_WORK,
            f"exhaustive sweep 2**m * n = {(1 << m) * n} exceeds {MAX_SWEEP_WORK}",
        )
    else:
        _require(
            1 <= trials <= MAX_TRIALS,
            f"need 0 <= trials <= {MAX_TRIALS} (0 sweeps every pair), "
            f"got {trials}",
        )

    net = build_network(n, m, f"{cfg.seed}|net", FULL)
    net.distribute_entries(cfg.entries_factor * m * n, f"{cfg.seed}|entries")

    if trials == 0:
        # one row per target: its worst hop count over every start
        groups = ((d, range(n), f"d={d}") for d in range(net.size))
    else:
        groups = _sampled_lookups(cfg.seed, trials, net.size, n)

    rows: list[Row] = []
    add = _row_adder(cfg, rows, m=m, n=n)
    hop_total = 0
    lookup, successor_of = net.lookup, net.successor_of
    owner = None
    for d, starts, label in groups:
        t = successor_of(d)
        if t != owner:
            owner, approved = t, set()
        worst = 0
        for start in starts:
            _, correct, hops, path, error = lookup(d, start)
            hop_total += hops
            if not correct or error:
                raise ExperimentFailure(f"incorrect lookup d={d} start={start}")
            if hops > m:
                raise ExperimentFailure(
                    f"{hops} hops > m={m} for d={d} start={start}"
                )
            if not _halving_ok(net, t, path, approved):
                raise ExperimentFailure(
                    f"halving violated on path {path} for d={d}"
                )
            if hops > worst:
                worst = hops
        add(label, worst, m)

    lookups = net.size * n if trials == 0 else trials
    return _report(cfg, rows, {
        "lookups": lookups,
        "mean_hops": hop_total / lookups,
        "max_hops": max(row.measured for row in rows),
        "all_correct": True,
        "halving_violations": 0,
    })


def run_chord_wildcard(cfg: ExperimentConfig) -> ExperimentReport:
    """Wildcard queries over a full-finger ring, hop-accounted per trial.

    Hard per trial: the query resolves and its total hops stay within the
    per-configuration step bound. Aggregate: the mean stays under the
    average bound plus m (first lookup slack) and under half the naive
    2**w * m cost.
    """
    _require_ring(cfg, FULL)
    m, w, n, trials = cfg.m, cfg.w, cfg.n, cfg.trials
    _require(0 <= w <= min(m, 6), f"need 0 <= w <= min(m, 6), got {w}")
    _require_between(1, "trials", trials, MAX_CHORD_TRIALS)
    _require_between(1, "entries factor", cfg.entries_factor, MAX_ENTRIES_FACTOR)

    net = build_network(n, m, f"{cfg.seed}|net", FULL)
    net.distribute_entries(cfg.entries_factor * m * n, f"{cfg.seed}|entries")
    bound_mean = mean_step_bound(m, w, 2)
    naive = (1 << w) * m

    rows: list[Row] = []
    add = _row_adder(cfg, rows, m=m, w=w, n=n)
    sharp_keys = 0
    # expansion c > 0 sets the wildcard of rank ranks[c - 1]
    ranks = _ruler(w)[1:]
    params = _ConfigLabels()
    rng, reseed = _trial_rng(cfg.seed)
    getrandbits = rng.getrandbits
    n_bits = n.bit_length()
    for trial in range(trials):
        reseed(trial)
        pattern = random_pattern(m, w, 2, rng)
        positions = pattern.configuration
        # rng.randrange(n), inlined: redraw n.bit_length() bits until below n
        start = getrandbits(n_bits)
        while start >= n:
            start = getrandbits(n_bits)
        res = net.wildcard_query(pattern, start)
        bound = config_step_bound(m, w, positions, 2)
        if not res.resolved:
            raise ExperimentFailure(f"unresolved query at trial {trial}")
        if res.total_hops > bound:
            raise ExperimentFailure(
                f"total hops {res.total_hops} > bound {bound} at trial {trial}"
            )
        add(params[positions], res.total_hops, bound)
        # how often the idealized one-hop-per-bit accounting held exactly
        sharp_keys += sum(map(
            le,
            islice(res.per_key_hops, 1, None),
            map(positions.__getitem__, ranks),
        ))

    mean = sum(row.measured for row in rows) / trials
    later_keys = trials * ((1 << w) - 1)  # every key after each query's first
    if mean > float(bound_mean) + m:
        raise ExperimentFailure(
            f"mean hops {mean} above bound {float(bound_mean)} + m"
        )
    # with no wildcards the naive cost IS the bound; the halving claim
    # compares backtracking reuse against 2**w independent lookups
    if w >= 1 and not mean < 0.5 * naive:
        raise ExperimentFailure(f"mean hops {mean} not under half of {naive}")
    return _report(cfg, rows, {
        "trials": trials,
        "mean_total_hops": mean,
        "max_total_hops": max(row.measured for row in rows),
        "bound_mean": _frac(bound_mean),
        "bound_mean_plus_m": float(bound_mean) + m,
        "naive_hops": naive,
        "mean_under_bound_plus_m": True,
        "mean_under_half_naive": True if w >= 1 else None,
        "sharp_locality_rate": sharp_keys / later_keys if later_keys else None,
    })


def run_chord_decay(cfg: ExperimentConfig) -> ExperimentReport:
    """Correctness decay on entry-bound rings as entries grow.

    Sweeps C over powers of two up to entries_factor with N = C*m*n
    entries, 20 derived seeds each, cfg.trials lookups of stored keys per
    seed. The aggregated error rate must be non-increasing in C and zero
    at the top; non-error lookups must finish within m hops.

    The lookup draws are a contract: per lookup, the generator
    `_rng(seed, "lookups", C, s)` makes one `choice(stored)` for the key,
    then one `randrange(n)` for the start node. The loop inlines the rule
    CPython's `choice` and `randrange(x)` follow, redrawing
    `getrandbits(x.bit_length())` until the result is below x (x being
    len(stored), then n), so it consumes the same bits in the same order.
    The oracle test in tests/test_experiments.py replays the `Random`
    methods and pins it.
    """
    _require_ring(cfg, ENTRY_BOUND, min_m=4)
    m, n, per_seed = cfg.m, cfg.n, cfg.trials
    _require_between(1, "trials", per_seed, MAX_CHORD_TRIALS)
    _require(
        1 <= cfg.entries_factor,
        f"need 1 <= entries factor <= {MAX_ENTRIES_FACTOR}, "
        f"got {cfg.entries_factor} (0 has no stored keys to look up)",
    )

    factors = [1 << i for i in range(cfg.entries_factor.bit_length())]
    n_bits = n.bit_length()

    # rows carry the reference exp(-C*m/2) as their bound, but no ratio
    rows: list[Row] = []
    add = _row_adder(cfg, rows, m=m, n=n, with_ratio=False)
    rates: dict[int, float] = {}
    for factor in factors:
        errors_at_factor = 0
        reference = Fraction(math.exp(-factor * m / 2)).limit_denominator(10**12)
        for s in range(DECAY_SEEDS):
            net = build_network(
                n, m, f"{cfg.seed}|net|{factor}|{s}", ENTRY_BOUND
            )
            net.distribute_entries(
                factor * m * n, f"{cfg.seed}|entries|{factor}|{s}"
            )
            # never empty: the factor is at least 1, so C*m*n >= 1 entries
            # were placed (an empty list would redraw getrandbits(0) forever)
            stored = net.stored_keys()
            n_stored = len(stored)
            d_bits = n_stored.bit_length()
            getrandbits = _rng(cfg.seed, "lookups", factor, s).getrandbits
            errors = 0
            for _ in range(per_seed):
                i = getrandbits(d_bits)
                while i >= n_stored:
                    i = getrandbits(d_bits)
                start = getrandbits(n_bits)
                while start >= n:
                    start = getrandbits(n_bits)
                _, correct, hops, _, error = net.lookup(stored[i], start)
                if not error and hops > m:
                    raise ExperimentFailure(
                        f"non-error lookup took {hops} > m hops at "
                        f"C={factor}, seed {s}"
                    )
                errors += not correct
            errors_at_factor += errors
            add(f"C={factor}/seed={s}", errors / per_seed, reference)
        rates[factor] = errors_at_factor / (DECAY_SEEDS * per_seed)

    for lo, hi in zip(factors, factors[1:]):
        if rates[hi] > rates[lo]:
            raise ExperimentFailure(
                f"error rate rose from C={lo} ({rates[lo]}) to C={hi} ({rates[hi]})"
            )
    if rates[factors[-1]] != 0.0:
        raise ExperimentFailure(
            f"errors remain at C={factors[-1]}: rate {rates[factors[-1]]}"
        )
    return _report(cfg, rows, {
        "factors": factors,
        "seeds_per_factor": DECAY_SEEDS,
        "lookups_per_seed": per_seed,
        "error_rate_by_factor": {str(f): rates[f] for f in factors},
        "reference_by_factor": {
            str(f): math.exp(-f * m / 2) for f in factors
        },
        "monotone_non_increasing": True,
        "zero_errors_at_max": True,
    })


RUNNERS = {
    "trie-exact": run_trie_exact,
    "trie-random": run_trie_random,
    "identity-sweep": run_identity_sweep,
    "position-law": run_position_law,
    "chord-single": run_chord_single,
    "chord-wildcard": run_chord_wildcard,
    "chord-decay": run_chord_decay,
}

EXPERIMENT_NAMES = tuple(RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the configured experiment and time it into `wall_clock_s`."""
    if cfg.experiment not in RUNNERS:
        raise SizingError(
            f"unknown experiment {cfg.experiment!r}; "
            f"choose one of {', '.join(EXPERIMENT_NAMES)}"
        )
    started = time.perf_counter()
    report = RUNNERS[cfg.experiment](cfg)
    report.wall_clock_s = time.perf_counter() - started
    return report


# -- serialization ------------------------------------------------------------


_OK = Row._fields.index("ok")

# json.dump(indent=2) spells each element of the report's "rows" list
# like this; Row fields hold only scalars, so each %s takes one encoded value
_JSON_ROW = (
    "    {\n"
    + ",\n".join(f"      {json.dumps(name)}: %s" for name in Row._fields)
    + "\n    }"
)
# rows per encode call; small chunks keep the peak memory of a long report
# where the streaming json.dump left it
_JSON_CHUNK = 64
# without indent, encode() runs the C encoder; NUL can separate the values
# because the encoder escapes every control character inside a string
_encode_cells = json.JSONEncoder(separators=("\x00", ": ")).encode


def _write_csv(report: ExperimentReport, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(Row._fields)
    # csv writes None as "" and a float as its repr; only ok is spelled out
    writer.writerows(
        (*row[:_OK], "true" if row[_OK] else "false", *row[_OK + 1:])
        for row in report.rows
    )


def _write_json(report: ExperimentReport, handle) -> None:
    """Write the bytes json.dump(payload, handle, indent=2) and a newline
    would, where payload holds the report's fields and `row._asdict()`
    per row. Only the header and aggregates go through the pure-Python
    encoder that indent selects; the rows are C-encoded and spliced into
    _JSON_ROW."""
    write = handle.write
    header = {
        "experiment": report.experiment,
        "version": report.version,
        "config": report.config,
    }
    write(json.dumps(header, indent=2).removesuffix("\n}"))
    rows = report.rows
    if not rows:
        write(',\n  "rows": []')
    else:
        write(',\n  "rows": [\n')
        for start in range(0, len(rows), _JSON_CHUNK):
            chunk = rows[start:start + _JSON_CHUNK]
            cells = _encode_cells(
                list(chain.from_iterable(chunk))
            )[1:-1].split("\x00")
            if start:
                write(",\n")
            write(",\n".join([_JSON_ROW] * len(chunk)) % tuple(cells))
        write("\n  ]")
    aggregates = json.dumps(report.aggregates, indent=2).replace("\n", "\n  ")
    write(f',\n  "aggregates": {aggregates}\n}}\n')


def emit(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report; bytes depend only on config and seed."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as handle:
                _write_csv(report, handle)
        else:
            with open(path, "w") as handle:
                _write_json(report, handle)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
