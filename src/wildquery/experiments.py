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
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import __version__
from .analysis import (
    binomial_convolution_identity,
    config_step_bound,
    mean_step_bound,
    mean_step_bound_hypergeometric,
    wildcard_position_pmf,
)
from .dht import ENTRY_BOUND, FULL, build_network
from .errors import SizeLimitError
from .trie import complete_trie, random_trie
from .wildcard import (
    QueryPattern,
    backtracking_query,
    enumerate_configurations,
    random_pattern,
    sample_configuration,
)

CSV_COLUMNS = (
    "experiment,m,w,k,n,param,trial,measured,bound_num,bound_den,ratio,ok,seed"
)

EXPERIMENT_NAMES = (
    "trie-exact",
    "trie-random",
    "identity-sweep",
    "position-law",
    "chord-single",
    "chord-wildcard",
    "chord-decay",
)

DECAY_SEEDS = 20

# desk-scale ceilings; anything larger is refused with a sizing hint
MAX_ENUM_WORK = 50_000_000
MAX_TRIE_KEYS = 1 << 20
MAX_IDENTITY_M = 25
MAX_LAW_TRIALS = 10_000_000
MAX_RING_NODES = 1 << 12
MAX_SWEEP_WORK = 1 << 21
MAX_CHORD_TRIALS = 100_000


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


@dataclass
class Row:
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


def _frac(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": float(value),
    }


def _config_label(positions) -> str:
    return "+".join(map(str, positions)) if positions else "-"


def _ratio(measured, num: int, den: int) -> float | None:
    if num == 0:
        return None
    return float(measured) * den / num


def _require(cond: bool, hint: str) -> None:
    if not cond:
        raise SizingError(hint)


# -- trie experiments -------------------------------------------------------


def run_trie_exact(cfg: ExperimentConfig) -> ExperimentReport:
    """Enumerate all configurations on the complete trie; means must match.

    Per row: measured steps must equal the per-configuration bound
    exactly. Aggregate: the exact mean over configurations must equal the
    closed-form average bound.
    """
    started = time.perf_counter()
    m, w, k = cfg.m, cfg.w, cfg.k
    _require(1 <= m, f"m must be >= 1, got {m}")
    _require(0 <= w <= m, f"need 0 <= w <= m, got w={w}, m={m}")
    _require(k >= 2, f"k must be >= 2, got {k}")
    _require(k**m <= MAX_TRIE_KEYS, f"k**m = {k ** m} too large; lower m or k")
    work = math.comb(m, w) * k**m
    _require(
        work <= MAX_ENUM_WORK,
        f"C(m,w)*k**m = {work} exceeds {MAX_ENUM_WORK}; lower m or w",
    )

    bound_mean = mean_step_bound(m, w, k)
    trie = complete_trie(k, m)
    rows: list[Row] = []
    total = 0
    configs = enumerate_configurations(m, w)
    for trial, positions in enumerate(configs):
        bound = config_step_bound(m, w, positions, k)
        steps = backtracking_query(
            trie, QueryPattern.from_configuration(m, positions)
        ).steps
        ok = steps == bound
        rows.append(
            Row(
                "trie-exact", m, w, k, None, _config_label(positions), trial,
                steps, bound, 1, _ratio(steps, bound, 1), ok, cfg.seed,
            )
        )
        if not ok:
            raise ExperimentFailure(
                f"steps {steps} != bound {bound} for configuration {positions}"
            )
        total += steps
    measured_mean = Fraction(total, len(configs))
    if measured_mean != bound_mean:
        raise ExperimentFailure(
            f"mean {measured_mean} != closed form {bound_mean} for "
            f"m={m}, w={w}, k={k}"
        )
    report = ExperimentReport(
        experiment="trie-exact",
        config=asdict(cfg),
        version=__version__,
        rows=rows,
        aggregates={
            "configurations": len(configs),
            "measured_mean": _frac(measured_mean),
            "measured_max": max(row.measured for row in rows),
            "bound_mean": _frac(bound_mean),
            "mean_equals_bound": True,
            "all_rows_tight": True,
        },
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


def run_trie_random(cfg: ExperimentConfig) -> ExperimentReport:
    """Sampled tries and configurations; steps may never exceed the bound.

    Trials run in consecutive blocks of about 100 that share one trie, so
    every block index 0..trie_count-1 draws exactly one fresh trie. The
    sample mean must stay within three standard errors below-or-at the
    average bound.
    """
    started = time.perf_counter()
    m, w, k = cfg.m, cfg.w, cfg.k
    trials, population = cfg.trials, cfg.population
    _require(1 <= m, f"m must be >= 1, got {m}")
    _require(0 <= w <= m, f"need 0 <= w <= m, got w={w}, m={m}")
    _require(k >= 2, f"k must be >= 2, got {k}")
    _require(k**m <= MAX_TRIE_KEYS, f"k**m = {k ** m} too large; lower m or k")
    _require(0 <= population <= k**m, f"population {population} over k**m")
    _require(1 <= trials <= 1_000_000, f"trials {trials} out of range")

    bound_mean = mean_step_bound(m, w, k)
    trie_count = max(1, trials // 100)
    trie_block = -1
    rows: list[Row] = []
    samples: list[int] = []
    for trial in range(trials):
        block = trial * trie_count // trials
        if block != trie_block:
            trie = random_trie(k, m, population, f"{cfg.seed}|trie|{block}")
            trie_block = block
        rng = _rng(cfg.seed, "trial", trial)
        pattern = random_pattern(m, w, k, rng)
        positions = pattern.wildcard_positions()
        bound = config_step_bound(m, w, positions, k)
        steps = backtracking_query(trie, pattern).steps
        ok = steps <= bound
        rows.append(
            Row(
                "trie-random", m, w, k, None, _config_label(positions), trial,
                steps, bound, 1, _ratio(steps, bound, 1), ok, cfg.seed,
            )
        )
        if not ok:
            raise ExperimentFailure(
                f"steps {steps} > bound {bound} at trial {trial}"
            )
        samples.append(steps)
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
    report = ExperimentReport(
        experiment="trie-random",
        config=asdict(cfg),
        version=__version__,
        rows=rows,
        aggregates={
            "trials": trials,
            "distinct_tries": trie_count,
            "sample_mean": mean,
            "sample_max": max(samples),
            "sample_sem": sem,
            "bound_mean": _frac(bound_mean),
            "mean_within_3_sigma": True,
            "bound_violations": 0,
        },
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


def run_identity_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Exact identities over every (m, w, j) up to the configured m.

    Checks that the hypergeometric double-sum mean equals the closed form
    and that the binomial convolution collapses to a single binomial.
    """
    started = time.perf_counter()
    m_max = cfg.m
    _require(1 <= m_max <= MAX_IDENTITY_M, f"need 1 <= m <= {MAX_IDENTITY_M}")
    rows: list[Row] = []
    trial = 0
    for m in range(1, m_max + 1):
        for w in range(1, m + 1):
            by_sum = mean_step_bound_hypergeometric(m, w)
            closed = mean_step_bound(m, w, 2)
            ok = by_sum == closed
            rows.append(
                Row(
                    "identity-sweep", m, w, 2, None, "mean-form", trial,
                    float(by_sum), closed.numerator, closed.denominator,
                    _ratio(by_sum, closed.numerator, closed.denominator),
                    ok, cfg.seed,
                )
            )
            trial += 1
            if not ok:
                raise ExperimentFailure(
                    f"sum form {by_sum} != closed form {closed} at m={m}, w={w}"
                )
            for j in range(1, w + 1):
                lhs, rhs = binomial_convolution_identity(m, w, j)
                ok = lhs == rhs
                rows.append(
                    Row(
                        "identity-sweep", m, w, 2, None, f"convolution-j={j}",
                        trial, lhs, rhs, 1, _ratio(lhs, rhs, 1), ok, cfg.seed,
                    )
                )
                trial += 1
                if not ok:
                    raise ExperimentFailure(
                        f"convolution {lhs} != {rhs} at m={m}, w={w}, j={j}"
                    )
    report = ExperimentReport(
        experiment="identity-sweep",
        config=asdict(cfg),
        version=__version__,
        rows=rows,
        aggregates={
            "max_m": m_max,
            "checks": len(rows),
            "all_equal": True,
        },
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


def run_position_law(cfg: ExperimentConfig) -> ExperimentReport:
    """Wildcard position law: exact sums plus a seeded frequency check.

    The pmf must sum to exactly 1 over positions for every rank, and the
    empirical rank-position frequencies from `trials` uniform draws must
    sit within three binomial sigmas of the exact values.
    """
    started = time.perf_counter()
    m, w, trials = cfg.m, cfg.w, cfg.trials
    _require(1 <= w <= m <= 64, f"need 1 <= w <= m <= 64, got m={m}, w={w}")
    _require(1 <= trials <= MAX_LAW_TRIALS, f"trials {trials} out of range")

    rng = _rng(cfg.seed, "draws")
    counts = [[0] * (m + 1) for _ in range(w + 1)]
    for _ in range(trials):
        positions = sample_configuration(m, w, rng)
        for j, z in enumerate(positions, start=1):
            counts[j][z] += 1

    rows: list[Row] = []
    trial = 0
    for j in range(1, w + 1):
        total = sum(wildcard_position_pmf(m, w, z, j) for z in range(1, m + 1))
        if total != 1:
            raise ExperimentFailure(f"pmf sums to {total} != 1 for j={j}")
        for z in range(1, m + 1):
            p = wildcard_position_pmf(m, w, z, j)
            freq = counts[j][z] / trials
            sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
            ok = abs(freq - float(p)) <= 3 * sigma
            rows.append(
                Row(
                    "position-law", m, w, None, None, f"j={j}/z={z}", trial,
                    freq, p.numerator, p.denominator,
                    _ratio(freq, p.numerator, p.denominator), ok, cfg.seed,
                )
            )
            trial += 1
            if not ok:
                raise ExperimentFailure(
                    f"frequency {freq} off exact {p} by more than 3 sigma "
                    f"at j={j}, z={z}"
                )
    report = ExperimentReport(
        experiment="position-law",
        config=asdict(cfg),
        version=__version__,
        rows=rows,
        aggregates={
            "trials": trials,
            "cells": len(rows),
            "sums_exact": True,
            "all_within_3_sigma": True,
        },
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


# -- chord experiments -------------------------------------------------------


def _halving_ok(net, d: int, path) -> bool:
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


def run_chord_single(cfg: ExperimentConfig) -> ExperimentReport:
    """Single-key lookups on a full-finger ring.

    trials == 0 sweeps every (target, start) pair exhaustively, one row
    per target carrying the worst hop count over starts; otherwise each
    trial samples one pair. Every lookup must answer correctly, use at
    most m hops, and halve the remaining distance on every hop.
    """
    started = time.perf_counter()
    m, n, trials = cfg.m, cfg.n, cfg.trials
    _require(cfg.mode == FULL, "chord-single requires --mode full")
    _require(2 <= n <= MAX_RING_NODES, f"need 2 <= n <= {MAX_RING_NODES}")
    _require(1 <= m <= 16, f"need 1 <= m <= 16, got {m}")
    _require(n <= 1 << m, f"need n <= 2**m, got n={n}, m={m}")
    if trials == 0:
        _require(
            (1 << m) * n <= MAX_SWEEP_WORK,
            f"exhaustive sweep 2**m * n = {(1 << m) * n} exceeds {MAX_SWEEP_WORK}",
        )
    else:
        _require(1 <= trials <= 1_000_000, f"trials {trials} out of range")

    net = build_network(n, m, f"{cfg.seed}|net", FULL)
    net.distribute_entries(cfg.entries_factor * m * n, f"{cfg.seed}|entries")

    rows: list[Row] = []
    lookups = 0
    hop_total = 0
    hop_max = 0

    def check(d: int, start: int):
        nonlocal lookups, hop_total, hop_max
        out = net.lookup(d, start)
        lookups += 1
        hop_total += out.hops
        hop_max = max(hop_max, out.hops)
        if not out.correct or out.error_case:
            raise ExperimentFailure(f"incorrect lookup d={d} start={start}")
        if out.hops > m:
            raise ExperimentFailure(
                f"{out.hops} hops > m={m} for d={d} start={start}"
            )
        if not _halving_ok(net, d, out.path):
            raise ExperimentFailure(
                f"halving violated on path {out.path} for d={d}"
            )
        return out

    if trials == 0:
        for d in range(net.size):
            worst = 0
            for start in range(n):
                worst = max(worst, check(d, start).hops)
            rows.append(
                Row(
                    "chord-single", m, None, None, n, f"d={d}", d,
                    worst, m, 1, _ratio(worst, m, 1), True, cfg.seed,
                )
            )
    else:
        for trial in range(trials):
            rng = _rng(cfg.seed, "trial", trial)
            d = rng.randrange(net.size)
            start = rng.randrange(n)
            out = check(d, start)
            rows.append(
                Row(
                    "chord-single", m, None, None, n, f"d={d}/start={start}",
                    trial, out.hops, m, 1, _ratio(out.hops, m, 1), True,
                    cfg.seed,
                )
            )

    report = ExperimentReport(
        experiment="chord-single",
        config=asdict(cfg),
        version=__version__,
        rows=rows,
        aggregates={
            "lookups": lookups,
            "mean_hops": hop_total / lookups,
            "max_hops": hop_max,
            "all_correct": True,
            "halving_violations": 0,
        },
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


def run_chord_wildcard(cfg: ExperimentConfig) -> ExperimentReport:
    """Wildcard queries over a full-finger ring, hop-accounted per trial.

    Hard per trial: the query resolves and its total hops stay within the
    per-configuration step bound. Aggregate: the mean stays under the
    average bound plus m (first lookup slack) and under half the naive
    2**w * m cost.
    """
    started = time.perf_counter()
    m, w, n, trials = cfg.m, cfg.w, cfg.n, cfg.trials
    _require(cfg.mode == FULL, "chord-wildcard requires --mode full")
    _require(2 <= n <= MAX_RING_NODES, f"need 2 <= n <= {MAX_RING_NODES}")
    _require(1 <= m <= 16, f"need 1 <= m <= 16, got {m}")
    _require(n <= 1 << m, f"need n <= 2**m, got n={n}, m={m}")
    _require(0 <= w <= min(m, 6), f"need 0 <= w <= min(m, 6), got {w}")
    _require(1 <= trials <= MAX_CHORD_TRIALS, f"trials {trials} out of range")
    _require(1 <= cfg.entries_factor <= 64, "entries factor out of range")

    net = build_network(n, m, f"{cfg.seed}|net", FULL)
    net.distribute_entries(cfg.entries_factor * m * n, f"{cfg.seed}|entries")
    bound_mean = mean_step_bound(m, w, 2)
    naive = (1 << w) * m

    rows: list[Row] = []
    hop_total = 0
    sharp_keys = 0
    later_keys = 0
    for trial in range(trials):
        rng = _rng(cfg.seed, "trial", trial)
        positions = sample_configuration(m, w, rng)
        fixed = [rng.randrange(2) for _ in range(m - w)]
        pattern = QueryPattern.from_configuration(m, positions, fixed)
        start = rng.randrange(n)
        res = net.wildcard_query(pattern, start)
        bound = config_step_bound(m, w, positions, 2)
        ok = res.resolved and res.total_hops <= bound
        rows.append(
            Row(
                "chord-wildcard", m, w, None, n, _config_label(positions),
                trial, res.total_hops, bound, 1,
                _ratio(res.total_hops, bound, 1), ok, cfg.seed,
            )
        )
        if not res.resolved:
            raise ExperimentFailure(f"unresolved query at trial {trial}")
        if res.total_hops > bound:
            raise ExperimentFailure(
                f"total hops {res.total_hops} > bound {bound} at trial {trial}"
            )
        hop_total += res.total_hops
        # how often the idealized one-hop-per-bit accounting held exactly
        for c in range(1, 1 << w):
            flip = positions[(((c - 1) ^ c).bit_length()) - 1]
            later_keys += 1
            sharp_keys += res.per_key_hops[c] <= flip

    mean = hop_total / trials
    if mean > float(bound_mean) + m:
        raise ExperimentFailure(
            f"mean hops {mean} above bound {float(bound_mean)} + m"
        )
    # with no wildcards the naive cost IS the bound; the halving claim
    # compares backtracking reuse against 2**w independent lookups
    if w >= 1 and not mean < 0.5 * naive:
        raise ExperimentFailure(f"mean hops {mean} not under half of {naive}")
    report = ExperimentReport(
        experiment="chord-wildcard",
        config=asdict(cfg),
        version=__version__,
        rows=rows,
        aggregates={
            "trials": trials,
            "mean_total_hops": mean,
            "max_total_hops": max(row.measured for row in rows),
            "bound_mean": _frac(bound_mean),
            "bound_mean_plus_m": float(bound_mean) + m,
            "naive_hops": naive,
            "mean_under_bound_plus_m": True,
            "mean_under_half_naive": True if w >= 1 else None,
            "sharp_locality_rate": sharp_keys / later_keys if later_keys else None,
        },
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


def run_chord_decay(cfg: ExperimentConfig) -> ExperimentReport:
    """Correctness decay on entry-bound rings as entries grow.

    Sweeps C over powers of two up to entries_factor with N = C*m*n
    entries, 20 derived seeds each, cfg.trials lookups of stored keys per
    seed. The aggregated error rate must be non-increasing in C and zero
    at the top; non-error lookups must finish within m hops.
    """
    started = time.perf_counter()
    m, n, per_seed = cfg.m, cfg.n, cfg.trials
    _require(cfg.mode == ENTRY_BOUND, "chord-decay requires --mode entry-bound")
    _require(2 <= n <= MAX_RING_NODES, f"need 2 <= n <= {MAX_RING_NODES}")
    _require(4 <= m <= 16, f"need 4 <= m <= 16, got {m}")
    _require(n <= 1 << m, f"need n <= 2**m, got n={n}, m={m}")
    _require(1 <= per_seed <= MAX_CHORD_TRIALS, f"trials {per_seed} out of range")
    _require(
        1 <= cfg.entries_factor <= 64,
        "entries factor must be in 1..64 (0 has no stored keys to look up)",
    )

    factors = []
    c = 1
    while c <= cfg.entries_factor:
        factors.append(c)
        c *= 2

    rows: list[Row] = []
    trial = 0
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
            stored = net.stored_keys()
            rng = _rng(cfg.seed, "lookups", factor, s)
            errors = 0
            for _ in range(per_seed):
                d = rng.choice(stored)
                out = net.lookup(d, rng.randrange(n))
                if not out.error_case and out.hops > m:
                    raise ExperimentFailure(
                        f"non-error lookup took {out.hops} > m hops at "
                        f"C={factor}, seed {s}"
                    )
                errors += not out.correct
            errors_at_factor += errors
            rows.append(
                Row(
                    "chord-decay", m, None, None, n, f"C={factor}/seed={s}",
                    trial, errors / per_seed, reference.numerator,
                    reference.denominator, None, True, cfg.seed,
                )
            )
            trial += 1
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
    report = ExperimentReport(
        experiment="chord-decay",
        config=asdict(cfg),
        version=__version__,
        rows=rows,
        aggregates={
            "factors": factors,
            "seeds_per_factor": DECAY_SEEDS,
            "lookups_per_seed": per_seed,
            "error_rate_by_factor": {str(f): rates[f] for f in factors},
            "reference_by_factor": {
                str(f): math.exp(-f * m / 2) for f in factors
            },
            "monotone_non_increasing": True,
            "zero_errors_at_max": True,
        },
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


RUNNERS = {
    "trie-exact": run_trie_exact,
    "trie-random": run_trie_random,
    "identity-sweep": run_identity_sweep,
    "position-law": run_position_law,
    "chord-single": run_chord_single,
    "chord-wildcard": run_chord_wildcard,
    "chord-decay": run_chord_decay,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    if cfg.experiment not in RUNNERS:
        raise SizingError(
            f"unknown experiment {cfg.experiment!r}; "
            f"choose one of {', '.join(EXPERIMENT_NAMES)}"
        )
    return RUNNERS[cfg.experiment](cfg)


# -- serialization ------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report; bytes depend only on config and seed."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(CSV_COLUMNS.split(","))
                for row in report.rows:
                    writer.writerow(
                        [
                            _cell(v)
                            for v in (
                                row.experiment, row.m, row.w, row.k, row.n,
                                row.param, row.trial, row.measured,
                                row.bound_num, row.bound_den, row.ratio,
                                row.ok, row.seed,
                            )
                        ]
                    )
        else:
            # rows hold only scalars, so their __dict__ serialises as
            # asdict() would, without the deep copy
            payload = {
                "experiment": report.experiment,
                "version": report.version,
                "config": report.config,
                "rows": [vars(row) for row in report.rows],
                "aggregates": report.aggregates,
            }
            with open(path, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
