#!/usr/bin/env python3
"""wildquery benchmark: seeded workloads driven through the experiment runners.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; nothing needs installing. Each
pass runs in a fresh interpreter (perfbench/worker.py), one at a time,
single-threaded. The worker calls `run_experiment(ExperimentConfig(...))`
and `emit` for CSV and JSON, the CLI path without argparse, and gets only
the config generated here from the workload and `--seed`.

A run starts with one gate pass on a pinned seed (7 for even `--seed`,
4213 for odd), whose report digests and exact counts must equal those in
perfbench/pinned.json, then repeats passes on `--seed` until `--seconds`
are spent. Every pass of one seed must give the same digests and counts.
A pass fails if the runner raises, the worker exits nonzero, or a digest
or count differs; failures are the `failed` of `attempted` passes.

With --trace 0 the last stdout line carries the end-to-end metrics
(medians over the timed passes). With --trace 1 the run alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones plus the tracing overhead. Details of every pass, with the
machine stamp, go to .perfbench_out/ in the checkout. See
perfbench/README.md for the workloads and the predictions they test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PINNED_PATH = HERE / "pinned.json"
PINNED_SEEDS = (7, 4213)

MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced, two traced
RUN_LIMIT_S = 170  # a run must end within 180 s

DECAY_CELLS = 4 * 20  # C in {1, 2, 4, 8} times 20 derived seeds per C

# config: the runner input minus the seed; ops: operations per pass;
# rows: report rows the runner must return
WORKLOADS = {
    "trie-search": {
        "config": {"experiment": "trie-random", "m": 12, "w": 4, "k": 2,
                   "population": 1024, "trials": 10000},
        "ops": 10000, "rows": 10000,
    },
    "ring-route": {
        "config": {"experiment": "chord-single", "m": 10, "n": 64,
                   "trials": 0, "entries_factor": 1, "mode": "full"},
        "ops": (1 << 10) * 64, "rows": 1 << 10,
    },
    "ring-churn": {
        "config": {"experiment": "chord-decay", "m": 16, "n": 64,
                   "trials": 500, "entries_factor": 8, "mode": "entry-bound"},
        "ops": DECAY_CELLS * 500, "rows": DECAY_CELLS,
    },
    "ring-wildcard": {
        "config": {"experiment": "chord-wildcard", "m": 16, "w": 4, "n": 1024,
                   "trials": 8000, "entries_factor": 4, "mode": "full"},
        "ops": 8000, "rows": 8000,
    },
}

SPEC_PATH = ROOT / "BENCHMARK.json"


def monotonic() -> float:
    # system-wide on Linux, so the worker's reading is comparable to ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def steal_ticks() -> int:
    """Ticks the hypervisor ran something else on our CPUs (/proc/stat)."""
    try:
        with open("/proc/stat") as handle:
            return int(handle.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return -1


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": loadavg(),
    }


def config_for(workload: str, seed: int) -> dict:
    return {**WORKLOADS[workload]["config"], "seed": seed}


class Run:
    """Passes of one workload, with the references their outputs must match."""

    def __init__(self, workload: str, deadline: float, pinned: dict):
        self.workload = workload
        self.deadline = deadline
        self.passes: list[dict] = []
        # per seed: exact counts and digests every pass must reproduce
        self.expected = {int(seed): dict(exact) for seed, exact in pinned.items()}
        self.reports = {
            fmt: str(OUT / f"{workload}.{fmt}") for fmt in ("csv", "json")
        }
        self.spans_path = OUT / f"{workload}.spans.tsv"

    def run_pass(self, seed: int, traced: bool, gate: bool) -> dict:
        job = {
            "config": config_for(self.workload, seed),
            "reports": self.reports,
            "rows": WORKLOADS[self.workload]["rows"],
            "traced": traced,
            "pass_id": len(self.passes),
            "spans_path": str(self.spans_path),
        }
        record = {"seed": seed, "traced": traced, "gate": gate,
                  "loadavg_before": loadavg()}
        steal = steal_ticks()
        spawned = monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "worker.py"), json.dumps(job)],
                capture_output=True, text=True, cwd=ROOT,
                timeout=max(1.0, self.deadline - monotonic()),
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"error": "no output"}
            if proc.returncode != 0 and "error" not in result:
                result["error"] = f"exit code {proc.returncode}"
            if "error" in result:
                result["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
        except subprocess.TimeoutExpired:
            result = {"error": "pass timed out"}
        except json.JSONDecodeError as exc:
            result = {"error": f"unreadable worker output: {exc}"}
        record["loadavg_after"] = loadavg()
        record["steal_ticks"] = steal_ticks() - steal
        record.update(result)
        if "error" not in record:
            record["setup_s"] = record.pop("runner_called_at") - spawned
            mismatched = self._check(seed, record["exact"])
            if mismatched:
                record["error"] = f"differs from reference: {', '.join(mismatched)}"
        record["ok"] = "error" not in record
        self.passes.append(record)
        return record

    def _check(self, seed: int, exact: dict) -> list[str]:
        """Compare with the pinned values, or with the first pass of `seed`."""
        reference = self.expected.setdefault(seed, {})
        mismatched = [
            key for key, value in exact.items()
            if reference.setdefault(key, value) != value
        ]
        return sorted(mismatched)


def median(values):
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)  # counts stay whole numbers
    return statistics.median(values)


def end_to_end(passes: list[dict], ops: int) -> dict:
    """Medians over the timed passes; set-up also counts the gate pass."""
    good = [p for p in passes if p["ok"] and not p["gate"]]
    return {
        "wall_s": median([p["wall_s"] for p in good]),
        "ops_per_s": median([ops / p["wall_s"] for p in good]),
        "setup_s": median([p["setup_s"] for p in passes if p["ok"]]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in good]),
    }


def per_layer(timed: list[dict]) -> dict:
    traced = [p for p in timed if p["ok"] and p["traced"]]
    plain = [p for p in timed if p["ok"] and not p["traced"]]
    layers = {
        key: median([p["layers"][key] for p in traced])
        for key in traced[0]["layers"]
    }
    layers["trace.overhead_s"] = (
        median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    begin = monotonic()
    if not (ROOT / "src" / "wildquery" / "__init__.py").is_file():
        print(f"no wildquery sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    pinned = json.loads(PINNED_PATH.read_text())[args.workload]
    run = Run(args.workload, begin + RUN_LIMIT_S, pinned)
    machine = stamp()

    gate_seed = PINNED_SEEDS[args.seed % 2]
    gate = run.run_pass(gate_seed, traced=trace, gate=True)
    if gate.get("error", "").startswith(("ImportError", "ModuleNotFoundError")):
        # a checkout whose package cannot even be imported has nothing to measure
        print(f"cannot run wildquery: {gate['error']}", file=sys.stderr)
        return 2

    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    timed: list[dict] = []
    while monotonic() - begin < RUN_LIMIT_S - 30:
        spent = monotonic() - begin
        est = median([p.get("wall_s", 0.0) + p.get("setup_s", 0.0) for p in timed])
        if len(timed) >= min_passes and spent + est > args.seconds:
            break
        traced = trace and len(timed) % 2 == 1
        timed.append(run.run_pass(args.seed, traced=traced, gate=False))

    ops = WORKLOADS[args.workload]["ops"]
    failed = sum(not p["ok"] for p in run.passes)
    attempted = len(run.passes)
    usable = [p for p in timed if p["ok"]]
    if not any(not p["traced"] for p in usable) or (
        trace and not any(p["traced"] for p in usable)
    ):
        errors = sorted({p["error"] for p in run.passes if not p["ok"]})
        print(f"no usable pass; errors: {errors}", file=sys.stderr)
        return 1
    values = per_layer(timed) if trace else end_to_end(run.passes, ops)
    declared = {
        m["name"]: m["unit"]
        for m in json.loads(SPEC_PATH.read_text())["per_layer" if trace else "end_to_end"]
    }
    if set(values) != set(declared):
        print(f"metrics {sorted(set(values) ^ set(declared))} are not both "
              f"measured and declared in {SPEC_PATH.name}", file=sys.stderr)
        return 1
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in declared.items()}

    machine["loadavg_end"] = loadavg()
    detail = {
        "workload": args.workload, "seed": args.seed, "gate_seed": gate_seed,
        "seconds": args.seconds, "trace": args.trace,
        "config": config_for(args.workload, args.seed), "ops_per_pass": ops,
        "stamp": machine, "metrics": metrics, "passes": run.passes,
    }
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"wildquery benchmark: {args.workload}, seed {args.seed} "
          f"(gate seed {gate_seed}), {len(timed)} timed passes, "
          f"trace {args.trace}")
    for key, metric in metrics.items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_rate':32s} {failed / attempted:.6g} "
          f"({failed} of {attempted} passes)")
    for p in run.passes:
        if not p["ok"]:
            print(f"  FAILED pass (seed {p['seed']}): {p['error']}")
    print("stamp " + json.dumps(machine))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
