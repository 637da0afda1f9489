"""One benchmark pass, run by perfbench/run.py in a fresh interpreter.

argv[1] is a JSON job: the experiment config, report and span paths, the
expected row count, the pass id and whether to trace. The pass imports
wildquery from the checkout's src/, builds the ExperimentConfig, then
times the runner call, both report emits (CSV and JSON) and their
verification. It prints one JSON line: the timings, the report digests
and exact counts, and, when traced, the per-layer numbers. Any error,
including a runner's ExperimentFailure, is printed as {"error": ...}
with exit code 1.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class VerificationError(Exception):
    """The emitted report does not have the shape the workload requires."""


def verify(report, paths: dict, expected_rows: int) -> dict:
    """Digest the emitted files and check the rows the runner returned."""
    exact = {"experiments.rows": len(report.rows), "experiments.report_bytes": 0}
    for fmt, path in paths.items():
        data = Path(path).read_bytes()
        exact[f"{fmt}_sha256"] = hashlib.sha256(data).hexdigest()
        exact["experiments.report_bytes"] += len(data)
    if len(report.rows) != expected_rows:
        raise VerificationError(f"{len(report.rows)} rows, expected {expected_rows}")
    if not all(row.ok for row in report.rows):
        raise VerificationError("a report row is marked not ok")
    return exact


def run(job: dict) -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wildquery
    from wildquery import experiments

    if Path(wildquery.__file__).resolve().parent != (src / "wildquery").resolve():
        raise ImportError(f"wildquery imported from {wildquery.__file__}, not {src}")
    cfg = experiments.ExperimentConfig(**job["config"])
    run_experiment, emit, check = experiments.run_experiment, experiments.emit, verify
    tracer = None
    if job["traced"]:
        sys.path.insert(0, str(ROOT / "perfbench"))
        from tracing import TRACED_EXACT, Tracer
        from wildquery.dht import ChordNetwork
        from wildquery.wildcard import QueryPattern

        tracer = Tracer(job["pass_id"])
        tracer.install(experiments, ChordNetwork, QueryPattern)
        run_experiment = tracer.wrap("experiments.runner", run_experiment)
        emit = tracer.wrap("experiments.emit", emit)
        check = tracer.wrap("bench.verify", verify)
    paths = job["reports"]

    called_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    t0 = time.perf_counter()
    root = tracer.enter("bench.pass") if tracer else None
    report = run_experiment(cfg)
    for fmt, path in paths.items():
        emit(report, fmt, path)
    exact = check(report, paths, job["rows"])
    if tracer:
        tracer.leave(root)
    wall = time.perf_counter() - t0

    result = {
        "wall_s": wall,
        "runner_called_at": called_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact": exact,
    }
    if tracer:
        traced = tracer.summary(report)
        wall = tracer.end[root] - tracer.start[root]
        # self times telescope to the root span; a gap means a span was
        # left open or closed twice
        if abs(traced["self_sum_s"] - wall) > 1e-6:
            raise VerificationError(
                f"span self times sum to {traced['self_sum_s']} s, wall is {wall} s"
            )
        layers = traced["layers"]
        layers["experiments.rows"] = exact["experiments.rows"]
        layers["experiments.report_bytes"] = exact["experiments.report_bytes"]
        exact.update((key, layers[key]) for key in TRACED_EXACT)
        result.update(
            wall_s=wall, layers=layers, self_sum_s=traced["self_sum_s"],
            spans=traced["spans"],
        )
        tracer.write(job["spans_path"])
    return result


def main() -> int:
    try:
        result = run(json.loads(sys.argv[1]))
    except Exception as exc:  # the pass boundary: report, never hide
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
