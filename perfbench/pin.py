#!/usr/bin/env python3
"""Recompute perfbench/pinned.json from the current code.

    python3 perfbench/pin.py

For every workload and pinned seed it runs one untraced and one traced
pass and records the report digests and exact counts they agree on. Run
it only when a change alters report bytes or an exact count on purpose,
and say in CHANGES.md which digests changed and why.
"""

import json
import sys

from run import OUT, PINNED_PATH, PINNED_SEEDS, WORKLOADS, Run, monotonic


def main() -> int:
    OUT.mkdir(exist_ok=True)
    pinned = {}
    for workload in WORKLOADS:
        run = Run(workload, deadline=monotonic() + 600, pinned={})
        pinned[workload] = {}
        for seed in PINNED_SEEDS:
            plain = run.run_pass(seed, traced=False, gate=True)
            traced = run.run_pass(seed, traced=True, gate=True)
            for record in (plain, traced):
                if not record["ok"]:
                    print(f"{workload} seed {seed}: {record['error']}", file=sys.stderr)
                    return 1
            pinned[workload][str(seed)] = traced["exact"]
            print(f"{workload} seed {seed}: {traced['exact']['csv_sha256'][:16]}")
    PINNED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
