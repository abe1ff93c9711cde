"""Record the default-seed rows that bench/run.py compares against.

    python3 bench/record_reference.py

Runs the sweep and mc workloads at the default seed, checks every call
with every seed-independent check and that repeated calls agree, and
writes their rows to bench/reference.json.
Re-record only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    reference = {}
    for name in ("sweep_indep", "sweep_depol", "mc_scan"):
        workload = run.WORKLOADS[name]
        child = run.run_loop(workload, run.DEFAULT_SEED, 0.0, False)
        calls = [{**c, "bound_slack": child["bound_slack"]} for c in child["calls"]]
        for call in calls:
            _, failed, messages = workload.check(call, run.DEFAULT_SEED, None)
            if failed:
                print("\n".join(messages), file=sys.stderr)
                return 1
        rows = [json.loads(c["stdout"])["rows"] for c in calls]
        if any(r != rows[0] for r in rows):
            print(f"{name}: repeated calls gave different rows", file=sys.stderr)
            return 1
        reference[name] = rows[0]
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
