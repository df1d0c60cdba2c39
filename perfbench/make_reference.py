"""Write reference.json: the seed-0 final states (and mms error ladders) of
every workload, which bench.py compares the first repetition against.

    python3 perfbench/make_reference.py

Regenerate only when a workload's definition changes, never to absorb a
change in the program's results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_out", "make-reference")
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for wl in workloads.WORKLOADS.values():
        cases = workloads.setup(wl, 0, os.path.join(work, wl.name, "inputs"))
        ops = workloads.plan(wl, cases, os.path.join(work, wl.name, "out"), tiny=False)
        runner = workloads.Runner(wl, ops, reference=None)
        entries = {}
        for op in ops:
            res = runner.run_op(op)
            if res.problems:
                print(f"{wl.name} {op.key}: {res.problems}", file=sys.stderr)
                return 1
            if op.verb in ("run", "mms"):
                entries[op.key] = workloads.summary(op)
        reference[wl.name] = entries
    shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
