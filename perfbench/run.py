"""Benchmark of mixflow's CLI verbs run, check, report and mms.

From the root of a checkout:

    python3 perfbench/run.py --workload shear-rk2 --seed 0 --seconds 15 --trace 0

The workload runs in a child process (bench.py) with BLAS/OpenMP pinned to one
thread; the child's peak resident memory is ``peak_rss_mb``.  End-to-end times
are scaled to a reference machine speed by a calibration loop run between
samples (see bench.py); the raw times are in the results record.  Workloads
are in workloads.py.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  A summary goes to standard output, ending
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``; the full
record (machine, versions, every repetition) goes to
``.perfbench_out/results-<workload>-seed<n>-trace<t>.json`` and, for a traced
run, the spans to ``.perfbench_out/spans-*.csv``.  ``--tiny`` shortens every
horizon for the harness self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("shear-rk2", "corpus-imex", "dense-records", "mms-ladder")
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {
    k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "mixflow", "__init__.py")):
        print(f"no mixflow sources under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2

    env = {**os.environ, **SINGLE_THREAD, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"workload process exited {child.returncode}", file=sys.stderr)
        return 1
    payload = json.loads(lines[-1])
    result, record = payload["result"], payload["record"]
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    record["peak_rss_mb"] = peak_mb
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"results-{tag}.json"), "w") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  repetitions {record['repetitions']}  "
          f"ops/repetition {record['ops_per_repetition']}")
    print(f"raw wall per repetition {record['raw_wall_s_median']:.4g} s  "
          f"speed factor {record['speed_factor_median']:.4g}")
    print(f"ops {result['attempted']}  ops_failed {result['failed']}  "
          f"audits_run {record['audits_run']}  audits_failed {record['audits_failed']}")
    for line in record["problems"][:10] + record["unexpected_audit_fails"]:
        print(f"  problem: {line}")
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
