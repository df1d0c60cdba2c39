"""Measure one workload in this process; run.py starts it as a child.

Order: import mixflow, time the import in IMPORT_PROBES fresh processes, set
up SETUP_REPS times, one warm-up repetition (checked, and at seed 0 compared
with the reference, but not timed), then timed repetitions until
``--seconds`` have passed.  With ``--trace 1`` the timed repetitions alternate
untraced and traced, and the grid-size probe runs last.  The last line of
standard output is one JSON object for run.py.

A shared host changes this process's speed by up to a factor of two over
minutes.  So each set-up sample and each operation sits between two runs of
``calibration_s()``, a fixed numpy/scipy loop that does not touch mixflow,
and is reported scaled by CAL_REF_S over their mean: seconds at the speed at
which that loop takes CAL_REF_S.  An import probe calibrates in its own
process right after the import.  Raw times are kept in the results record.
Per-layer times taken from spans are raw.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5
IMPORT_PROBES = 3  # fresh processes that time `import mixflow.cli`, then calibrate
IMPORT_CODE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import mixflow.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import bench; print(t, bench.calibration_s())"
)
CAL_REF_S = 0.0035  # calibration_s() at a quiet time on a 2-vCPU Intel Xeon VM
CAL_BLOCKS = 3
VERBS = ("run", "check", "report", "mms")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "out_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    import probe
    import tracing

    units = tracing.metric_units()
    units.update({f"cli.{verb}.wall_s": "s" for verb in VERBS})
    units.update({
        "io.bytes_written": "bytes",
        "trace.overhead_s": "s",
        "trace.overhead_pct": "%",
        "bench.audits_run": "count",
        "bench.audits_failed": "count",
    })
    units.update({name: "us" for name in probe.metric_names()})
    return units


def calibration_s() -> float:
    """Median time of CAL_BLOCKS runs of a loop of small-array numpy calls and
    banded solves, which is dispatch-bound like mixflow's kernels and slows
    with the host as they do."""
    import numpy as np
    from scipy.linalg import solve_banded

    x = np.linspace(0.0, 1.0, 257)
    ab = np.zeros((3, x.size))
    ab[0, 1:], ab[1], ab[2, :-1] = -0.1, 1.2, -0.1
    times = []
    for _ in range(CAL_BLOCKS):
        t = time.perf_counter()
        for _ in range(80):
            y = x * 1.0001 + 0.5
            float(np.abs(np.diff(y)).max())
            solve_banded((1, 1), ab, y)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """Scaled time over raw time for a sample between two calibrations."""
    return 2 * CAL_REF_S / (before + after)


def calibrated_samples(fn, n: int) -> dict[str, list[float]]:
    """Raw and scaled times of ``n`` calls of ``fn``, which returns its own time."""
    raw, cals = [], [calibration_s()]
    for _ in range(n):
        raw.append(fn())
        cals.append(calibration_s())
    return {"raw": raw, "scaled": [r * speed_factor(a, b) for r, a, b in zip(raw, cals, cals[1:])]}


@dataclass
class Rep:
    results: list  # workloads.OpResult per operation
    factors: list[float]  # speed_factor per operation
    out_bytes: int
    traced: bool

    @property
    def raw_wall(self) -> float:
        return sum(r.wall for r in self.results)

    @property
    def wall(self) -> float:
        return sum(r.wall * f for r, f in zip(self.results, self.factors))

    @property
    def cpu(self) -> float:
        return sum(r.cpu * f for r, f in zip(self.results, self.factors))

    def verb_wall(self, verb: str) -> float:
        return sum(r.wall * f for r, f in zip(self.results, self.factors) if r.verb == verb)

    def audits(self, verdict: str | None = None) -> int:
        """Audit and mms verdicts with ``verdict``, or all but SKIP."""
        return sum(
            v == verdict if verdict else v != "SKIP"
            for r in self.results for v in r.verdicts.values()
        )


def machine_record() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_probe() -> tuple[float, float]:
    """Raw and scaled import time of mixflow.cli in a fresh process, scaled by
    a calibration that process runs right after the import."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, os.path.join(ROOT, "src"), HERE],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    raw, cal = map(float, proc.stdout.split())
    return raw, raw * CAL_REF_S / cal


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mixflow.cli  # noqa: F401  (the import is part of set-up)

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(mixflow.__file__)) != os.path.join(ROOT, "src", "mixflow"):
        print(f"mixflow was imported from {mixflow.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import probe
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, f"work-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def timed_setup() -> float:
        t = time.perf_counter()
        workloads.setup(wl, args.seed, os.path.join(work, "inputs"))
        return time.perf_counter() - t

    cases = workloads.setup(wl, args.seed, os.path.join(work, "inputs"))
    probes = [import_probe() for _ in range(IMPORT_PROBES if args.trace == 0 else 0)]
    imports = {"raw": [r for r, _ in probes], "scaled": [s for _, s in probes]}
    setups = calibrated_samples(timed_setup, SETUP_REPS)

    reference = None
    if args.seed == 0 and not args.tiny:
        with open(workloads.REFERENCE) as fh:
            reference = json.load(fh)[wl.name]
    out_root = os.path.join(work, "out")
    runner = workloads.Runner(wl, workloads.plan(wl, cases, out_root, args.tiny), reference)
    tracer = tracing.Tracer()
    reps: list[Rep] = []

    def repetition(traced: bool) -> Rep:
        cals = []

        def before(op):
            cals.append(calibration_s())
            tracer.op = f"{len(reps)}/{op.key}"

        if traced:
            tracer.install()
        try:
            results = runner.repetition(out_root, before)
        finally:
            tracer.uninstall()
        cals.append(calibration_s())
        factors = [speed_factor(a, b) for a, b in zip(cals, cals[1:])]
        size = sum(os.path.getsize(p) for p in workloads.files_under(out_root))
        return Rep(results, factors, size, traced)

    reps.append(repetition(False))  # warm-up
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or (args.trace and len(reps) < 3):
        reps.append(repetition(args.trace == 1 and len(reps) % 2 == 0))
    timed = reps[1:]

    if args.trace == 0:
        metrics = {
            "setup_s": median(imports["scaled"]) + median(setups["scaled"]),
            "wall_s": median(r.wall for r in timed),
            "cpu_s": median(r.cpu for r in timed),
            "out_mb": median(r.out_bytes for r in timed) / 1e6,
        }
        units = E2E_UNITS
    else:
        plain = [r for r in timed if not r.traced]
        traced = [r for r in timed if r.traced]
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        for verb in VERBS:
            metrics[f"cli.{verb}.wall_s"] = median(r.verb_wall(verb) for r in plain)
        base = median(r.wall for r in plain)
        metrics["io.bytes_written"] = median(r.out_bytes for r in traced)
        metrics["trace.overhead_s"] = median(r.wall for r in traced) - base
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / base
        metrics["bench.audits_run"] = reps[0].audits()
        metrics["bench.audits_failed"] = reps[0].audits("FAIL")
        probe_min_s = 0.002 if args.tiny else 0.03
        metrics.update(probe.run_probe(os.path.join(workloads.DATA_DIR, "shear.ini"), work, probe_min_s))
        units = per_layer_units()
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.csv"))

    problems = [f"rep {k} {r.key}: {p}" for k, rep in enumerate(reps) for r in rep.results for p in r.problems]
    unexpected = sorted({f for rep in reps for f in runner.unexpected_fails(rep.results)})
    failed = sum(bool(r.problems) for rep in reps for r in rep.results)
    shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0 and not unexpected,
        "attempted": sum(len(rep.results) for rep in reps),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_record(),
        "import_s": import_s,
        "import_probes_s": imports,
        "setups_s": setups,
        "repetitions": len(timed),
        "raw_wall_s_median": median(r.raw_wall for r in timed),
        "speed_factor_median": median(f for r in timed for f in r.factors),
        "per_repetition": [
            {"traced": r.traced, "wall_s": r.wall, "raw_wall_s": r.raw_wall,
             "factors": r.factors, "out_bytes": r.out_bytes}
            for r in reps
        ],
        "ops_per_repetition": len(reps[0].results),
        "audits_run": reps[0].audits(),
        "audits_failed": reps[0].audits("FAIL"),
        "unexpected_audit_fails": unexpected,
        "problems": problems[:50],
    }
    print(json.dumps({"result": result, "record": record}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
