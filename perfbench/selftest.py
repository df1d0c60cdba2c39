"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the seeded input generator, the self-time arithmetic, that tracing
leaves the program as it found it, that every workload runs at tiny size with
and without tracing and prints exactly the metrics BENCHMARK.json lists, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def number_after(text: str, key: str) -> float:
    return float(text.split(f"{key}=")[1].split(",")[0].split()[0])


def test_generator():
    with open(os.path.join(workloads.DATA_DIR, "shear.ini")) as fh:
        shipped = fh.read()
    assert workloads.make_ini(shipped, 0) == shipped
    a, b = workloads.make_ini(shipped, 7), workloads.make_ini(shipped, 7)
    assert a == b and a != shipped
    assert a != workloads.make_ini(shipped, 8)
    changed = [(x, y) for x, y in zip(shipped.splitlines(), a.splitlines()) if x != y]
    assert {x.split("=")[0].strip() for x, _ in changed} == {"rho", "u1", "u2"}
    rho_old, rho_new = changed[0]
    assert 0.9 <= number_after(rho_new, "amp") / number_after(rho_old, "amp") <= 1.1
    assert abs(number_after(rho_new, "center") - number_after(rho_old, "center")) <= 0.02
    assert number_after(rho_new, "base") == number_after(rho_old, "base")
    assert workloads.perturb_spec("zero", random.Random(1)) == "zero"
    assert workloads.perturb_spec("table:file=t.csv,column=u1", random.Random(1)) == "table:file=t.csv,column=u1"
    dense = workloads.make_ini(shipped, 0, snapshot_every=1)
    assert "snapshot_every = 1\n" in dense and "snapshot_every = 40" not in dense


def test_self_time():
    spans = [
        ("a", 0, 100, -1, "op"),
        ("b", 10, 30, 0, "op"),
        ("c", 12, 20, 1, "op"),
        ("b", 40, 70, 0, "op"),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"]["self_ns"] == 100 - 20 - 30
    assert stats["b"]["calls"] == 2 and stats["b"]["self_ns"] == 12 + 30
    assert stats["c"]["self_ns"] == 8


def test_tracer_restores():
    import mixflow.euler as euler
    import mixflow.runner as runner

    before = (runner.save_trajectory, euler.run_loop, euler.EulerKernel.tendencies)
    t = tracing.Tracer()
    t.install()
    assert runner.save_trajectory is not before[0] and euler.run_loop is not before[1]
    t.uninstall()
    assert (runner.save_trajectory, euler.run_loop, euler.EulerKernel.tendencies) == before


def run_bench(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_tiny_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in workloads.WORKLOADS:
            proc = run_bench(ROOT, name, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    try:
        proc = run_bench(bare, "shear-rk2", 0)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    tests = [test_generator, test_self_time, test_tracer_restores, test_tiny_runs,
             test_refuses_without_sources]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
