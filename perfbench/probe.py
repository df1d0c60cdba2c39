"""Grid-size probe: µs per call at several n on the shipped shear initial state.

Comparing sizes tells a fixed per-call (dispatch) cost from a per-element one.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from mixflow.config import make_initial, parse_config_file
from mixflow.estimates import make_record
from mixflow.euler import EulerKernel
from mixflow.field import Grid1D
from mixflow.io import read_snapshot, write_snapshot
from mixflow.lagrange import LagrangeKernel, euler_to_lagrange
from mixflow.model import derive_matrices

SIZES = (64, 256, 1024, 4096)
KERNEL_FUNCS = ("tendencies", "explicit_tendencies", "viscous_solve", "stable_dt")
OTHER_FUNCS = (("estimates", "make_record"), ("io", "write_snapshot"), ("io", "read_snapshot"))


def metric_names() -> list[str]:
    funcs = [(m, f) for m in ("euler", "lagrange") for f in KERNEL_FUNCS] + list(OTHER_FUNCS)
    return [f"probe.{m}.{f}.n{n}.us" for m, f in funcs for n in SIZES]


def per_call_us(fn, min_s: float, min_calls: int = 5) -> float:
    """Median of individually timed calls, repeated for at least ``min_s``."""
    times = []
    while len(times) < min_calls or sum(times) < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def run_probe(shear_ini: str, work_dir: str, min_s: float) -> dict[str, float]:
    rc = parse_config_file(shear_ini)
    derived = derive_matrices(rc.params)
    snap = os.path.join(work_dir, "probe_snapshot.csv")
    out = {}
    for n in SIZES:
        initial = make_initial(rc.initial, Grid1D(domain_length=1.0, n_cells=n))
        lagr = euler_to_lagrange(initial)
        for layer, cls, state in (("euler", EulerKernel, initial), ("lagrange", LagrangeKernel, lagr)):
            k = cls(state.grid, rc.params, derived, rc.scheme)
            q = k.to_evolved(np.array(state.rho, dtype=float))
            U = np.array(state.U, dtype=float)
            rho = k.density_view(q)
            coef = 1e-3  # the solve's cost does not depend on its coefficient
            calls = {
                "tendencies": lambda: k.tendencies(0.0, q, U),
                "explicit_tendencies": lambda: k.explicit_tendencies(0.0, q, U),
                "viscous_solve": lambda: k.viscous_solve(rho, U, coef),
                "stable_dt": lambda: k.stable_dt(q, U, True),
            }
            for f in KERNEL_FUNCS:
                out[f"probe.{layer}.{f}.n{n}.us"] = per_call_us(calls[f], min_s)
        out[f"probe.estimates.make_record.n{n}.us"] = per_call_us(
            lambda: make_record(initial, rc.params, derived), min_s)
        out[f"probe.io.write_snapshot.n{n}.us"] = per_call_us(
            lambda: write_snapshot(snap, initial), min_s)
        out[f"probe.io.read_snapshot.n{n}.us"] = per_call_us(
            lambda: read_snapshot(snap, 0.0, initial.frame), min_s)
    os.remove(snap)
    return out
