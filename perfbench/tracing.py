"""Spans around mixflow's public functions, recorded from the benchmark only.

``Tracer.install`` replaces each target function, kernel method and every
name a mixflow module imported it under with a timing wrapper; ``uninstall``
puts the originals back.  Nothing in the program is edited.  Spans stay in
memory as (name, start_ns, end_ns, parent, op) and are written out at exit.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class
TARGETS = (
    ("timestepping", "run_loop", "timestepping.run_loop"),
    ("timestepping", "step_once", "timestepping.step_once"),
    *(
        (mod, f"{cls}.{meth}", f"{mod}.{meth}")
        for mod, cls in (("euler", "EulerKernel"), ("lagrange", "LagrangeKernel"))
        for meth in ("tendencies", "explicit_tendencies", "viscous_solve", "stable_dt")
    ),
    ("lagrange", "euler_to_lagrange", "lagrange.euler_to_lagrange"),
    ("estimates", "make_record", "estimates.make_record"),
    ("estimates", "attach_time_fields", "estimates.attach_time_fields"),
    ("estimates", "build_report", "estimates.build_report"),
    ("estimates", "audit_energy_budget", "estimates.audit.energy_budget"),
    ("estimates", "audit_density_bounds", "estimates.audit.density_bounds"),
    ("estimates", "audit_w_balance", "estimates.audit.w_balance"),
    ("estimates", "audit_gronwall_chain", "estimates.audit.gronwall"),
    ("estimates", "audit_alpha_growth", "estimates.audit.alpha_growth"),
    ("estimates", "audit_pointwise_bounds", "estimates.audit.pointwise_bounds"),
    ("estimates", "derivative_norm_report", "estimates.audit.derivative_norms"),
    ("estimates", "audit_velocity_damping", "estimates.audit.velocity_damping"),
    ("io", "write_snapshot", "io.write_snapshot"),
    ("io", "read_snapshot", "io.read_snapshot"),
    ("io", "write_diagnostics", "io.write_diagnostics"),
    ("io", "read_diagnostics", "io.read_diagnostics"),
    ("io", "save_trajectory", "io.save_trajectory"),
    ("io", "load_trajectory", "io.load_trajectory"),
    ("io", "save_report", "io.save_report"),
    ("io", "render_report_plots", "io.render_report_plots"),
    ("runner", "execute", "runner.execute"),
    ("runner", "save_result", "runner.save_result"),
    ("cli", "_cmd_run", "cli.run"),
    ("cli", "_cmd_check", "cli.check"),
    ("cli", "_cmd_report", "cli.report"),
    ("cli", "_cmd_mms", "cli.mms"),
    ("config", "parse_config_file", "config.parse_config_file"),
    ("config", "make_initial", "config.make_initial"),
    ("model", "derive_matrices", "model.derive_matrices"),
    ("mms", "ManufacturedFields.forcing", "mms.forcing"),
)

# layers reported as calls and us/call, and as total seconds per repetition
PER_CALL = (
    *(f"{m}.{f}" for m in ("euler", "lagrange")
      for f in ("tendencies", "stable_dt", "explicit_tendencies", "viscous_solve")),
    "estimates.make_record", "io.write_snapshot", "io.read_snapshot", "mms.forcing",
)
TOTALS = (
    "lagrange.euler_to_lagrange", "estimates.attach_time_fields", "estimates.build_report",
    *(name for _, _, name in TARGETS if name.startswith("estimates.audit.")),
    "io.write_diagnostics", "io.read_diagnostics", "io.render_report_plots",
    "runner.execute", "runner.save_result",
    "config.parse_config_file", "config.make_initial", "model.derive_matrices",
)


def metric_units() -> dict[str, str]:
    """Per-layer metrics computed from spans, with their units."""
    units = {
        "timestepping.steps": "count",
        "timestepping.step_once.us_p50": "us",
        "timestepping.step_once.us_p99": "us",
        "timestepping.self_s": "s",
        "cli.check.self_s": "s",
    }
    for name in PER_CALL:
        units[f"{name}.calls"] = "count"
        units[f"{name}.us_per_call"] = "us"
    for name in TOTALS:
        units[f"{name}.total_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op)
        self.stack: list[int] = []
        self.op = ""  # id of the operation in progress, shared by its spans
        self._patched: list = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "mixflow" or k.startswith("mixflow.")]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[f"mixflow.{mod_name}"]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[fn_name]
            wrapper = self._wrap(original, name)
            self._set(owner, fn_name, wrapper, original)
            if not cls_name:  # names other modules imported with `from ... import`
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original and mod is not owner:
                            self._set(mod, key, wrapper, original)

    def _set(self, owner, key, value, original):
        setattr(owner, key, value)
        self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{start},{end}\n")


def layer_stats(spans: list) -> dict[str, dict]:
    """calls, total and self time (duration minus the part its direct child
    spans cover; one thread, so children never overlap) per span name."""
    child_ns = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": []})
    for i, (name, start, end, _, _) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["total_ns"] += end - start
        s["self_ns"] += end - start - child_ns[i]
        s["durations"].append(end - start)
    return stats


def layer_metrics(spans: list, reps: int) -> dict[str, float]:
    """Per-repetition values of ``metric_units()`` from the spans of ``reps``
    traced repetitions; a layer the workload never calls reads 0."""
    stats = layer_stats(spans)

    def get(name, key):
        return stats[name][key] if name in stats else 0

    out = {}
    steps = get("timestepping.step_once", "durations") or []
    out["timestepping.steps"] = len(steps) / reps
    if len(steps) >= 2:
        cuts = statistics.quantiles(steps, n=100)
        out["timestepping.step_once.us_p50"] = statistics.median(steps) / 1e3
        out["timestepping.step_once.us_p99"] = cuts[98] / 1e3
    else:
        out["timestepping.step_once.us_p50"] = out["timestepping.step_once.us_p99"] = 0.0
    out["timestepping.self_s"] = (
        get("timestepping.step_once", "self_ns") + get("timestepping.run_loop", "self_ns")
    ) / 1e9 / reps
    out["cli.check.self_s"] = get("cli.check", "self_ns") / 1e9 / reps
    for name in PER_CALL:
        calls = get(name, "calls")
        out[f"{name}.calls"] = calls / reps
        out[f"{name}.us_per_call"] = get(name, "total_ns") / calls / 1e3 if calls else 0.0
    for name in TOTALS:
        out[f"{name}.total_s"] = get(name, "total_ns") / 1e9 / reps
    return out
