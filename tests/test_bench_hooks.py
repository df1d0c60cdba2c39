"""The benchmark's tracer (``perfbench/tracing.py``) resolves every hook.

The tracer times the program by replacing named functions and kernel methods
with wrappers.  A rename or a reference captured at import time would make a
per-layer metric read 0 without failing the benchmark; these tests fail
instead.
"""

import importlib.util
import os
import sys
from collections import Counter

import mixflow.cli  # noqa: F401  (imports every module the tracer patches)
from mixflow import estimates
from mixflow.lagrange import euler_to_lagrange
from mixflow.runner import integrate
from mixflow.timestepping import SchemeConfig

from conftest import smooth_state

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _resolve(mod, attr):
    """(owner, name) of a TARGETS entry: a module function or a class method."""
    owner = sys.modules[f"mixflow.{mod}"]
    cls_name, _, name = attr.rpartition(".")
    return (getattr(owner, cls_name) if cls_name else owner), name


def test_every_target_resolves_and_is_restored():
    targets = [_resolve(mod, attr) for mod, attr, _ in tracing.TARGETS]
    originals = [owner.__dict__[name] for owner, name in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, name), original in zip(targets, originals):
            assert owner.__dict__[name].__wrapped__ is original, (owner, name)
    finally:
        tracer.uninstall()
    assert [owner.__dict__[name] for owner, name in targets] == originals


def test_build_report_spans_one_per_audit(params2, derived2, grid64):
    s = smooth_state(grid64)
    scheme = SchemeConfig()
    traj_e = integrate(s, params2, derived2, scheme, 0.05, snapshot_every=10)
    traj_l = integrate(euler_to_lagrange(s), params2, derived2, scheme, 0.05, snapshot_every=10)
    for traj in (traj_e, traj_l):
        assert len(traj) >= 3
        estimates.diagnose(traj, params2)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = estimates.build_report(params2, derived2, [traj_e, traj_l])
    finally:
        tracer.uninstall()
    assert all(r.verdict != estimates.SKIP for r in report.results.values())
    spans = Counter(name for name, *_ in tracer.spans)
    audits = {name[len("estimates.audit."):]: n for name, n in spans.items()
              if name.startswith("estimates.audit.")}
    # with both frames, density_bounds audits each of them
    assert audits == {name: 2 if name == "density_bounds" else 1
                      for name in estimates.KNOWN_AUDITS}
    assert spans["estimates.build_report"] == 1
