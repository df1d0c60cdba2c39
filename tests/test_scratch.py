"""No call reads kernel scratch that it has not written itself.

Every scratch array a kernel owns, the pads of its padded rows included, is
listed in ``kernel._scratch``.  Filled with NaN before a step or a run, it
must change nothing: the results are bit-equal, through int64 views, to
those of a fresh kernel, and a fault ends with the same class and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from mixflow.field import State
from mixflow.timestepping import RK2, RK4, SEMI_IMPLICIT, run_loop, step_once

from conftest import stack
from test_fused_stage import (
    assert_same_outcome, assert_same_records, kernel_cases, make_kernel, outcome,
)


def poisoned(kern):
    for a in kern._scratch:
        a.fill(np.nan)
    return kern


@pytest.mark.parametrize("integrator", [RK2, RK4, SEMI_IMPLICIT])
@given(case=kernel_cases())
@settings(max_examples=25, deadline=None)
def test_poisoned_scratch_changes_no_step(integrator, case):
    kern, _ = make_kernel(case, integrator)
    fresh, _ = make_kernel(case, integrator)
    q, U, t = fresh.to_evolved(case["rho"]), case["U"], case["t"]
    dt = case["dt_frac"] * kern.stable_dt(q, U, integrator != SEMI_IMPLICIT)
    want = outcome(step_once, fresh, t, stack(q, U), dt)
    for _ in range(2):  # the second step follows what the first one wrote
        assert_same_outcome(outcome(step_once, poisoned(kern), t, stack(q, U), dt), want)


@pytest.mark.parametrize("integrator", [RK2, RK4, SEMI_IMPLICIT])
@given(case=kernel_cases())
@settings(max_examples=10, deadline=None)
def test_poisoned_scratch_changes_no_run(integrator, case):
    kern, scheme = make_kernel(case, integrator)
    fresh, _ = make_kernel(case, integrator)
    state = State(time=case["t"], frame=case["frame"], grid=case["grid"], rho=case["rho"],
                  U=case["U"])
    q = kern.to_evolved(case["rho"])
    t_end = case["t"] + 4.5 * scheme.cfl * kern.stable_dt(q, case["U"], integrator != SEMI_IMPLICIT)
    want = outcome(run_loop, fresh, state, t_end, 1)
    got = outcome(run_loop, poisoned(kern), state, t_end, 1)
    assert got[0] == want[0]
    if got[0] == "raise":
        assert got[1:] == want[1:]
    else:
        assert_same_records(got[1], want[1])
