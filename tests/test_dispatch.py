"""One table per dispatch.

``runner.integrate`` picks the kernel from the start's frame through
``runner.KERNELS``; ``estimates.build_report`` hands each frame's trajectory,
which is its stack, and the frame's ledger to every audit through
``estimates._AUDITS``.
"""

import numpy as np
import pytest

from mixflow import estimates as est
from mixflow.errors import MixflowError
from mixflow.euler import EulerKernel
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D
from mixflow.lagrange import LagrangeKernel, euler_to_lagrange
from mixflow.mms import ManufacturedFields, default_params
from mixflow.model import derive_matrices
from mixflow.runner import integrate
from mixflow.timestepping import CENTRAL, SchemeConfig, run_loop

from conftest import bits, smooth_state

FRAMES = [EULERIAN, LAGRANGIAN]
BUILT = {EULERIAN: EulerKernel, LAGRANGIAN: LagrangeKernel}


def _start(frame, grid):
    s = smooth_state(grid)
    return s if frame == EULERIAN else euler_to_lagrange(s)


def _assert_same_states(a, b):
    assert a.frame == b.frame and len(a) == len(b)
    for name in ("times", "rho", "U"):
        assert np.array_equal(bits(getattr(a, name)), bits(getattr(b, name))), name


@pytest.mark.parametrize("frame", FRAMES)
def test_integrate_equals_run_loop(frame, params2, derived2, grid64):
    start = _start(frame, grid64)
    scheme = SchemeConfig()
    kern = BUILT[frame](start.grid, params2, derived2, scheme)
    want = run_loop(kern, start, 0.02, 7)
    assert len(want) >= 3
    _assert_same_states(integrate(start, params2, derived2, scheme, 0.02, snapshot_every=7), want)


@pytest.mark.parametrize("frame", FRAMES)
def test_integrate_equals_run_loop_with_mms_forcing(frame):
    params = default_params()
    derived = derive_matrices(params)
    d = 1.0 if frame == EULERIAN else 2.0
    scheme = SchemeConfig(advection=CENTRAL)
    runs = []
    for build in (True, False):  # each with its own forcing cache
        fields = ManufacturedFields(params=params, frame=frame, domain_length=d)
        start = fields.state(Grid1D(d, 32))
        if build:
            kern = BUILT[frame](start.grid, params, derived, scheme, fields.forcing)
            runs.append(run_loop(kern, start, 0.05, 5))
        else:
            runs.append(integrate(start, params, derived, scheme, 0.05, snapshot_every=5,
                                  forcing=fields.forcing))
    assert len(runs[0]) >= 3
    _assert_same_states(runs[1], runs[0])


def _two_frames(params2, derived2, grid64):
    return [integrate(_start(f, grid64), params2, derived2, SchemeConfig(), 0.05, snapshot_every=10)
            for f in FRAMES]


def test_audits_read_the_trajectory_arrays_without_a_copy(monkeypatch, params2, derived2,
                                                          grid64):
    trajs = _two_frames(params2, derived2, grid64)
    seen = []  # (frame, times, rho, U) of every stack a reader was handed

    def spy(name):
        real = getattr(est, name)

        def call(st, *args):
            seen.append((st.frame, st.times, st.rho, st.U))
            return real(st, *args)
        monkeypatch.setattr(est, name, call)

    for name in ("energy", "attach_time_fields", "audit_w_balance", "audit_gronwall_chain",
                 "audit_alpha_growth", "audit_pointwise_bounds", "derivative_norm_report",
                 "audit_velocity_damping", "empirical_constants"):
        spy(name)
    for traj in trajs:
        assert len(traj) >= 3
        est.diagnose(traj, params2)
    report = est.build_report(params2, derived2, trajs)
    assert all(r.verdict != est.SKIP for r in report.results.values())
    by_frame = {traj.frame: traj for traj in trajs}
    # diagnose: energy and the time fields per frame; the report: six audits
    # and the constants
    assert len(seen) == 2 * 2 + 6 + 1
    for frame, *arrays in seen:
        traj = by_frame[frame]
        for got, own in zip(arrays, (traj.times, traj.rho, traj.U)):
            assert np.shares_memory(got, own)


def test_report_needs_each_frame_in_its_place_with_its_ledger(params2, derived2, grid64):
    traj_e, traj_l = _two_frames(params2, derived2, grid64)
    with pytest.raises(MixflowError, match=r"^0 diagnostics records for \d+ states$"):  # no ledger
        est.build_report(params2, derived2, [traj_e], audits=("velocity_damping",))
    est.diagnose(traj_e, params2)
    est.diagnose(traj_l, params2)
    for trajs in ([], [traj_e, traj_e], [traj_l, traj_e, traj_l]):
        with pytest.raises(MixflowError, match="need one or two distinct frames"):
            est.build_report(params2, derived2, trajs, audits=("density_bounds",))
    # each trajectory is filed under its own frame, whatever its place
    assert (est.build_report(params2, derived2, [traj_l, traj_e]).to_dict()
            == est.build_report(params2, derived2, [traj_e, traj_l]).to_dict())
