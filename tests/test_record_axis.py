"""The record-axis functionals reproduce the per-record loops bit for bit.

``estimates_reference`` keeps the loop versions of ``make_record``,
``attach_time_fields``, the eight audits and ``empirical_constants``.  On
random trajectories and on solver runs in both frames every diagnostic of
``diagnose`` and every number of the report must have the same bits
(compared as int64 views).
"""

import copy
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import estimates_reference as ref
from mixflow import estimates as est
from mixflow.config import make_initial
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory
from mixflow.lagrange import euler_to_lagrange
from mixflow.model import derive_matrices, make_params
from mixflow.runner import integrate

from conftest import CORPUS, bits, scenario_config


def _params(rng, n_comp):
    B = rng.standard_normal((n_comp, n_comp))
    A = rng.uniform(0.05, 1.0, (n_comp, n_comp))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return make_params(N=n_comp, K=rng.uniform(0.5, 2.0), gamma=rng.uniform(1.1, 2.0),
                       M=(B @ B.T + n_comp * np.eye(n_comp)).tolist(), A=A.tolist(), T_final=5.0)


def _trajectory(rng, frame, grid, n_comp, n_rec):
    times = np.cumsum(rng.uniform(0.005, 0.1, n_rec)) - 0.005
    states = []
    for t in times:
        rho = np.exp(0.4 * rng.standard_normal(grid.n_nodes))
        U = rng.standard_normal((n_comp, grid.n_nodes))
        U[:, [0, -1]] = 0.0
        states.append(State(time=float(t), frame=frame, grid=grid, rho=rho, U=U))
    return Trajectory.stack(states)


def _diagnose_both(traj, params, derived):
    """(diagnose's copy, the oracle's copy) of ``traj`` with their diagnostics."""
    old = copy.deepcopy(traj)
    old.diagnostics = [ref.make_record(s, params, derived) for s in ref.states(old)]
    if len(old) >= 2:
        ref.attach_time_fields(old, params, derived)
    return est.diagnose(traj, params), old


def _assert_same_ledger(ledger, old, names=est.FIELDS):
    """Each of the ``names`` a float64 column of ``ledger`` whose bits equal
    the oracle's records ``old``; absent exactly where the oracle holds None."""
    for name in names:
        want = [getattr(r, name) for r in old]
        if want[0] is None:
            assert name not in ledger and set(want) == {None}, name
            continue
        col = ledger[name]
        assert col.dtype == np.float64 and col.shape == (len(old),), name
        assert None not in want and (bits(col) == bits(want)).all(), (name, col, want)


def _assert_same(new, old, path="report"):
    """Equal trees; every float equal in its bits."""
    assert type(new) is type(old) or {type(new), type(old)} <= {float, np.float64}, path
    if isinstance(old, dict):
        assert new.keys() == old.keys(), path
        for k in old:
            _assert_same(new[k], old[k], f"{path}.{k}")
    elif isinstance(old, list):
        assert len(new) == len(old), path
        for k, (a, b) in enumerate(zip(new, old)):
            _assert_same(a, b, f"{path}[{k}]")
    elif isinstance(old, float):
        assert bits(new) == bits(old), (path, new, old)
    else:
        assert new == old, path


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_comp=st.sampled_from([2, 3, 4]),
    n_cells=st.integers(8, 64),
    n_rec=st.tuples(st.integers(3, 12), st.integers(3, 12)),
)
def test_record_axis_matches_per_record_loops(seed, n_comp, n_cells, n_rec):
    rng = np.random.default_rng(seed)
    params = _params(rng, n_comp)
    derived = derive_matrices(params)
    grids = {EULERIAN: Grid1D(1.0, n_cells), LAGRANGIAN: Grid1D(rng.uniform(0.5, 2.0), n_cells)}
    new, old = {}, {}
    for frame, r in zip((EULERIAN, LAGRANGIAN), n_rec):
        traj = _trajectory(rng, frame, grids[frame], n_comp, r)
        new[frame], old[frame] = _diagnose_both(traj, params, derived)
        _assert_same_ledger(new[frame].diagnostics, old[frame].diagnostics)
        # make_record is diagnose on one state, as Python floats
        recs = [est.make_record(s, params, derived) for s in ref.states(traj)]
        assert all(list(r) == list(est.STATE_FIELDS) for r in recs)
        assert all(type(v) is float for r in recs for v in r.values())
        _assert_same_ledger({f: np.array([r[f] for r in recs]) for f in est.STATE_FIELDS},
                            old[frame].diagnostics, est.STATE_FIELDS)

    report = est.build_report(params, derived, [new[EULERIAN], new[LAGRANGIAN]])
    expected = ref.build_report(params, derived, eulerian=old[EULERIAN], lagrangian=old[LAGRANGIAN])
    assert all(r.verdict != est.SKIP for r in report.results.values())
    _assert_same(report.to_dict(), expected.to_dict())
    for frame in new:  # the frame-less functionals on the other frame as well
        inputs = new[frame], est._ledger(new[frame])
        _assert_same(est.empirical_constants(*inputs, params),
                     ref.empirical_constants(old[frame], params))
        for name in ("density_bounds", "velocity_damping"):
            call_new, call_old = est._AUDITS[name][2], ref._AUDITS[name][2]
            _assert_same(asdict(call_new(*inputs, params, derived, 1.0)),
                         asdict(call_old(old[frame], params, derived, 1.0)))


@pytest.mark.parametrize("name", CORPUS)
def test_diagnose_matches_the_oracle_on_solver_runs(name):
    """The shipped scenarios at their own resolution, a few steps per record,
    in both frames."""
    rc = scenario_config(name)
    derived = derive_matrices(rc.params)
    initial = make_initial(rc.initial, Grid1D(1.0, rc.n_cells))
    for start in (initial, euler_to_lagrange(initial)):
        traj = integrate(start, rc.params, derived, rc.scheme, 0.01, snapshot_every=2)
        assert len(traj) >= 3
        new, old = _diagnose_both(traj, rc.params, derived)
        _assert_same_ledger(new.diagnostics, old.diagnostics)
