"""Orchestration: turn a RunConfig into trajectories, audits and files."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import partial

from . import euler, lagrange
from .config import RunConfig, make_initial
from .errors import MixflowError, WorkerDied
from .estimates import EstimateReport, attach_time_fields, build_report, record_maker
from .field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory, total_mass
from .io import render_report_plots, save_report, save_trajectory
from .model import DerivedMatrices, derive_matrices


@dataclass
class RunResult:
    config: RunConfig
    derived: DerivedMatrices
    initial: State
    dval: float
    eulerian: Trajectory | None
    lagrangian: Trajectory | None
    report: EstimateReport


def concurrently(calls, announce=None) -> list:
    """Results of the zero-argument ``calls`` in call order, computed at once.

    ``calls[0]`` runs in this process; each further call runs in a worker
    started with the POSIX ``fork`` method, so it needs no pickling on the
    way in, and its result or exception comes back pickled through a pipe.
    A single call runs in this process and forks nothing.

    ``announce(k)``, when given, runs in this process before call ``k``'s
    result is taken and only once every earlier call has succeeded, so
    progress lines read as in a one-after-the-other run.  The first failure
    in call order is raised with its type, message and attributes (such as
    ``SolverBlowup.trajectory``); a worker that exits without a result
    raises :class:`WorkerDied`.  Workers whose result is no longer needed
    are terminated, and every worker is reaped before this returns.
    """
    workers, results = [], []
    try:
        if len(calls) > 1:
            import multiprocessing  # only a call that forks pays for the import

            ctx = multiprocessing.get_context("fork")
            sys.stdout.flush()  # a buffer copied by fork would be written twice
            sys.stderr.flush()
            for call in calls[1:]:
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_work, args=(call, send), daemon=True)
                proc.start()
                send.close()
                workers.append((proc, recv))
        for k, call in enumerate(calls):
            if announce is not None:
                announce(k)
            if k == 0:
                results.append(call())
                continue
            proc, recv = workers[k - 1]
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise WorkerDied(
                    f"worker {proc.pid} exited with code {proc.exitcode} before returning a result"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for k, (proc, recv) in enumerate(workers, start=1):
            if len(results) <= k:
                proc.terminate()
            proc.join()
            recv.close()


def _work(call, send):
    """Body of a forked worker: send ``(True, result)`` or ``(False, error)``."""
    try:
        outcome = (True, call())
    except BaseException as exc:  # raised again in the parent
        outcome = (False, exc)
    try:
        send.send(outcome)
    except Exception as exc:  # a result or an error that does not pickle
        send.send((False, MixflowError(f"worker result not returned: {type(exc).__name__}: {exc}")))


def execute(rc: RunConfig, progress=None) -> RunResult:
    """Run the configured problem in the requested frame(s) and audit it.

    ``frame = "both"`` runs the Eulerian problem and, concurrently, its
    mass-coordinate twin started from the transformed initial data.
    """
    grid = Grid1D(domain_length=1.0, n_cells=rc.n_cells)
    initial = make_initial(rc.initial, grid)
    derived = derive_matrices(rc.params)
    rec = record_maker(rc.params, derived)

    def solve(frame: str) -> Trajectory:
        if frame == EULERIAN:
            solver, start = euler.run, initial
        else:
            solver, start = lagrange.run_lagrangian, lagrange.euler_to_lagrange(initial)
        traj = solver(start, rc.params, derived, rc.scheme, rc.t_end,
                      snapshot_every=rc.snapshot_every, make_record=rec)
        if len(traj) >= 2:
            attach_time_fields(traj, rc.params, derived)
        return traj

    frames = [f for f in (EULERIAN, LAGRANGIAN) if rc.frame in (f, "both")]
    announce = progress and (lambda k: progress(f"running {frames[k]} solver to t = {rc.t_end}"))
    trajs = dict(zip(frames, concurrently([partial(solve, f) for f in frames], announce)))
    traj_e, traj_l = trajs.get(EULERIAN), trajs.get(LAGRANGIAN)
    report = build_report(rc.params, derived, eulerian=traj_e, lagrangian=traj_l,
                          audits=rc.audit_set)
    return RunResult(
        config=rc, derived=derived, initial=initial, dval=total_mass(initial),
        eulerian=traj_e, lagrangian=traj_l, report=report,
    )


def save_result(result: RunResult, out_dir: str, plots: bool = False) -> list[str]:
    """Write trajectory directories plus report.json under ``out_dir``."""
    rc = result.config
    os.makedirs(out_dir, exist_ok=True)
    trajs = [t for t in (result.eulerian, result.lagrangian) if t is not None]
    subs = [out_dir if len(trajs) == 1 else os.path.join(out_dir, t.frame) for t in trajs]

    def save(traj: Trajectory, sub: str):
        save_trajectory(sub, traj, rc.params, rc.scheme)
        if plots:
            render_report_plots(sub, traj)

    concurrently([partial(save, t, sub) for t, sub in zip(trajs, subs)])
    report_path = os.path.join(out_dir, "report.json")
    save_report(report_path, result.report)
    return [*subs, report_path]
