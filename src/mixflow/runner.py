"""Orchestration: turn a RunConfig into trajectories, audits and files."""

from __future__ import annotations

import os
import pickle
import signal
import sys
from dataclasses import dataclass
from functools import partial

from . import euler, lagrange
from .config import RunConfig, make_initial
from .errors import MixflowError, SolverBlowup, WorkerDied
from .estimates import EstimateReport, build_report, diagnose
from .field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory
from .io import render_report_plots, save_report, save_trajectory
from .model import DerivedMatrices, derive_matrices


@dataclass
class RunResult:
    config: RunConfig
    derived: DerivedMatrices
    initial: State
    eulerian: Trajectory | None
    lagrangian: Trajectory | None
    report: EstimateReport


def concurrently(calls, announce=None) -> list:
    """Results of the zero-argument ``calls`` in call order, computed at once.

    ``calls[0]`` runs in this process; each further call runs in a worker
    made with ``os.fork``, so it needs no pickling on the way in, and its
    result or exception comes back pickled through a pipe.  A single call
    runs in this process and forks nothing.

    ``announce(k)``, when given, runs in this process before call ``k``'s
    result is taken and only once every earlier call has succeeded, so
    progress lines read as in a one-after-the-other run.  The first failure
    in call order is raised with its type, message and attributes (such as
    ``SolverBlowup.trajectory``); a worker that exits without a result
    raises :class:`WorkerDied`.  Workers whose result is no longer needed
    are terminated, and every worker is reaped before this returns.
    """
    workers, results = [], []  # workers: [pid, read end of its pipe, reaped]
    try:
        if len(calls) > 1:
            sys.stdout.flush()  # a buffer copied by fork would be written twice
            sys.stderr.flush()
        for call in calls[1:]:
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(rfd)
                _work(call, wfd)
            os.close(wfd)
            workers.append([pid, open(rfd, "rb"), False])
        for k, call in enumerate(calls):
            if announce is not None:
                announce(k)
            if k == 0:
                results.append(call())
                continue
            worker = workers[k - 1]
            pid, pipe, _ = worker
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            worker[2] = True
            if code != 0 or not data:
                raise WorkerDied(f"worker {pid} exited with code {code} before returning a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for k, (pid, pipe, reaped) in enumerate(workers, start=1):
            if not reaped:
                if len(results) <= k:
                    os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
            pipe.close()


def _work(call, fd: int):
    """Body of a forked worker: write the pickled ``(True, result)`` or
    ``(False, error)`` to ``fd`` and leave with ``os._exit``, so none of the
    parent's exit handlers or pending ``finally`` blocks run here."""
    code = 1
    try:
        try:
            outcome = (True, call())
        except BaseException as exc:  # raised again in the parent
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:  # a result or an error that does not pickle
            data = pickle.dumps(
                (False, MixflowError(f"worker result not returned: {type(exc).__name__}: {exc}")))
        with open(fd, "wb") as pipe:
            pipe.write(data)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def execute(rc: RunConfig, progress=None) -> RunResult:
    """Run the configured problem in the requested frame(s) and audit it.

    ``frame = "both"`` runs the Eulerian problem and, concurrently, its
    mass-coordinate twin started from the transformed initial data.
    """
    grid = Grid1D(domain_length=1.0, n_cells=rc.n_cells)
    initial = make_initial(rc.initial, grid)
    derived = derive_matrices(rc.params)

    frames = [f for f in (EULERIAN, LAGRANGIAN) if rc.frame in (f, "both")]
    # the mass-coordinate start is built here, before any fork, so that a
    # frame worker inherits scipy.interpolate instead of importing it anew
    starts = {f: initial if f == EULERIAN else lagrange.euler_to_lagrange(initial) for f in frames}
    solvers = {EULERIAN: euler.run, LAGRANGIAN: lagrange.run_lagrangian}

    def solve(frame: str) -> Trajectory:
        try:
            traj = solvers[frame](starts[frame], rc.params, derived, rc.scheme, rc.t_end,
                                  snapshot_every=rc.snapshot_every)
        except SolverBlowup as exc:  # the saved partial trajectory keeps its ledger
            if exc.trajectory is not None:
                diagnose(exc.trajectory, rc.params, derived)
            raise
        return diagnose(traj, rc.params, derived)

    announce = progress and (lambda k: progress(f"running {frames[k]} solver to t = {rc.t_end}"))
    trajs = dict(zip(frames, concurrently([partial(solve, f) for f in frames], announce)))
    traj_e, traj_l = trajs.get(EULERIAN), trajs.get(LAGRANGIAN)
    report = build_report(rc.params, derived, eulerian=traj_e, lagrangian=traj_l,
                          audits=rc.audit_set)
    return RunResult(
        config=rc, derived=derived, initial=initial,
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
