"""Orchestration: turn a RunConfig into trajectories, audits and files."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from functools import partial

from .config import RunConfig, make_initial
from .errors import MixflowError, SolverBlowup, WorkerDied
from .estimates import EstimateReport, build_report, diagnose
from .euler import EulerKernel
from .field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory
from .io import save_report, save_trajectory
from .lagrange import LagrangeKernel, euler_to_lagrange
from .model import DerivedMatrices, MixtureParams, derive_matrices
from .timestepping import Forcing, SchemeConfig, run_loop

#: the kernel that integrates a state of each frame
KERNELS = {EULERIAN: EulerKernel, LAGRANGIAN: LagrangeKernel}
#: prctl option that sends the calling process a signal when its parent ends
_PR_SET_PDEATHSIG = 1


@dataclass
class RunResult:
    config: RunConfig
    eulerian: Trajectory | None
    lagrangian: Trajectory | None
    report: EstimateReport


def integrate(
    initial: State,
    params: MixtureParams,
    derived: DerivedMatrices,
    scheme: SchemeConfig,
    t_end: float,
    snapshot_every: int = 20,
    forcing: Forcing | None = None,
) -> Trajectory:
    """Integrate ``initial`` to ``t_end`` with the kernel of its frame,
    recording every ``snapshot_every``-th step (see :func:`run_loop`)."""
    kernel = KERNELS[initial.frame](initial.grid, params, derived, scheme, forcing)
    return run_loop(kernel, initial, t_end, snapshot_every)


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
    are terminated, and every worker is reaped before this returns.  On
    Linux no worker outlives the calling process, however that ends (even by
    SIGKILL); on other platforms a worker of a killed caller runs on until
    its call returns.
    """
    workers, results = [], []  # workers: [pid, read end of its pipe, reaped]
    try:
        if len(calls) > 1:
            sys.stdout.flush()  # a buffer copied by fork would be written twice
            sys.stderr.flush()
        caller = os.getpid()
        for call in calls[1:]:
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(rfd)
                _work(call, wfd, caller)
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


def _work(call, fd: int, caller: int):
    """Body of a forked worker: write the pickled ``(True, result)`` or
    ``(False, error)`` to ``fd`` and leave with ``os._exit``, so none of the
    parent's exit handlers or pending ``finally`` blocks run here.  On Linux
    the kernel kills the worker when ``caller`` ends, and a worker whose
    caller ended before that was arranged (it then has another parent)
    leaves at once."""
    code = 1
    try:
        if sys.platform.startswith("linux"):
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != caller:
                return
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
    starts = {f: initial if f == EULERIAN else euler_to_lagrange(initial) for f in frames}

    def solve(frame: str) -> Trajectory:
        try:
            traj = integrate(starts[frame], rc.params, derived, rc.scheme, rc.t_end,
                             snapshot_every=rc.snapshot_every)
        except SolverBlowup as exc:  # the saved partial trajectory keeps its ledger
            if exc.trajectory is not None:
                diagnose(exc.trajectory, rc.params)
            raise
        return diagnose(traj, rc.params)

    announce = progress and (lambda k: progress(f"running {frames[k]} solver to t = {rc.t_end}"))
    trajs = dict(zip(frames, concurrently([partial(solve, f) for f in frames], announce)))
    report = build_report(rc.params, derived, list(trajs.values()), audits=rc.audit_set)
    return RunResult(rc, trajs.get(EULERIAN), trajs.get(LAGRANGIAN), report)


def save_result(result: RunResult, out_dir: str) -> list[str]:
    """Write trajectory directories plus report.json under ``out_dir``."""
    rc = result.config
    os.makedirs(out_dir, exist_ok=True)
    trajs = [t for t in (result.eulerian, result.lagrangian) if t is not None]
    subs = [out_dir if len(trajs) == 1 else os.path.join(out_dir, t.frame) for t in trajs]
    concurrently([partial(save_trajectory, sub, t, rc.params, rc.scheme)
                  for t, sub in zip(trajs, subs)])
    report_path = os.path.join(out_dir, "report.json")
    save_report(report_path, result.report)
    return [*subs, report_path]
