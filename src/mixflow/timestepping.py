"""Shared time integrators and the run loop driving both solvers.

A solver provides a *kernel* object with the small interface used below:

``kernel.grid``, ``kernel.frame``
    grid and coordinate frame of the evolved fields
``kernel.to_evolved(rho) / kernel.density_view(q)``
    map between the density and the variable actually integrated in time
    (the mass-coordinate solver evolves specific volume 1/rho so that the
    discrete fluid volume is conserved exactly by any stage combination)
``kernel.tendencies(t, q, U) -> (dq, dU)``
    full right-hand side (explicit integrators)
``kernel.explicit_tendencies(t, q, U) -> (dq, dU)``
    right-hand side without the viscous velocity coupling (IMEX path)
``kernel.viscous_solve(rho, B, coef) -> U``
    solves ``(I - coef * L_visc(rho)) U = B`` with Dirichlet walls; raises
    :class:`~mixflow.errors.NonFinite` on non-finite input
``kernel.stable_dt(q, U, explicit_viscosity) -> dt``

The public methods check the density of ``q`` against the floor on every
call.  The integrators below use the private entries behind them, which take
a density that has already been checked and neither recompute nor re-check
it:

``kernel._density(q, where) -> rho``
    the public methods' check; ``where`` ends the error message
``kernel._stable_dt(rho, U, explicit_viscosity) -> (dt, shared)``
    ``shared`` holds the values the first tendencies of the same fields can
    reuse (Eulerian frame: mean velocity and ``rho**(gamma-1)``), or None
``kernel._rhs(t, q, U, rho, include_viscous, shared=None) -> (dq, dU)``

Density positivity is enforced as a hard check at every stage: a violation
aborts the run with the last recorded trajectory attached to the exception,
it is never clipped.  :func:`_check_stage` returns the density it checked;
each stage hands it to the next tendencies, and :func:`step_once` returns the
density of its result so that :func:`run_loop` hands it to the next step's
stable-step estimate and first stage.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DensityFloor, NonFinite, SingularMatrix, SolverBlowup, ValidationError
from .field import State, Trajectory

RK2 = "explicit-RK2"
RK4 = "explicit-RK4"
SEMI_IMPLICIT = "semi-implicit-viscosity"
INTEGRATORS = (RK2, RK4, SEMI_IMPLICIT)

# ARS(2,2,2) IMEX coefficients; the implicit half is L-stable.
_ARS_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_ARS_DELTA = 1.0 - 1.0 / (2.0 * _ARS_GAMMA)


def tridiagonal_solve(Q, lower, diag, upper, B):
    """Solve the systems ``T_k`` in the eigenbasis ``Q`` with LAPACK ``dgtsv``.

    ``W = Q^T B`` is solved row by row, ``T_k x_k = W[k]``, and ``Q x`` is
    returned with the shape of ``B`` (N, n).  Row k of ``lower`` (N, n-1),
    ``diag`` (N, n) and ``upper`` (N, n-1) holds the sub-, main and
    super-diagonal of ``T_k``.  Non-finite input raises :class:`NonFinite`
    before any arithmetic on it, so a blow-up in an implicit stage ends the
    run like any other; a zero pivot raises :class:`SingularMatrix`.
    """
    for a in (lower, diag, upper, B):
        if not np.isfinite(a).all():
            raise NonFinite("non-finite input to the tridiagonal solve")
    W = Q.T @ B
    if not np.isfinite(W).all():
        raise NonFinite("non-finite input to the tridiagonal solve")
    out = np.empty_like(W)
    for k in range(W.shape[0]):
        _, _, _, out[k], info = dgtsv(lower[k], diag[k], upper[k], W[k])
        if info > 0:
            raise SingularMatrix(f"tridiagonal system {k} is singular (zero pivot {info})")
    return Q @ out


def _check_stage(kernel, q, U, floor, where):
    """Raise on non-finite or sub-floor fields; return the checked density."""
    rho = kernel.density_view(q)
    if not (np.isfinite(rho).all() and np.isfinite(U).all()):
        raise NonFinite(f"non-finite values in {where}")
    m = rho.min()
    if m <= floor:
        raise DensityFloor(f"min(rho) = {m:.3e} <= floor {floor:.1e} in {where}")
    return rho


def step_once(kernel, t, q, U, dt, scheme, rho=None, shared=None):
    """Advance (q, U) by one step of the configured integrator.

    ``rho`` is the already checked density of ``q`` and ``shared`` what
    ``kernel._stable_dt`` returned for the same fields; without ``rho`` the
    kernel's own density check runs first.  Returns the new fields and their
    checked density.
    """
    floor = scheme.artificial_floor
    rhs = kernel._rhs
    if rho is None:
        rho = kernel._density(q, f"at t = {t:.6g}")
    rho_n = None  # density of q_n, when a stage has checked it already

    if scheme.time_integrator == RK2:
        k1r, k1u = rhs(t, q, U, rho, True, shared)
        r1 = q + dt * k1r
        u1 = U + dt * k1u
        rho1 = _check_stage(kernel, r1, u1, floor, "RK2 stage")
        k2r, k2u = rhs(t + dt, r1, u1, rho1, True)
        q_n = q + 0.5 * dt * (k1r + k2r)
        U_n = U + 0.5 * dt * (k1u + k2u)

    elif scheme.time_integrator == RK4:
        k1r, k1u = rhs(t, q, U, rho, True, shared)
        r, u = q + 0.5 * dt * k1r, U + 0.5 * dt * k1u
        rho_s = _check_stage(kernel, r, u, floor, "RK4 stage")
        k2r, k2u = rhs(t + 0.5 * dt, r, u, rho_s, True)
        r, u = q + 0.5 * dt * k2r, U + 0.5 * dt * k2u
        rho_s = _check_stage(kernel, r, u, floor, "RK4 stage")
        k3r, k3u = rhs(t + 0.5 * dt, r, u, rho_s, True)
        r, u = q + dt * k3r, U + dt * k3u
        rho_s = _check_stage(kernel, r, u, floor, "RK4 stage")
        k4r, k4u = rhs(t + dt, r, u, rho_s, True)
        q_n = q + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        U_n = U + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)

    elif scheme.time_integrator == SEMI_IMPLICIT:
        g, d = _ARS_GAMMA, _ARS_DELTA
        k1r, k1u = rhs(t, q, U, rho, False, shared)
        q2 = q + g * dt * k1r
        rho2 = _check_stage(kernel, q2, U, floor, "IMEX stage")
        b2 = U + g * dt * k1u
        U2 = kernel.viscous_solve(rho2, b2, g * dt)
        k2i = (U2 - b2) / (g * dt)  # = L_visc(rho2) @ U2, recovered from the solve
        k2r, k2u = rhs(t + g * dt, q2, U2, rho2, False)
        q_n = q + dt * (d * k1r + (1.0 - d) * k2r)
        rho_n = _check_stage(kernel, q_n, U2, floor, "IMEX stage")
        b3 = U + dt * (d * k1u + (1.0 - d) * k2u + (1.0 - g) * k2i)
        U_n = kernel.viscous_solve(rho_n, b3, g * dt)

    else:
        raise ValidationError(f"unknown time integrator {scheme.time_integrator!r}")

    # Dirichlet walls: tendencies are zero there, but enforce exactly anyway
    U_n[:, 0] = 0.0
    U_n[:, -1] = 0.0
    if rho_n is None:
        return q_n, U_n, _check_stage(kernel, q_n, U_n, floor, "step result")
    # IMEX: q_n passed the stage check before the second solve; only U_n is new
    if not np.isfinite(U_n).all():
        raise NonFinite("non-finite values in step result")
    return q_n, U_n, rho_n


def run_loop(
    kernel,
    initial: State,
    t_end: float,
    scheme,
    snapshot_every: int = 20,
    make_record: Callable[[State], object] | None = None,
) -> Trajectory:
    """March from ``initial`` to ``t_end``, recording every ``snapshot_every`` steps.

    The initial and final states are always recorded.  On blow-up the partial
    trajectory is attached to the raised :class:`SolverBlowup`.
    """
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be >= 1")
    traj = Trajectory(kernel.frame, kernel.grid)

    def record(t, rho, U):
        s = State(time=t, frame=kernel.frame, grid=kernel.grid, rho=np.array(rho), U=U.copy())
        traj.append(s, make_record(s) if make_record is not None else None)

    t = float(initial.time)
    q = kernel.to_evolved(np.array(initial.rho, dtype=float))
    U = np.array(initial.U, dtype=float)
    record(t, kernel.density_view(q), U)
    t_stop = t_end - 1e-13 * max(t_end, 1.0)
    if not t < t_stop:
        return traj

    explicit_visc = scheme.time_integrator != SEMI_IMPLICIT
    steps = 0
    try:
        rho = kernel._density(q, "in stable_dt")
        while t < t_stop:
            dt, shared = kernel._stable_dt(rho, U, explicit_visc)
            dt = min(dt * scheme.cfl, t_end - t)
            q, U, rho = step_once(kernel, t, q, U, dt, scheme, rho, shared)
            t += dt
            steps += 1
            if steps % snapshot_every == 0 or t >= t_stop:
                record(t, rho, U)
    except SolverBlowup as exc:
        exc.trajectory = traj
        raise
    return traj
