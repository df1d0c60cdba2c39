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

Density positivity is enforced as a hard check at every stage: a violation
aborts the run with the last recorded trajectory attached to the exception,
it is never clipped.
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


def tridiagonal_solve(lower, diag, upper, W):
    """Solve ``T_k x_k = W[k]`` for each row k with LAPACK ``dgtsv``.

    Row k of ``lower`` (N, n-1), ``diag`` (N, n) and ``upper`` (N, n-1) holds
    the sub-, main and super-diagonal of ``T_k``; the result has the shape of
    ``W`` (N, n).  Non-finite input raises :class:`NonFinite` so a blow-up in
    an implicit stage ends the run like any other; a zero pivot raises
    :class:`SingularMatrix`.
    """
    for a in (lower, diag, upper, W):
        if not np.isfinite(a).all():
            raise NonFinite("non-finite input to the tridiagonal solve")
    out = np.empty_like(W)
    for k in range(W.shape[0]):
        _, _, _, out[k], info = dgtsv(lower[k], diag[k], upper[k], W[k])
        if info > 0:
            raise SingularMatrix(f"tridiagonal system {k} is singular (zero pivot {info})")
    return out


def _check_stage(kernel, q, U, floor, where):
    """Raise on non-finite or sub-floor fields; return the checked density."""
    rho = kernel.density_view(q)
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(U))):
        raise NonFinite(f"non-finite values in {where}")
    m = rho.min()
    if m <= floor:
        raise DensityFloor(f"min(rho) = {m:.3e} <= floor {floor:.1e} in {where}")
    return rho


def step_once(kernel, t, q, U, dt, scheme):
    """Advance (q, U) by one step of the configured integrator."""
    floor = scheme.artificial_floor
    f = kernel.tendencies

    if scheme.time_integrator == RK2:
        k1r, k1u = f(t, q, U)
        r1 = q + dt * k1r
        u1 = U + dt * k1u
        _check_stage(kernel, r1, u1, floor, "RK2 stage")
        k2r, k2u = f(t + dt, r1, u1)
        q_n = q + 0.5 * dt * (k1r + k2r)
        U_n = U + 0.5 * dt * (k1u + k2u)

    elif scheme.time_integrator == RK4:
        k1r, k1u = f(t, q, U)
        r, u = q + 0.5 * dt * k1r, U + 0.5 * dt * k1u
        _check_stage(kernel, r, u, floor, "RK4 stage")
        k2r, k2u = f(t + 0.5 * dt, r, u)
        r, u = q + 0.5 * dt * k2r, U + 0.5 * dt * k2u
        _check_stage(kernel, r, u, floor, "RK4 stage")
        k3r, k3u = f(t + 0.5 * dt, r, u)
        r, u = q + dt * k3r, U + dt * k3u
        _check_stage(kernel, r, u, floor, "RK4 stage")
        k4r, k4u = f(t + dt, r, u)
        q_n = q + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        U_n = U + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)

    elif scheme.time_integrator == SEMI_IMPLICIT:
        g, d = _ARS_GAMMA, _ARS_DELTA
        k1r, k1u = kernel.explicit_tendencies(t, q, U)
        q2 = q + g * dt * k1r
        rho2 = _check_stage(kernel, q2, U, floor, "IMEX stage")
        b2 = U + g * dt * k1u
        U2 = kernel.viscous_solve(rho2, b2, g * dt)
        k2i = (U2 - b2) / (g * dt)  # = L_visc(rho2) @ U2, recovered from the solve
        k2r, k2u = kernel.explicit_tendencies(t + g * dt, q2, U2)
        q_n = q + dt * (d * k1r + (1.0 - d) * k2r)
        rho_n = _check_stage(kernel, q_n, U2, floor, "IMEX stage")
        b3 = U + dt * (d * k1u + (1.0 - d) * k2u + (1.0 - g) * k2i)
        U_n = kernel.viscous_solve(rho_n, b3, g * dt)

    else:
        raise ValidationError(f"unknown time integrator {scheme.time_integrator!r}")

    # Dirichlet walls: tendencies are zero there, but enforce exactly anyway
    U_n[:, 0] = 0.0
    U_n[:, -1] = 0.0
    _check_stage(kernel, q_n, U_n, floor, "step result")
    return q_n, U_n


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

    def record(t, q, U):
        rho = kernel.density_view(q)
        s = State(time=t, frame=kernel.frame, grid=kernel.grid, rho=np.array(rho), U=U.copy())
        traj.append(s, make_record(s) if make_record is not None else None)

    t = float(initial.time)
    q = kernel.to_evolved(np.array(initial.rho, dtype=float))
    U = np.array(initial.U, dtype=float)
    record(t, q, U)
    if t_end <= t:
        return traj

    explicit_visc = scheme.time_integrator != SEMI_IMPLICIT
    steps = 0
    try:
        while t < t_end - 1e-13 * max(t_end, 1.0):
            dt = kernel.stable_dt(q, U, explicit_visc) * scheme.cfl
            dt = min(dt, t_end - t)
            q, U = step_once(kernel, t, q, U, dt, scheme)
            t += dt
            steps += 1
            if steps % snapshot_every == 0 or t >= t_end - 1e-13 * max(t_end, 1.0):
                record(t, q, U)
    except SolverBlowup as exc:
        exc.trajectory = traj
        raise
    return traj
