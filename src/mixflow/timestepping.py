"""Shared time integrators, the scheme settings and the run loop driving
both solvers.  Runs enter through :func:`mixflow.runner.integrate`, which
builds the kernel of the start's frame (``runner.KERNELS``) and calls
:func:`run_loop`.

The integrators carry one C-contiguous state ``Y`` of shape ``(1 + N, n)``:
row 0 the evolved q (rho; in mass coordinates the specific volume 1/rho,
whose discrete volume any stage combination conserves), rows 1..N the
velocities, so each stage combination, wall zeroing and (for q = rho) finite
check is one numpy call.  Both kernels derive from :class:`Kernel`, whose
constructor ``(grid, params, derived, scheme, forcing=None)`` keeps the
inputs and constants and allocates, with their slice views, two state
buffers (a step writes its result into the one its input is not, so the
input survives the step and the result the next one) and four derivative
buffers, all live in RK4; each kernel adds its own scratch the same way.
``params.exchange(U, kernel._fric, kernel._fr)`` is the drag of both frames, and
``kernel.scheme`` the one scheme a run reads: integrator, CFL number and every density floor.

Public entries check the density of ``q`` against the floor on every call and
return new arrays: ``tendencies(t, q, U) -> (dq, dU)`` (full right-hand
side), ``explicit_tendencies`` (without the viscous coupling, for IMEX),
``stable_dt(q, U, explicit_viscosity) -> dt`` (these three are there for the
benchmark harness, ``perfbench/``, and the tests; runs do not call them),
``viscous_solve(rho, B,
coef)``, which solves ``(I - coef * L_visc(rho)) U = B`` with Dirichlet
walls and raises :class:`~mixflow.errors.NonFinite` on non-finite input,
and ``to_evolved(rho)``/``density_view(q)``.  The integrators use private
entries that take an already checked density and neither recompute nor
re-check it:

``kernel._density(q, where) -> rho``
    the public methods' check; ``where`` ends the error message
``kernel._stable_dt(rho, U, explicit_viscosity) -> (dt, shared)``
    ``shared`` is what the next ``_rhs`` of the same fields reuses
    (``rho**(gamma-1)``, the mean velocity staying in a kernel buffer) or None
``kernel._rhs(t, Y, rho, include_viscous, out, shared=None) -> out``
    writes ``(dq, dU)`` into the caller's ``(1 + N, n)`` buffer ``out``; the
    scratch it reads is rewritten by the kernel's next call

Density positivity is a hard check at every stage: a violation aborts the
run with the recorded trajectory attached to the exception, it is never
clipped.  :func:`_check_stage` returns the density it checked for the next
tendencies, and :func:`step_once` returns its result's density, which
:func:`run_loop` hands to the next stable-step estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DensityFloor, NonFinite, SingularMatrix, SolverBlowup, ValidationError
from .field import EULERIAN, State, Trajectory

RK2 = "explicit-RK2"
RK4 = "explicit-RK4"
SEMI_IMPLICIT = "semi-implicit-viscosity"
INTEGRATORS = (RK2, RK4, SEMI_IMPLICIT)
UPWIND = "first-order-upwind"
CENTRAL = "central-2"
#: a run stops once within END_SLACK * max(t_end, 1) of t_end: a shorter horizon takes no step
END_SLACK = 1e-13

#: forcing callback: (t, nodes) -> (s_rho, s_U) tendencies to add
Forcing = Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]]

# ARS(2,2,2) IMEX coefficients; the implicit half is L-stable.
_ARS_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_ARS_DELTA = 1.0 - 1.0 / (2.0 * _ARS_GAMMA)


@dataclass(frozen=True)
class SchemeConfig:
    time_integrator: str = RK2
    cfl: float = 0.4
    advection: str = UPWIND
    artificial_floor: float = 1e-12

    def __post_init__(self):
        if self.time_integrator not in INTEGRATORS:
            raise ValidationError(f"unknown time integrator {self.time_integrator!r}")
        if self.advection not in (UPWIND, CENTRAL):
            raise ValidationError(f"unknown advection scheme {self.advection!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValidationError(f"cfl must be in (0, 1], got {self.cfl}")
        if not 0 < (floor := self.artificial_floor) < np.inf:
            raise ValidationError(f"artificial_floor must be finite and > 0, got {floor}")


class Kernel:
    """Inputs, constants and step buffers shared by both kernels."""

    def __init__(self, grid, params, derived, scheme, forcing=None):
        self.grid = grid
        self.params = params
        self.derived = derived
        self.scheme = scheme
        self.forcing = forcing
        self.nodes = grid.nodes()
        self._N = params.N
        self._h = grid.h
        self._2h = 2 * grid.h
        self._hh = grid.h * grid.h
        self._g1 = params.gamma - 1.0
        self._Kg = params.K * params.gamma
        self._2lam_max = 2.0 * derived.lam_max
        shape = (1 + params.N, self.nodes.size)
        self._states = (np.zeros(shape), np.zeros(shape))
        self._derivs = tuple(np.zeros(shape) for _ in range(4))
        self._public = (np.zeros(shape), np.zeros(shape))  # input and result of tendencies
        self._bound = {id(a): _Views(a) for a in (*self._states, *self._derivs, *self._public)}
        self._fric, self._fr = np.empty((2, params.N, self.nodes.size))  # out, scratch of exchange
        self._fric_c = self._fric[:, 1:-1]

    def _views(self, Y):
        """Views into ``Y``: made once for the kernel's own buffers, per call otherwise."""
        return self._bound.get(id(Y)) or _Views(Y)

    def _fresh_rhs(self, t, q, U, include_viscous):
        """The public tendencies: the density check, then ``(dq, dU)`` in new arrays."""
        rho = self._density(q, f"at t = {t:.6g}")
        Y, out = self._public
        Y[0], Y[1:] = q, U
        self._rhs(t, Y, rho, include_viscous, out)
        return out[0].copy(), out[1:].copy()


class _Views:
    """Rows and shifted columns of one stacked ``(1 + N, n)`` array."""

    def __init__(self, Y):
        self.q, self.U, self.walls = Y[0], Y[1:], Y[1:, :: Y.shape[1] - 1]
        self.q_l, self.q_r, self.q_c = Y[0, :-1], Y[0, 1:], Y[0, 1:-1]
        self.Y_l, self.Y_r = Y[:, :-1], Y[:, 1:]
        self.U_l, self.U_r, self.U_c = Y[1:, :-1], Y[1:, 1:], Y[1:, 1:-1]
        self.U_ll, self.U_rr = Y[1:, :-2], Y[1:, 2:]


@functools.cache
def _dgtsv():
    """LAPACK ``dgtsv``, imported on the first solve rather than with mixflow:
    only the semi-implicit scheme solves, and the other verbs start without
    scipy."""
    from scipy.linalg.lapack import dgtsv

    return dgtsv


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
        if not _finite(a):
            raise NonFinite("non-finite input to the tridiagonal solve")
    W = Q.T @ B
    if not _finite(W):
        raise NonFinite("non-finite input to the tridiagonal solve")
    out = np.empty_like(W)
    dgtsv = _dgtsv()
    for k in range(W.shape[0]):
        _, _, _, out[k], info = dgtsv(lower[k], diag[k], upper[k], W[k])
        if info > 0:
            raise SingularMatrix(f"tridiagonal system {k} is singular (zero pivot {info})")
    return Q @ out


def _finite(a):
    """``np.isfinite(a).all()`` at a third of the cost of a ufunc reduction."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _check_stage(kernel, Y, where, U=None):
    """Raise on non-finite fields of ``Y`` or a density at or below the floor of
    ``kernel.scheme``, with ``U`` in place of ``Y[1:]`` when given; return the density."""
    rho = kernel.density_view(Y[0])
    if U is None and kernel.frame == EULERIAN:  # rho is row 0: one scan
        finite = _finite(Y)
    else:
        finite = _finite(rho) and _finite(Y[1:] if U is None else U)
    if not finite:
        raise NonFinite(f"non-finite values in {where}")
    floor = kernel.scheme.artificial_floor
    if rho[rho.argmin()] <= floor:  # the least value, without a ufunc reduction
        raise DensityFloor(f"min(rho) = {rho.min():.3e} <= floor {floor:.1e} in {where}")
    return rho


def step_once(kernel, t, Y, dt, rho=None, shared=None):
    """Advance the stacked state ``Y`` by one step of the kernel's integrator.

    ``rho`` is the already checked density of ``Y[0]`` and ``shared`` what
    ``kernel._stable_dt`` returned for the same fields; without ``rho`` the
    kernel's own density check runs first.  Returns the new state, written
    into the kernel's state buffer that ``Y`` is not, and its checked density.
    """
    rhs = kernel._rhs
    if rho is None:
        rho = kernel._density(Y[0], f"at t = {t:.6g}")
    A, B = kernel._states
    S = B if Y is A or Y.base is A else A  # never the buffer Y lives in
    K1, K2, K3, K4 = kernel._derivs
    rho_n = None  # density of the result, when a stage has checked it already

    if kernel.scheme.time_integrator == RK2:
        rhs(t, Y, rho, True, K1, shared)
        np.add(Y, np.multiply(K1, dt, out=S), out=S)
        rhs(t + dt, S, _check_stage(kernel, S, "RK2 stage"), True, K2)
        K1 += K2
        K1 *= 0.5 * dt
        np.add(Y, K1, out=S)

    elif kernel.scheme.time_integrator == RK4:
        rhs(t, Y, rho, True, K1, shared)
        for c, K, L in ((0.5 * dt, K1, K2), (0.5 * dt, K2, K3), (dt, K3, K4)):
            np.add(Y, np.multiply(K, c, out=S), out=S)
            rhs(t + c, S, _check_stage(kernel, S, "RK4 stage"), True, L)
        K2 *= 2
        K1 += K2
        K3 *= 2
        K1 += K3
        K1 += K4
        K1 *= dt / 6.0
        np.add(Y, K1, out=S)

    else:  # SEMI_IMPLICIT; SchemeConfig admits no other name
        g, d = _ARS_GAMMA, _ARS_DELTA
        rhs(t, Y, rho, False, K1, shared)
        np.add(Y, np.multiply(K1, g * dt, out=S), out=S)  # q2 and b2, the solve's right side
        rho2 = _check_stage(kernel, S, "IMEX stage", Y[1:])
        U2 = kernel.viscous_solve(rho2, S[1:], g * dt)
        k2i = (U2 - S[1:]) / (g * dt)  # = L_visc(rho2) @ U2, recovered from the solve
        S[1:] = U2
        rhs(t + g * dt, S, rho2, False, K2)
        S[0] = Y[0] + dt * (d * K1[0] + (1.0 - d) * K2[0])
        rho_n = _check_stage(kernel, S, "IMEX stage")
        b3 = Y[1:] + dt * (d * K1[1:] + (1.0 - d) * K2[1:] + (1.0 - g) * k2i)
        S[1:] = kernel.viscous_solve(rho_n, b3, g * dt)

    # Dirichlet walls: tendencies are zero there, but enforce exactly anyway
    kernel._views(S).walls[...] = 0.0
    if rho_n is None:
        return S, _check_stage(kernel, S, "step result")
    # IMEX: q_n passed the stage check before the second solve; only U_n is new
    if not _finite(S[1:]):
        raise NonFinite("non-finite values in step result")
    return S, rho_n


def run_loop(kernel, initial: State, t_end: float, snapshot_every: int = 20) -> Trajectory:
    """March from ``initial`` to ``t_end``, recording every ``snapshot_every`` steps.

    The initial and final states are always recorded, as copies stacked into
    the trajectory once at the end; :func:`mixflow.estimates.diagnose` fills
    its diagnostics.  On blow-up the partial trajectory is attached to the
    raised :class:`SolverBlowup`.
    """
    times, rhos, Us = [], [], []

    def record(t, rho, Y):
        times.append(t)
        rhos.append(np.array(rho))
        Us.append(Y[1:].copy())

    trajectory = functools.partial(Trajectory, kernel.frame, kernel.grid, times, rhos, Us)
    t = float(initial.time)
    Y = kernel._states[0]
    Y[0], Y[1:] = kernel.to_evolved(np.array(initial.rho, dtype=float)), initial.U
    record(t, kernel.density_view(Y[0]), Y)
    t_stop = t_end - END_SLACK * max(t_end, 1.0)
    if not t < t_stop:
        return trajectory()

    explicit_visc = kernel.scheme.time_integrator != SEMI_IMPLICIT
    steps = 0
    try:
        rho = kernel._density(Y[0], "in stable_dt")
        while t < t_stop:
            dt, shared = kernel._stable_dt(rho, Y[1:], explicit_visc)
            dt = min(dt * kernel.scheme.cfl, t_end - t)
            Y, rho = step_once(kernel, t, Y, dt, rho, shared)
            t += dt
            steps += 1
            if steps % snapshot_every == 0 or t >= t_stop:
                record(t, rho, Y)
    except SolverBlowup as exc:
        exc.trajectory = trajectory()
        raise
    return trajectory()
