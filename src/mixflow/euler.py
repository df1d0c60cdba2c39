"""Eulerian solver: shared density plus N velocities on the unit interval.

The model evolved here is

    d rho/dt + d(rho v)/dx = 0,            v = mean of the u_i
    rho (d u_i/dt + v d u_i/dx) + K d(rho^gamma)/dx
        = sum_j M[i,j] u_j'' + sum_j A[i,j] (u_j - u_i),   u_i = 0 at x = 0, 1.

Discretization notes (these carry the load for the estimate audits):

* The continuity equation is in flux form with half cells at the walls, so
  total mass telescopes to round-off for any face flux.
* The momentum convection uses the flux/gradient average
  ``-(F_{f+} du_{f+} + F_{f-} du_{f-}) / 2h`` which cancels the kinetic-energy
  transport term ``0.5 u^2 drho/dt`` exactly for *any* mass flux F.
* The pressure force averages face coefficients
  ``P_f = gamma/(gamma-1) * mean(rho)_f * jump(rho^(gamma-1))_f`` so pressure
  work and internal-energy change cancel exactly against the same flux.
* Upwinding is added as explicitly sign-definite face dissipation (on rho and
  on u), never folded into the centered operators.

Together these make the semi-discrete energy identity
``dE/dt = -visc - fric - (upwind terms) <= -visc - fric`` exact in space,
which is what the energy-budget audit measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DensityFloor, ValidationError, WrongFrame
from .field import EULERIAN, Grid1D, State, Trajectory, average_velocity
from .model import DerivedMatrices, MixtureParams
from .timestepping import INTEGRATORS, RK2, SEMI_IMPLICIT, run_loop, step_once, tridiagonal_solve

UPWIND = "first-order-upwind"
CENTRAL = "central-2"

#: forcing callback: (t, nodes) -> (s_rho, s_U) tendencies to add
Forcing = Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]]


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
        if not self.artificial_floor > 0:
            raise ValidationError("artificial_floor must be positive")


class EulerKernel:
    """Vectorized right-hand side of the Eulerian system."""

    frame = EULERIAN

    def __init__(
        self,
        grid: Grid1D,
        params: MixtureParams,
        derived: DerivedMatrices,
        scheme: SchemeConfig,
        forcing: Forcing | None = None,
    ):
        self.grid = grid
        self.params = params
        self.derived = derived
        self.scheme = scheme
        self.forcing = forcing
        self.nodes = grid.nodes()
        self._row_sum_A = params.A.sum(axis=1)

    # density itself is the evolved variable in this frame
    @staticmethod
    def to_evolved(rho):
        return rho

    @staticmethod
    def density_view(q):
        return q

    # -- fluxes ------------------------------------------------------------

    def mass_flux(self, rho, v):
        """Face mass flux; the upwind variant adds a density-jump diffusion."""
        v_f = 0.5 * (v[1:] + v[:-1])
        rho_f = 0.5 * (rho[1:] + rho[:-1])
        F = v_f * rho_f
        if self.scheme.advection == UPWIND:
            F = F - 0.5 * np.abs(v_f) * (rho[1:] - rho[:-1])
        return F, v_f, rho_f

    def continuity(self, rho, F):
        h = self.grid.h
        drho = np.empty_like(rho)
        drho[1:-1] = -(F[1:] - F[:-1]) / h
        # half cells at the walls; the wall flux itself is rho*v = 0 there
        drho[0] = -2.0 * F[0] / h
        drho[-1] = 2.0 * F[-1] / h
        return drho

    # -- tendencies ----------------------------------------------------------

    def tendencies(self, t, rho, U):
        return self._tendencies(t, rho, U, include_viscous=True)

    def explicit_tendencies(self, t, rho, U):
        return self._tendencies(t, rho, U, include_viscous=False)

    def _tendencies(self, t, rho, U, include_viscous):
        p = self.params
        h = self.grid.h
        if rho.min() <= self.scheme.artificial_floor:
            raise DensityFloor(f"min(rho) = {rho.min():.3e} at t = {t:.6g}")

        v = U.mean(axis=0)
        F, v_f, rho_f = self.mass_flux(rho, v)
        drho = self.continuity(rho, F)

        dU = np.zeros_like(U)
        jump = U[:, 1:] - U[:, :-1]                       # (N, n) face jumps
        conv = -(F[1:] * jump[:, 1:] + F[:-1] * jump[:, :-1]) / (2 * h)

        rg = rho ** (p.gamma - 1.0)
        P = (p.gamma / (p.gamma - 1.0)) * rho_f * (rg[1:] - rg[:-1])
        grad_p = (P[1:] + P[:-1]) / (2 * h)

        rhs = conv - p.K * grad_p

        if include_viscous:
            d2u = (U[:, 2:] - 2.0 * U[:, 1:-1] + U[:, :-2]) / (h * h)
            rhs = rhs + p.M @ d2u

        fric = p.A @ U - self._row_sum_A[:, None] * U
        rhs = rhs + fric[:, 1:-1]

        if self.scheme.advection == UPWIND:
            q = (0.5 * np.abs(v_f) * rho_f) * jump        # theta * du / h * h
            rhs = rhs + (q[:, 1:] - q[:, :-1]) / h

        dU[:, 1:-1] = rhs / rho[1:-1]

        if self.forcing is not None:
            s_rho, s_u = self.forcing(t, self.nodes)
            drho = drho + s_rho
            dU[:, 1:-1] = dU[:, 1:-1] + s_u[:, 1:-1]
        return drho, dU

    # -- stability & implicit solve ------------------------------------------

    def stable_dt(self, rho, U, explicit_viscosity=True):
        p = self.params
        h = self.grid.h
        rho_min = rho.min()
        if rho_min <= self.scheme.artificial_floor:
            raise DensityFloor(f"min(rho) = {rho_min:.3e} in stable_dt")
        c = np.sqrt(p.K * p.gamma * rho ** (p.gamma - 1.0))
        speed = np.abs(U.mean(axis=0)) + c
        dt = h / speed.max()
        if explicit_viscosity:
            dt = min(dt, h * h * rho_min / (2.0 * self.derived.lam_max))
        return float(dt)

    def viscous_solve(self, rho, B, coef):
        """Solve (I - coef * diag(1/rho) M d2) U = B, Dirichlet walls.

        M is diagonalized once (M = Q diag(lam) Q^T); each eigen-component is
        an independent scalar tridiagonal system.
        """
        d = self.derived
        h = self.grid.h
        base = coef / (rho * h * h)
        c = d.lam[:, None] * base
        c[:, 0] = 0.0  # wall rows are the identity
        c[:, -1] = 0.0
        return d.Q @ tridiagonal_solve(-c[:, 1:], 1.0 + 2.0 * c, -c[:, :-1], d.Q.T @ B)


# ---------------------------------------------------------------------------
# public operations


def _require_eulerian(state: State):
    if state.frame != EULERIAN:
        raise WrongFrame(f"expected an Eulerian state, got {state.frame}")


def rhs_continuity(state: State, params: MixtureParams, scheme: SchemeConfig | None = None) -> np.ndarray:
    """Density tendency -d(rho v)/dx in conservative flux form.

    The trapezoid integral of the result is zero to round-off (mass
    conservation telescopes).
    """
    _require_eulerian(state)
    scheme = scheme or SchemeConfig()
    kern = EulerKernel(state.grid, params, _trivial_derived(params), scheme)
    v = average_velocity(state)
    F, _, _ = kern.mass_flux(state.rho, v)
    return kern.continuity(state.rho, F)


def rhs_momentum(
    state: State,
    params: MixtureParams,
    derived: DerivedMatrices,
    scheme: SchemeConfig | None = None,
) -> np.ndarray:
    """Velocity tendencies: convection, pressure, viscosity and friction over rho.

    Wall rows are exactly zero (Dirichlet boundary conditions).
    """
    _require_eulerian(state)
    scheme = scheme or SchemeConfig()
    kern = EulerKernel(state.grid, params, derived, scheme)
    _, dU = kern.tendencies(state.time, np.asarray(state.rho), np.asarray(state.U))
    return dU


def stable_dt(state: State, params: MixtureParams, derived: DerivedMatrices, scheme: SchemeConfig) -> float:
    """Largest stable step: acoustic CFL, and the viscous h^2 limit when explicit."""
    _require_eulerian(state)
    kern = EulerKernel(state.grid, params, derived, scheme)
    explicit = scheme.time_integrator != SEMI_IMPLICIT
    return kern.stable_dt(np.asarray(state.rho), np.asarray(state.U), explicit) * scheme.cfl


def step(
    state: State,
    params: MixtureParams,
    derived: DerivedMatrices,
    scheme: SchemeConfig,
    dt: float | None = None,
    forcing: Forcing | None = None,
) -> State:
    """Advance one time step (dt defaults to the stable step)."""
    _require_eulerian(state)
    kern = EulerKernel(state.grid, params, derived, scheme, forcing)
    if dt is None:
        explicit = scheme.time_integrator != SEMI_IMPLICIT
        dt = kern.stable_dt(np.asarray(state.rho), np.asarray(state.U), explicit) * scheme.cfl
    rho, U = step_once(kern, state.time, np.asarray(state.rho), np.asarray(state.U), dt, scheme)
    return State(time=state.time + dt, frame=EULERIAN, grid=state.grid, rho=rho, U=U)


def run(
    initial: State,
    params: MixtureParams,
    derived: DerivedMatrices,
    scheme: SchemeConfig,
    t_end: float,
    snapshot_every: int = 20,
    forcing: Forcing | None = None,
    make_record=None,
) -> Trajectory:
    """Integrate from the initial state to ``t_end``; records every k-th step."""
    _require_eulerian(initial)
    if t_end > params.T_final:
        raise ValidationError(f"t_end = {t_end} exceeds T_final = {params.T_final}")
    kern = EulerKernel(initial.grid, params, derived, scheme, forcing)
    return run_loop(kern, initial, t_end, scheme, snapshot_every, make_record)


def _trivial_derived(params: MixtureParams) -> DerivedMatrices:
    # rhs_continuity never touches the derived matrices; avoid recomputing them
    n = params.N
    eye = np.eye(n)
    ones = np.ones(n)
    return DerivedMatrices(M_inv=eye, C0=1.0, K_tilde=params.K, V_weights=ones / n,
                           lam=ones, Q=eye)
