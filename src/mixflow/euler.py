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
from .field import EULERIAN, Grid1D, State, Trajectory
from .model import DerivedMatrices, MixtureParams
from .timestepping import INTEGRATORS, RK2, Kernel, run_loop, tridiagonal_solve

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


class EulerKernel(Kernel):
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
        super().__init__(grid, params, derived, scheme, forcing)
        self._p_coef = params.gamma / (params.gamma - 1.0)
        self._upwind = scheme.advection == UPWIND

    # density itself is the evolved variable in this frame
    @staticmethod
    def to_evolved(rho):
        return rho

    @staticmethod
    def density_view(q):
        return q

    def _density(self, rho, where):
        m = rho.min()
        if m <= self.scheme.artificial_floor:
            raise DensityFloor(f"min(rho) = {m:.3e} {where}")
        return rho

    # -- fluxes ------------------------------------------------------------

    def mass_flux(self, rho, v):
        """Face mass flux F and face density; the upwind variant adds the
        density-jump diffusion with face coefficient ``a = 0.5 |v_f|``, returned
        as the third value (None for central fluxes)."""
        v_f = v[1:] + v[:-1]
        v_f *= 0.5
        rho_f = rho[1:] + rho[:-1]
        rho_f *= 0.5
        F = v_f * rho_f
        a = None
        if self._upwind:
            a = np.abs(v_f)
            a *= 0.5
            F -= a * (rho[1:] - rho[:-1])
        return F, rho_f, a

    def continuity(self, rho, F):
        h = self._h
        drho = np.empty_like(rho)
        d = np.subtract(F[1:], F[:-1], out=drho[1:-1])
        np.negative(d, out=d)
        d /= h
        # half cells at the walls; the wall flux itself is rho*v = 0 there
        drho[0] = -2.0 * F[0] / h
        drho[-1] = 2.0 * F[-1] / h
        return drho

    # -- tendencies ----------------------------------------------------------

    def tendencies(self, t, rho, U):
        return self._rhs(t, rho, U, self._density(rho, f"at t = {t:.6g}"), True)

    def explicit_tendencies(self, t, rho, U):
        return self._rhs(t, rho, U, self._density(rho, f"at t = {t:.6g}"), False)

    def _shared(self, rho, U):
        """Mean velocity and rho**(gamma-1), used by stable_dt and the tendencies."""
        return np.add.reduce(U, 0) / self._N, rho ** self._g1

    def _rhs(self, t, q, U, rho, include_viscous, shared=None):
        p = self.params
        h = self._h
        v, rg = shared if shared is not None else self._shared(rho, U)
        F, rho_f, a = self.mass_flux(rho, v)
        drho = self.continuity(rho, F)

        jump = U[:, 1:] - U[:, :-1]                       # (N, n) face jumps
        rhs = F[1:] * jump[:, 1:]
        rhs += F[:-1] * jump[:, :-1]
        np.negative(rhs, out=rhs)
        rhs /= self._2h                                   # convection

        P = self._p_coef * rho_f
        P *= rg[1:] - rg[:-1]
        grad_p = P[1:] + P[:-1]
        grad_p /= self._2h
        grad_p *= p.K
        rhs -= grad_p

        if include_viscous:
            d2u = U[:, 2:] - 2.0 * U[:, 1:-1]
            d2u += U[:, :-2]
            d2u /= self._hh
            rhs += p.M @ d2u

        fric = p.A @ U
        fric -= self._row_sum_A * U
        rhs += fric[:, 1:-1]

        if a is not None:
            flux = (a * rho_f) * jump                     # theta * du / h * h
            d = flux[:, 1:] - flux[:, :-1]
            d /= h
            rhs += d

        dU = np.empty_like(U)
        dU[:, 0] = 0.0
        dU[:, -1] = 0.0
        np.divide(rhs, rho[1:-1], out=dU[:, 1:-1])

        if self.forcing is not None:
            s_rho, s_u = self.forcing(t, self.nodes)
            drho += s_rho
            dU[:, 1:-1] += s_u[:, 1:-1]
        return drho, dU

    # -- stability & implicit solve ------------------------------------------

    def stable_dt(self, rho, U, explicit_viscosity=True):
        return self._stable_dt(self._density(rho, "in stable_dt"), U, explicit_viscosity)[0]

    def _stable_dt(self, rho, U, explicit_viscosity):
        shared = self._shared(rho, U)
        v, rg = shared
        speed = np.abs(v)
        speed += np.sqrt(self._Kg * rg)
        dt = self._h / speed.max()
        if explicit_viscosity:
            dt = min(dt, self._hh * rho.min() / self._2lam_max)
        return float(dt), shared

    def viscous_solve(self, rho, B, coef):
        """Solve (I - coef * diag(1/rho) M d2) U = B, Dirichlet walls.

        M is diagonalized once (M = Q diag(lam) Q^T); each eigen-component is
        an independent scalar tridiagonal system.
        """
        d = self.derived
        h = self._h
        base = coef / (rho * h * h)
        c = d.lam[:, None] * base
        c[:, 0] = 0.0  # wall rows are the identity
        c[:, -1] = 0.0
        return tridiagonal_solve(d.Q, -c[:, 1:], 1.0 + 2.0 * c, -c[:, :-1], B)


# ---------------------------------------------------------------------------
# public operations


def run(
    initial: State,
    params: MixtureParams,
    derived: DerivedMatrices,
    scheme: SchemeConfig,
    t_end: float,
    snapshot_every: int = 20,
    forcing: Forcing | None = None,
) -> Trajectory:
    """Integrate from the initial state to ``t_end``; records every k-th step."""
    if initial.frame != EULERIAN:
        raise WrongFrame(f"expected an Eulerian state, got {initial.frame}")
    if t_end > params.T_final:
        raise ValidationError(f"t_end = {t_end} exceeds T_final = {params.T_final}")
    kern = EulerKernel(initial.grid, params, derived, scheme, forcing)
    return run_loop(kern, initial, t_end, scheme, snapshot_every)
