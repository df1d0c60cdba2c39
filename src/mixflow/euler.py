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
        n, N = self.nodes.size, params.N
        # node, face and interior-node scratch, and the views the tendencies read
        self._v, self._speed, self._e2 = np.empty((3, n))
        self._v_f, self._rho_f, self._F, self._a, self._P, self._e = np.empty((6, n - 1))
        self._gp = np.empty(n - 2)
        self._D, self._flux = np.empty((1 + N, n - 1)), np.empty((N, n - 1))
        self._rhsb, self._tmp, self._Md = np.empty((3, N, n - 2))
        self._fric, self._fr = np.empty((2, N, n))
        self._v_l, self._v_r = self._v[:-1], self._v[1:]
        self._F_l, self._F_r, self._P_l, self._P_r = self._F[:-1], self._F[1:], self._P[:-1], self._P[1:]
        self._drho, self._jump = self._D[0], self._D[1:]
        self._jump_l, self._jump_r = self._jump[:, :-1], self._jump[:, 1:]
        self._flux_l, self._flux_r = self._flux[:, :-1], self._flux[:, 1:]
        self._fric_c = self._fric[:, 1:-1]

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

    # -- tendencies ----------------------------------------------------------

    def tendencies(self, t, rho, U):
        return self._fresh_rhs(t, rho, U, True)

    def explicit_tendencies(self, t, rho, U):
        return self._fresh_rhs(t, rho, U, False)

    def _shared(self, rho, U):
        """``rho**(gamma-1)`` for stable_dt and the tendencies; mean velocity into ``_v``."""
        np.add.reduce(U, 0, out=self._v)
        self._v /= self._N
        return rho ** self._g1

    def _rhs(self, t, Y, rho, include_viscous, out, shared=None):
        p = self.params
        h = self._h
        y, o = self._views(Y), self._views(out)
        rg = self._shared(rho, y.U) if shared is None else shared

        # face mass flux F; the upwind variant adds the density-jump diffusion
        # with face coefficient a = 0.5 |v_f|
        v_f, rho_f, F, a = self._v_f, self._rho_f, self._F, self._a
        np.add(self._v_r, self._v_l, out=v_f)
        v_f *= 0.5
        np.add(y.q_r, y.q_l, out=rho_f)
        rho_f *= 0.5
        np.multiply(v_f, rho_f, out=F)
        np.subtract(y.Y_r, y.Y_l, out=self._D)  # face jumps of rho and of each u_i
        if self._upwind:
            np.abs(v_f, out=a)
            a *= 0.5
            self._drho *= a
            F -= self._drho

        # continuity; half cells at the walls, where the wall flux rho*v is 0
        d = np.subtract(self._F_r, self._F_l, out=o.q_c)
        np.negative(d, out=d)
        d /= h
        o.q[0] = -2.0 * F[0] / h
        o.q[-1] = 2.0 * F[-1] / h

        rhs, tmp = self._rhsb, self._tmp
        np.multiply(self._F_r, self._jump_r, out=rhs)
        rhs += np.multiply(self._F_l, self._jump_l, out=tmp)
        np.negative(rhs, out=rhs)
        rhs /= self._2h                                   # convection

        P, grad_p = self._P, self._gp
        np.multiply(self._p_coef, rho_f, out=P)
        P *= np.subtract(rg[1:], rg[:-1], out=self._e)
        np.add(self._P_r, self._P_l, out=grad_p)
        grad_p /= self._2h
        grad_p *= p.K
        rhs -= grad_p

        if include_viscous:
            d2u = np.multiply(y.U_c, 2.0, out=tmp)
            np.subtract(y.U_rr, d2u, out=d2u)
            d2u += y.U_ll
            d2u /= self._hh
            rhs += np.matmul(p.M, d2u, out=self._Md)

        fric = np.matmul(p.A, y.U, out=self._fric)
        fric -= np.multiply(self._row_sum_A, y.U, out=self._fr)
        rhs += self._fric_c

        if self._upwind:
            a *= rho_f
            np.multiply(a, self._jump, out=self._flux)  # theta * du / h * h
            d = np.subtract(self._flux_r, self._flux_l, out=tmp)
            d /= h
            rhs += d

        o.walls[...] = 0.0
        np.divide(rhs, y.q_c, out=o.U_c)

        if self.forcing is not None:
            s_rho, s_u = self.forcing(t, self.nodes)
            o.q += s_rho
            o.U_c += s_u[:, 1:-1]
        return out

    # -- stability & implicit solve ------------------------------------------

    def stable_dt(self, rho, U, explicit_viscosity=True):
        return self._stable_dt(self._density(rho, "in stable_dt"), U, explicit_viscosity)[0]

    def _stable_dt(self, rho, U, explicit_viscosity):
        rg = self._shared(rho, U)
        speed = np.abs(self._v, out=self._speed)
        speed += np.sqrt(np.multiply(self._Kg, rg, out=self._e2), out=self._e2)
        # extremes by arg-index lookups, cheaper than ufunc reductions
        dt = self._h / speed[speed.argmax()]
        if explicit_viscosity:
            dt = min(dt, self._hh * rho[rho.argmin()] / self._2lam_max)
        return float(dt), rg

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
