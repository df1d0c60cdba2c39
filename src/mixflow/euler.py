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

import numpy as np

from .errors import DensityFloor
from .field import EULERIAN, Grid1D
from .model import DerivedMatrices, MixtureParams
# run_loop is not called here: perfbench/selftest.py resolves it as euler.run_loop
from .timestepping import UPWIND, Forcing, Kernel, SchemeConfig, operands, run_loop  # noqa: F401


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
        vars(self._c).update(operands(p_coef=params.gamma / (params.gamma - 1.0)))
        self._upwind = scheme.advection == UPWIND
        n, N = self.nodes.size, params.N
        self._W, self._Wf = self._zeros(2, 2, n)  # nodes: rho and v; faces: their means, v_f's pad 0
        self._rg, self._a, self._e, self._speed, self._e2 = self._zeros(5, n)
        self._D = self._zeros(1 + N, n)  # faces: jumps of rho and of each u_i
        G = self._zeros((N + 1) * n + 1)  # a zero, then faces: F jump_i and the pressure term P
        self._S = self._zeros(N + 1, n)  # nodes: G over each node's two faces, all written
        self._H = self._zeros(1 + N if self._upwind else 1, n)  # faces: F, upwind u fluxes
        self._T, self._Md = self._zeros(2, N, n)  # nodes: d2u, M d2u
        (self._rho, self._v), (self._rho_f, self._v_f) = self._W, self._Wf
        self._drho, self._jump, self._F, self._Hu = self._D[0], self._D[1:], self._H[0], self._H[1:]
        (self._FJ, self._P), (self._conv, self._grad_p) = ((A[:N], A[N]) for A in (G[1:].reshape(N + 1, n), self._S))
        self._rg_r, self._rg_l, self._e_l = self._rg[1:], self._rg[:-1], self._e[:-1]
        W, Wf, H = self._W.reshape(-1), self._Wf.reshape(-1), self._H.reshape(-1)
        self._W_r, self._W_l, self._Wf_l, self._Dm = W[1:], W[:-1], Wf[:-1], self._D.reshape(-1)[:-1]
        self._G_r, self._G_l, self._H_r, self._H_l = G[1:], G[:-1], H[1:], H[:-1]
        self._Sf, self._T_c = self._S.reshape(-1), self._T.reshape(-1)[1:-1]

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
        """``rho**(gamma-1)`` into ``_rg`` and the mean velocity into ``_v``."""
        np.add.reduce(U, 0, out=self._v)
        self._v /= self._c.N
        return np.power(rho, self._c.g1, out=self._rg)

    def _rhs(self, t, Y, rho, include_viscous, out, shared=None):
        p, c = self.params, self._c
        y, o = self._views(Y), self._views(out)
        if shared is None:
            self._shared(rho, y.U)
        self._rho[...] = rho

        # face means of v and rho, and the face mass flux F; the upwind
        # variant adds the density-jump diffusion with face coefficient a = 0.5 |v_f|
        v_f, rho_f, F, a = self._v_f, self._rho_f, self._F, self._a
        np.add(self._W_r, self._W_l, out=self._Wf_l)
        self._Wf_l *= c.half
        np.multiply(v_f, rho_f, out=F)
        np.subtract(y.f_r, y.f_l, out=self._Dm)  # face jumps of rho and of each u_i
        if self._upwind:
            np.abs(v_f, out=a)
            a *= c.half
            self._drho *= a
            F -= self._drho
            a *= rho_f
            np.multiply(a, self._jump, out=self._Hu)  # theta * du / h * h

        # continuity, with the upwind velocity flux differences in the rows
        # below it; half cells at the walls, where the wall flux rho*v is 0
        d, d_r = (o.f, o.f_r) if self._upwind else (o.q, o.q_r)
        np.subtract(self._H_r, self._H_l, out=d_r)
        np.negative(o.q_r, out=o.q_r)
        o.q[0] = -2.0 * F[0]
        o.q[-1] = 2.0 * F[-2]
        d /= c.h

        # convection and pressure: both face terms summed at the nodes in one call
        np.multiply(F, self._jump, out=self._FJ)
        np.multiply(c.p_coef, rho_f, out=self._P)
        np.subtract(self._rg_r, self._rg_l, out=self._e_l)
        self._P *= self._e
        np.add(self._G_r, self._G_l, out=self._Sf)
        rhs, grad_p = self._conv, self._grad_p
        np.negative(rhs, out=rhs)
        self._S /= c.h2
        grad_p *= c.K
        rhs -= grad_p

        if include_viscous:
            d2u = np.multiply(y.u_c, c.two, out=self._T_c)
            np.subtract(y.u_rr, d2u, out=d2u)
            d2u += y.u_ll
            d2u /= c.hh
            rhs += np.matmul(p.M, self._T, out=self._Md)

        rhs += p.exchange(y.U, self._fric, self._fr)

        if self._upwind:
            o.U += rhs
            o.U /= y.q
        else:
            np.divide(rhs, y.q, out=o.U)

        if self.forcing is not None:
            s_rho, s_u = self.forcing(t, self.nodes)
            o.q += s_rho
            o.U += s_u
        o.walls[...] = 0.0
        return out

    # -- stability & implicit solve ------------------------------------------

    def stable_dt(self, rho, U, explicit_viscosity=True):
        return self._stable_dt(self._density(rho, "in stable_dt"), U, explicit_viscosity)[0]

    def _stable_dt(self, rho, U, explicit_viscosity):
        rg = self._shared(rho, U)
        speed = np.abs(self._v, out=self._speed)
        speed += np.sqrt(np.multiply(self._c.Kg, rg, out=self._e2), out=self._e2)
        # extremes by arg-index lookups, cheaper than ufunc reductions
        dt = self._h / speed[speed.argmax()]
        if explicit_viscosity:
            dt = min(dt, self._hh * rho[rho.argmin()] / self._2lam_max)
        return float(dt), rg

    def viscous_solve(self, rho, B, coef, out=None):
        """Solve (I - coef * diag(1/rho) M d2) U = B, Dirichlet walls.

        M is diagonalized once (M = Q diag(lam) Q^T); each eigen-component is
        an independent scalar tridiagonal system.
        """
        c, o = self._diag, self._c
        np.multiply(rho, o.h, out=c)  # row k: lam_k coef / (rho h^2), walls 0
        c *= o.h
        np.divide(coef, c, out=c)
        c *= self._lam
        self._diag_walls[...] = 0.0  # wall rows are the identity
        np.negative(c[:, 1:], out=self._lower)
        np.negative(c[:, :-1], out=self._upper)
        c *= o.two
        c += o.one
        return self._tridiagonal_solve(B, out)
