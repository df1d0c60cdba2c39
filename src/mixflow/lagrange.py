"""Mass-coordinate solver and the transforms between the two formulations.

In the mass coordinate y(x, t) = int_0^x rho ds the system becomes

    d rho/dt = -rho^2 dv/dy
    d u_i/dt + K d(rho^gamma)/dy
        = sum_j M[i,j] d(rho du_j/dy)/dy + (1/rho) sum_j A[i,j](u_j - u_i)

on the fixed interval (0, d), d = total initial mass, with u_i = 0 at both
ends.  Convection disappears entirely, which is why the density estimates are
derived in this frame.

dv/dy uses the trapezoid-norm SBP derivative so that the discrete fluid
volume int dy/rho stays at 1 to round-off (the mean-value bracket
min rho <= d <= max rho is then exact).  The viscous term is in flux form
with harmonic face densities, keeping it symmetric negative semidefinite.
"""

from __future__ import annotations

import numpy as np

from .errors import DensityFloor, DomainLengthDrift, ValidationError, WrongFrame
from .field import (
    EULERIAN, LAGRANGIAN, Grid1D, State, cumulative_trapezoid, face_harmonic_mean, pchip,
)
from .timestepping import Kernel, tridiagonal_solve


# ---------------------------------------------------------------------------
# coordinate maps


def _remap(state: State, s_old: np.ndarray, length: float, frame: str) -> State:
    """``state`` moved from the nodes ``s_old`` to the uniform ``frame`` grid
    over (0, ``length``) by monotone cubics (no overshoot, so the density
    stays positive), with the wall velocities set to zero.  A map that is
    not finite (a total mass that overflows) or whose nodes do not strictly
    increase (a density so extreme that a cell's increment rounds away)
    raises ValidationError."""
    if not np.isfinite(s_old).all():
        raise ValidationError(f"mass map must be finite, got a total of {s_old[-1]}")
    if np.any(np.diff(s_old) <= 0):
        raise ValidationError("mass map must be strictly monotone")
    grid = Grid1D(domain_length=length, n_cells=state.grid.n_cells)
    out = pchip(s_old, np.vstack([state.rho, state.U]), grid.nodes())
    out[1:, [0, -1]] = 0.0
    return State(time=state.time, frame=frame, grid=grid, rho=out[0], U=out[1:])


def euler_to_lagrange(state: State) -> State:
    """Resample an Eulerian state onto the uniform mass grid over (0, d)."""
    if state.frame != EULERIAN:
        raise WrongFrame("euler_to_lagrange expects an Eulerian state")
    y = cumulative_trapezoid(state.rho, state.grid.h)  # y(x) = int_0^x rho ds
    return _remap(state, y, float(y[-1]), LAGRANGIAN)


def lagrange_to_euler(state: State, drift_tol: float = 1e-4) -> State:
    """Map a Lagrangian state back to the unit interval.

    x(y) = int_0^y ds/rho must land on 1; drift beyond ``drift_tol`` means the
    two formulations have diverged and raises :class:`DomainLengthDrift`.
    Smaller drift is renormalized away so the result lives exactly on (0, 1).
    """
    if state.frame != LAGRANGIAN:
        raise WrongFrame("lagrange_to_euler expects a Lagrangian state")
    x = cumulative_trapezoid(1.0 / np.asarray(state.rho), state.grid.h)
    length = float(x[-1])
    if abs(length - 1.0) > drift_tol:
        raise DomainLengthDrift(
            f"reconstructed domain length {length:.8f} deviates from 1 by more than {drift_tol}"
        )
    return _remap(state, x / length, 1.0, EULERIAN)


# ---------------------------------------------------------------------------
# kernel


class LagrangeKernel(Kernel):
    """Right-hand side of the mass-coordinate system.

    Time integration acts on the specific volume tau = 1/rho, whose tendency
    dv/dy has exactly zero trapezoid integral (SBP closure): every Runge-Kutta
    stage combination then conserves the discrete fluid volume int dy/rho to
    round-off, which is what pins the mean-value bracket on the density.
    """

    frame = LAGRANGIAN

    def __init__(self, grid, params, derived, scheme, forcing=None):
        super().__init__(grid, params, derived, scheme, forcing)
        n, N = self.nodes.size, params.N
        # node, face and interior-node scratch, and the views the tendencies read
        self._v, self._gp = np.empty(n), np.empty(n - 2)
        self._jump, (self._lap, self._Ml) = np.empty((N, n - 1)), np.empty((2, N, n - 2))
        self._v_ll, self._v_rr = self._v[:-2], self._v[2:]
        self._flux_l, self._flux_r = self._jump[:, :-1], self._jump[:, 1:]

    @staticmethod
    def to_evolved(rho):
        return 1.0 / rho

    @staticmethod
    def density_view(q):
        return 1.0 / q

    def _density(self, q, where):
        rho = self.density_view(q)
        if not np.isfinite(rho).all() or rho.min() <= self.scheme.artificial_floor:
            raise DensityFloor(f"density below floor {where}")
        return rho

    def tendencies(self, t, q, U):
        return self._fresh_rhs(t, q, U, True)

    def explicit_tendencies(self, t, q, U):
        return self._fresh_rhs(t, q, U, False)

    def _rhs(self, t, Y, rho, include_viscous, out, shared=None):
        # ``shared`` is unused: stable_dt computes nothing the tendencies need
        p = self.params
        h, h2 = self._h, self._2h
        y, o = self._views(Y), self._views(out)

        # dv/dy with the SBP closure of field.sbp_derivative, written out
        v = np.add.reduce(y.U, 0, out=self._v)
        v /= self._N
        d = np.subtract(self._v_rr, self._v_ll, out=o.q_c)
        d /= h2
        o.q[0] = (v[1] - v[0]) / h
        o.q[-1] = (v[-1] - v[-2]) / h

        pg = rho**p.gamma
        grad_p = np.subtract(pg[2:], pg[:-2], out=self._gp)  # interior SBP rows
        grad_p /= h2
        grad_p *= -p.K

        o.walls[...] = 0.0
        rhs = np.divide(self._friction(y.U), rho[1:-1], out=o.U_c)
        np.add(grad_p, rhs, out=rhs)
        if include_viscous:
            # d(rho du/dy)/dy at interior nodes, flux form, harmonic face density
            flux = np.subtract(y.U_r, y.U_l, out=self._jump)
            flux *= face_harmonic_mean(rho)
            lap = np.subtract(self._flux_r, self._flux_l, out=self._lap)
            lap /= self._hh
            rhs += np.matmul(p.M, lap, out=self._Ml)

        if self.forcing is not None:
            s_rho, s_u = self.forcing(t, self.nodes)
            # d(tau)/dt = -s_rho / rho^2 for a density source s_rho
            s = s_rho * y.q
            s *= y.q
            o.q -= s
            rhs += s_u[:, 1:-1]
        return out

    def stable_dt(self, q, U, explicit_viscosity=True):
        return self._stable_dt(self._density(q, "in stable_dt"), U, explicit_viscosity)[0]

    def _stable_dt(self, rho, U, explicit_viscosity):
        # signal speed in mass coordinates is rho * c
        c = np.sqrt(self._Kg * rho ** self._g1)
        c *= rho
        # extremes by arg-index lookups, cheaper than ufunc reductions
        dt = self._h / c[c.argmax()]
        if explicit_viscosity:
            dt = min(dt, self._hh / (self._2lam_max * rho[rho.argmax()]))
        return float(dt), None

    def viscous_solve(self, rho, B, coef):
        d = self.derived
        conduct = face_harmonic_mean(rho) / self._hh  # face conductances
        c = (coef * d.lam)[:, None] * conduct  # one value per face
        # wall rows are the identity (first upper and last lower entry zero);
        # interior row j couples w_{j-1} and w_{j+1} through the conductances
        # c[j-1] and c[j] of its two faces
        diag = np.ones((c.shape[0], rho.size))
        diag[:, 1:-1] = 1.0 + c[:, :-1] + c[:, 1:]
        upper = -c
        lower = upper.copy()
        lower[:, -1] = 0.0
        upper[:, 0] = 0.0
        return tridiagonal_solve(d.Q, lower, diag, upper, B)
