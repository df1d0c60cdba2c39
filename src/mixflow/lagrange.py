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
from .timestepping import Kernel, operands


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
        vars(self._c).update(operands(gamma=params.gamma, neg_K=-params.K))
        n, N = self.nodes.size, params.N
        self._v, self._pg, self._gp, self._harm, self._s = self._zeros(5, n)
        self._J, self._L, self._Ml = self._zeros(3, N, n)  # faces: rho_f du; nodes: its differences, M of them
        self._coef_lam = self._zeros(N, 1)  # the viscous solve's coef * lam
        self._v_ll, self._v_rr, self._pg_ll, self._pg_rr = self._v[:-2], self._v[2:], self._pg[:-2], self._pg[2:]
        self._gp_c, self._harm_l = self._gp[1:-1], self._harm[:-1]
        self._J_l, self._J_r, self._L_r = self._J.reshape(-1)[:-1], self._J.reshape(-1)[1:], self._L.reshape(-1)[1:]

    @staticmethod
    def to_evolved(rho):
        return 1.0 / rho

    def density_view(self, q):
        return np.divide(self._c.one, q)

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
        p, c = self.params, self._c
        y, o = self._views(Y), self._views(out)

        # dv/dy with the SBP closure of field.sbp_derivative, written out
        v = np.add.reduce(y.U, 0, out=self._v)
        v /= c.N
        d = np.subtract(self._v_rr, self._v_ll, out=o.q_c)
        d /= c.h2
        o.q[0] = (v[1] - v[0]) / self._h
        o.q[-1] = (v[-1] - v[-2]) / self._h

        np.power(rho, c.gamma, out=self._pg)
        grad_p = np.subtract(self._pg_rr, self._pg_ll, out=self._gp_c)  # interior SBP rows
        grad_p /= c.h2
        grad_p *= c.neg_K

        rhs = np.divide(p.exchange(y.U, self._fric, self._fr), rho, out=o.U)
        np.add(self._gp, rhs, out=rhs)
        if include_viscous:
            # d(rho du/dy)/dy at interior nodes, flux form, harmonic face density
            np.subtract(y.u_r, y.u_l, out=self._J_l)
            face_harmonic_mean(rho, out=self._harm_l)
            self._J *= self._harm
            lap = np.subtract(self._J_r, self._J_l, out=self._L_r)
            lap /= c.hh
            rhs += np.matmul(p.M, self._L, out=self._Ml)

        if self.forcing is not None:
            s_rho, s_u = self.forcing(t, self.nodes)
            # d(tau)/dt = -s_rho / rho^2 for a density source s_rho
            s = np.multiply(s_rho, y.q, out=self._s)
            s *= y.q
            o.q -= s
            rhs += s_u
        o.walls[...] = 0.0
        return out

    def stable_dt(self, q, U, explicit_viscosity=True):
        return self._stable_dt(self._density(q, "in stable_dt"), U, explicit_viscosity)[0]

    def _stable_dt(self, rho, U, explicit_viscosity):
        # signal speed in mass coordinates is rho * c
        c = np.sqrt(self._c.Kg * rho ** self._c.g1)
        c *= rho
        # extremes by arg-index lookups, cheaper than ufunc reductions
        dt = self._h / c[c.argmax()]
        if explicit_viscosity:
            dt = min(dt, self._hh / (self._2lam_max * rho[rho.argmax()]))
        return float(dt), None

    def viscous_solve(self, rho, B, coef, out=None):
        c, diag = self._upper, self._diag
        conduct = face_harmonic_mean(rho, out=self._harm_l)  # face conductances
        conduct /= self._c.hh
        np.multiply(coef, self._lam, out=self._coef_lam)
        np.multiply(self._coef_lam, conduct, out=c)  # one value per face
        # wall rows are the identity (first upper and last lower entry zero);
        # interior row j couples w_{j-1} and w_{j+1} through the conductances
        # c[j-1] and c[j] of its two faces
        inner = np.add(c[:, :-1], self._c.one, out=diag[:, 1:-1])
        inner += c[:, 1:]
        self._diag_walls[...] = 1.0
        np.negative(c, out=self._lower)
        np.negative(c, out=c)
        self._lower[:, -1] = 0.0
        c[:, 0] = 0.0
        return self._tridiagonal_solve(B, out)
