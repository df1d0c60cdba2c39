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

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DensityFloor, DomainLengthDrift, ValidationError, WrongFrame
from .euler import Forcing, SchemeConfig
from .field import (
    EULERIAN,
    LAGRANGIAN,
    Grid1D,
    State,
    Trajectory,
    sbp_derivative,
)
from .model import DerivedMatrices, MixtureParams
from .timestepping import SEMI_IMPLICIT, run_loop, step_once, tridiagonal_solve


# ---------------------------------------------------------------------------
# coordinate maps


def _cumulative_trapezoid(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty(f.size)
    out[0] = 0.0
    np.cumsum(0.5 * h * (f[1:] + f[:-1]), out=out[1:])
    return out


@dataclass(frozen=True)
class MassGridMap:
    """Monotone map between physical position x and mass coordinate y."""

    x_nodes: np.ndarray
    y_nodes: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.y_nodes) <= 0) or np.any(np.diff(self.x_nodes) <= 0):
            raise ValidationError("mass map must be strictly monotone")

    @property
    def total_mass(self) -> float:
        return float(self.y_nodes[-1])

    def y_of_x(self, x: np.ndarray) -> np.ndarray:
        return PchipInterpolator(self.x_nodes, self.y_nodes)(x)

    def x_of_y(self, y: np.ndarray) -> np.ndarray:
        return PchipInterpolator(self.y_nodes, self.x_nodes)(y)


def mass_map(state: State) -> MassGridMap:
    """y(x) = int_0^x rho ds by exact trapezoid accumulation."""
    if state.frame != EULERIAN:
        raise WrongFrame("mass_map expects an Eulerian state")
    y = _cumulative_trapezoid(np.asarray(state.rho), state.grid.h)
    return MassGridMap(x_nodes=state.grid.nodes(), y_nodes=y)


def euler_to_lagrange(state: State, n_cells: int | None = None) -> State:
    """Resample an Eulerian state onto the uniform mass grid over (0, d).

    Fields are interpolated with monotone cubics (no overshoot, so positivity
    of the density survives the resampling).
    """
    if state.frame != EULERIAN:
        raise WrongFrame("euler_to_lagrange expects an Eulerian state")
    if state.rho.min() <= 0:
        raise DensityFloor("density must be positive for the mass map")
    n = n_cells or state.grid.n_cells
    m = mass_map(state)
    d = m.total_mass
    grid_y = Grid1D(domain_length=d, n_cells=n)
    y_new = grid_y.nodes()

    rho_new = PchipInterpolator(m.y_nodes, state.rho)(y_new)
    U_new = np.empty((state.U.shape[0], y_new.size))
    for i in range(state.U.shape[0]):
        U_new[i] = PchipInterpolator(m.y_nodes, state.U[i])(y_new)
    U_new[:, 0] = 0.0
    U_new[:, -1] = 0.0
    return State(time=state.time, frame=LAGRANGIAN, grid=grid_y, rho=rho_new, U=U_new)


def lagrange_to_euler(state: State, n_cells: int | None = None, drift_tol: float = 1e-4) -> State:
    """Map a Lagrangian state back to the unit interval.

    x(y) = int_0^y ds/rho must land on 1; drift beyond ``drift_tol`` means the
    two formulations have diverged and raises :class:`DomainLengthDrift`.
    Smaller drift is renormalized away so the result lives exactly on (0, 1).
    """
    if state.frame != LAGRANGIAN:
        raise WrongFrame("lagrange_to_euler expects a Lagrangian state")
    n = n_cells or state.grid.n_cells
    x = _cumulative_trapezoid(1.0 / np.asarray(state.rho), state.grid.h)
    length = float(x[-1])
    if abs(length - 1.0) > drift_tol:
        raise DomainLengthDrift(
            f"reconstructed domain length {length:.8f} deviates from 1 by more than {drift_tol}"
        )
    x = x / length
    grid_x = Grid1D(domain_length=1.0, n_cells=n)
    x_new = grid_x.nodes()

    rho_new = PchipInterpolator(x, state.rho)(x_new)
    U_new = np.empty((state.U.shape[0], x_new.size))
    for i in range(state.U.shape[0]):
        U_new[i] = PchipInterpolator(x, state.U[i])(x_new)
    U_new[:, 0] = 0.0
    U_new[:, -1] = 0.0
    return State(time=state.time, frame=EULERIAN, grid=grid_x, rho=rho_new, U=U_new)


# ---------------------------------------------------------------------------
# kernel


class LagrangeKernel:
    """Right-hand side of the mass-coordinate system.

    Time integration acts on the specific volume tau = 1/rho, whose tendency
    dv/dy has exactly zero trapezoid integral (SBP closure): every Runge-Kutta
    stage combination then conserves the discrete fluid volume int dy/rho to
    round-off, which is what pins the mean-value bracket on the density.
    """

    frame = LAGRANGIAN

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

    @staticmethod
    def to_evolved(rho):
        return 1.0 / rho

    @staticmethod
    def density_view(q):
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / q

    def tendencies(self, t, q, U):
        return self._tendencies(t, q, U, include_viscous=True)

    def explicit_tendencies(self, t, q, U):
        return self._tendencies(t, q, U, include_viscous=False)

    def _tendencies(self, t, tau, U, include_viscous):
        p = self.params
        g = self.grid
        rho = self.density_view(tau)
        if not np.all(np.isfinite(rho)) or rho.min() <= self.scheme.artificial_floor:
            raise DensityFloor(f"density below floor at t = {t:.6g}")

        v = U.mean(axis=0)
        dtau = sbp_derivative(v, g)

        dU = np.zeros_like(U)
        grad_p = sbp_derivative(rho**p.gamma, g)
        rhs = -p.K * grad_p[1:-1] + (p.A @ U - self._row_sum_A[:, None] * U)[:, 1:-1] / rho[1:-1]

        if include_viscous:
            rhs = rhs + p.M @ self._flux_laplacian(rho, U)

        dU[:, 1:-1] = rhs
        if self.forcing is not None:
            s_rho, s_u = self.forcing(t, self.nodes)
            # d(tau)/dt = -s_rho / rho^2 for a density source s_rho
            dtau = dtau - s_rho * tau * tau
            dU[:, 1:-1] = dU[:, 1:-1] + s_u[:, 1:-1]
        return dtau, dU

    def _flux_laplacian(self, rho, U):
        """d(rho du/dy)/dy at interior nodes, flux form, harmonic face density."""
        h = self.grid.h
        rho_hat = 2.0 * rho[1:] * rho[:-1] / (rho[1:] + rho[:-1])
        flux = rho_hat * (U[:, 1:] - U[:, :-1])
        return (flux[:, 1:] - flux[:, :-1]) / (h * h)

    def stable_dt(self, q, U, explicit_viscosity=True):
        p = self.params
        h = self.grid.h
        rho = self.density_view(q)
        if not np.all(np.isfinite(rho)) or rho.min() <= self.scheme.artificial_floor:
            raise DensityFloor("density below floor in stable_dt")
        # signal speed in mass coordinates is rho * c
        c = np.sqrt(p.K * p.gamma * rho ** (p.gamma - 1.0))
        dt = h / (rho * c).max()
        if explicit_viscosity:
            dt = min(dt, h * h / (2.0 * self.derived.lam_max * rho.max()))
        return float(dt)

    def viscous_solve(self, rho, B, coef):
        d = self.derived
        h = self.grid.h
        rho_hat = 2.0 * rho[1:] * rho[:-1] / (rho[1:] + rho[:-1])
        conduct = rho_hat / (h * h)  # face conductances
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
        return d.Q @ tridiagonal_solve(lower, diag, upper, d.Q.T @ B)


# ---------------------------------------------------------------------------
# public operations


def rhs_lagrangian(
    state: State,
    params: MixtureParams,
    derived: DerivedMatrices,
    scheme: SchemeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tendencies (drho/dt, du_i/dt) of the mass-coordinate system."""
    if state.frame != LAGRANGIAN:
        raise WrongFrame("rhs_lagrangian expects a Lagrangian state")
    scheme = scheme or SchemeConfig()
    kern = LagrangeKernel(state.grid, params, derived, scheme)
    rho = np.asarray(state.rho)
    dtau, dU = kern.tendencies(state.time, 1.0 / rho, np.asarray(state.U))
    return -(rho * rho) * dtau, dU


def step_lagrangian(
    state: State,
    params: MixtureParams,
    derived: DerivedMatrices,
    scheme: SchemeConfig,
    dt: float | None = None,
) -> State:
    if state.frame != LAGRANGIAN:
        raise WrongFrame("step_lagrangian expects a Lagrangian state")
    kern = LagrangeKernel(state.grid, params, derived, scheme)
    tau = kern.to_evolved(np.asarray(state.rho, dtype=float))
    if dt is None:
        explicit = scheme.time_integrator != SEMI_IMPLICIT
        dt = kern.stable_dt(tau, np.asarray(state.U), explicit) * scheme.cfl
    tau, U = step_once(kern, state.time, tau, np.asarray(state.U), dt, scheme)
    return State(
        time=state.time + dt, frame=LAGRANGIAN, grid=state.grid,
        rho=kern.density_view(tau), U=U,
    )


def run_lagrangian(
    initial: State,
    params: MixtureParams,
    derived: DerivedMatrices,
    scheme: SchemeConfig,
    t_end: float,
    snapshot_every: int = 20,
    forcing: Forcing | None = None,
    make_record=None,
) -> Trajectory:
    """Integrate the mass-coordinate system; mirrors :func:`mixflow.euler.run`."""
    if initial.frame != LAGRANGIAN:
        raise WrongFrame("run_lagrangian expects a Lagrangian initial state")
    if t_end > params.T_final:
        raise ValidationError(f"t_end = {t_end} exceeds T_final = {params.T_final}")
    kern = LagrangeKernel(initial.grid, params, derived, scheme, forcing)
    return run_loop(kern, initial, t_end, scheme, snapshot_every, make_record)
