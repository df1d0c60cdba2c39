"""Grid, state containers and the discrete calculus shared by solvers and audits.

The discretization is node-centered on a uniform grid: ``n_cells + 1`` nodes
including both boundary points.  Quadrature is the composite trapezoidal rule,
which together with the flux-form operators used by the solvers makes the
discrete integration-by-parts identities exact up to one boundary term.  Many
of the inequality audits in :mod:`mixflow.estimates` rely on that structure,
so the helpers here are the single source of truth for integrals, norms and
difference operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import LengthMismatch, NonPositiveDensity, ValidationError, WrongFrame

if TYPE_CHECKING:  # pragma: no cover
    from .estimates import DiagnosticsRecord

EULERIAN = "eulerian"
LAGRANGIAN = "lagrangian"

#: densities at or below this value abort a run instead of being clipped
DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D node grid on ``(0, domain_length)``.

    Eulerian problems live on the unit interval; Lagrangian (mass coordinate)
    problems live on ``(0, d)`` where ``d`` is the total mass of the paired
    Eulerian problem.
    """

    domain_length: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValidationError(f"n_cells must be >= 8, got {self.n_cells}")
        if not self.domain_length > 0:
            raise ValidationError("domain_length must be positive")

    @property
    def h(self) -> float:
        return self.domain_length / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.domain_length, self.n_nodes)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class State:
    """Density and per-component velocities sampled at the grid nodes.

    Immutable: the arrays are marked read-only so states can be shared across
    threads and stored in trajectories without defensive copies.
    """

    time: float
    frame: str
    grid: Grid1D
    rho: np.ndarray          # shape (n_nodes,)
    U: np.ndarray            # shape (N, n_nodes)

    def __post_init__(self):
        object.__setattr__(self, "rho", _readonly(self.rho))
        object.__setattr__(self, "U", _readonly(np.atleast_2d(self.U)))
        self.validate()

    def __setstate__(self, state):  # unpickled arrays come back writable
        self.__dict__.update(state)
        self.rho.setflags(write=False)
        self.U.setflags(write=False)

    def validate(self):
        n = self.grid.n_nodes
        if self.rho.shape != (n,):
            raise LengthMismatch(f"rho has shape {self.rho.shape}, expected ({n},)")
        if self.U.ndim != 2 or self.U.shape[1] != n:
            raise LengthMismatch(f"U has shape {self.U.shape}, expected (N, {n})")
        if self.frame not in (EULERIAN, LAGRANGIAN):
            raise ValidationError(f"unknown frame {self.frame!r}")
        if self.time < 0:
            raise ValidationError("time must be >= 0")
        if not np.all(np.isfinite(self.rho)) or not np.all(np.isfinite(self.U)):
            raise ValidationError("state contains non-finite values")
        if self.rho.min() <= 0:
            raise NonPositiveDensity(f"min(rho) = {self.rho.min()} <= 0")
        bnd = np.abs(self.U[:, [0, -1]])
        if bnd.max() != 0.0:
            raise ValidationError("boundary velocities must be exactly zero")

    @property
    def n_components(self) -> int:
        return self.U.shape[0]


class Trajectory:
    """Time-ordered states plus per-record diagnostics from one run; the
    diagnostics are filled afterwards by :func:`mixflow.estimates.diagnose`."""

    def __init__(self, frame: str, grid: Grid1D):
        self.frame = frame
        self.grid = grid
        self.states: list[State] = []
        self.diagnostics: list["DiagnosticsRecord"] = []

    def append(self, state: State):
        if state.frame != self.frame:
            raise WrongFrame(f"appending {state.frame} state to {self.frame} trajectory")
        if self.states and state.time <= self.states[-1].time:
            raise ValidationError("trajectory time stamps must strictly increase")
        self.states.append(state)

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    @property
    def final(self) -> State:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.states)


# ---------------------------------------------------------------------------
# discrete calculus


def integrate(f: np.ndarray, grid: Grid1D) -> float | np.ndarray:
    """Composite trapezoidal quadrature along the last axis; exact for affine
    integrands.  A float for one sampled field, an array over the leading
    axes for a stack of them (each row summed as in the one-field call)."""
    f = np.asarray(f)
    if f.shape[-1] != grid.n_nodes:
        raise LengthMismatch(f"array length {f.shape[-1]} != {grid.n_nodes} nodes")
    h = grid.h
    return _scalar(h * (f[..., 1:-1].sum(axis=-1) + 0.5 * (f[..., 0] + f[..., -1])))


def diff(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Node derivative: central interior, one-sided second order at the ends."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != grid.n_nodes:
        raise LengthMismatch(f"array length {f.shape[-1]} != {grid.n_nodes} nodes")
    h = grid.h
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * h)
    out[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * h)
    out[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * h)
    return out


def l2_norm(f: np.ndarray, grid: Grid1D) -> float | np.ndarray:
    return _scalar(np.sqrt(np.maximum(integrate(np.asarray(f) ** 2, grid), 0.0)))


def _scalar(x: np.ndarray) -> float | np.ndarray:
    """A Python float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def pchip(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The monotone cubic (PCHIP) interpolant of ``y`` over the strictly
    increasing ``x``, evaluated at ``at``; it does not overshoot the data.

    scipy.interpolate is imported on the first call, not with mixflow: the
    verbs that never interpolate (``check``, ``report``, ``mms``) start
    without it.
    """
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(x, y)(at)


def total_mass(state: State) -> float:
    """Total mass of an Eulerian state; defines the Lagrangian domain length."""
    if state.frame != EULERIAN:
        raise WrongFrame("total_mass is defined on the Eulerian frame")
    return integrate(state.rho, state.grid)


# ---------------------------------------------------------------------------
# face-based helpers
#
# Faces sit midway between nodes (n_cells of them).  Gradients evaluated at
# faces paired with midpoint quadrature give the exact summation-by-parts
# partners of the solvers' flux-form operators; the dissipation functionals
# and the log-density field w use these so the audited inequalities hold to
# machine precision rather than merely O(h^2).


def face_gradient(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != grid.n_nodes:
        raise LengthMismatch(f"array length {f.shape[-1]} != {grid.n_nodes} nodes")
    out = f[..., 1:] - f[..., :-1]
    out /= grid.h
    return out


def face_mean(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    return 0.5 * (f[..., 1:] + f[..., :-1])


def face_harmonic_mean(rho: np.ndarray) -> np.ndarray:
    """Harmonic mean ``2 a b / (a + b)`` of the two node values of each face.

    The mass-coordinate viscous operator and its dissipation audit weight
    face gradients with it.  Faces of a stack of densities lie along the
    last axis.
    """
    out = 2.0 * rho[..., 1:]
    out *= rho[..., :-1]
    out /= rho[..., 1:] + rho[..., :-1]
    return out


def sbp_derivative(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """First derivative with the trapezoid-norm summation-by-parts closure.

    Interior rows are central; the end rows are the first-order one-sided
    differences that make ``integrate(sbp_derivative(f)) == f[-1] - f[0]``
    hold exactly.  The Lagrangian continuity update uses these differences
    (written out in ``LagrangeKernel._rhs``) so the discrete fluid volume is
    conserved to round-off.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != grid.n_nodes:
        raise LengthMismatch(f"array length {f.shape[-1]} != {grid.n_nodes} nodes")
    h = grid.h
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * h)
    out[..., 0] = (f[..., 1] - f[..., 0]) / h
    out[..., -1] = (f[..., -1] - f[..., -2]) / h
    return out
