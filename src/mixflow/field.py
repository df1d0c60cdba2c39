"""Grid, ``State``, its record stack ``Trajectory`` and the discrete calculus of solvers and audits.

The discretization is node-centered on a uniform grid: ``n_cells + 1`` nodes
including both boundary points.  Quadrature is the composite trapezoidal rule,
which together with the flux-form operators used by the solvers makes the
discrete integration-by-parts identities exact up to one boundary term.  Many
of the inequality audits in :mod:`mixflow.estimates` rely on that structure,
so the helpers here are the single source of truth for integrals, norms and
difference operators, the running integral :func:`cumulative_trapezoid` included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixflowError, ValidationError

EULERIAN = "eulerian"
LAGRANGIAN = "lagrangian"
#: the most cells a grid may have: n_cells + 1 nodes fit LAPACK's 32-bit n in dgtsv
_MAX_CELLS = 2**31 - 2

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
        if not 8 <= self.n_cells <= _MAX_CELLS:
            raise ValidationError(f"n_cells must lie in [8, {_MAX_CELLS}], got {self.n_cells}")
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


def _check_fields(frame: str, grid: Grid1D, lead: tuple, rho: np.ndarray, U: np.ndarray):
    """Validate one state (``lead == ()``) or a stack of them on the leading axes
    ``lead``: shapes, frame, finite values, positive density and zero walls."""
    n = grid.n_nodes
    if rho.shape != (*lead, n):
        raise MixflowError(f"rho has shape {rho.shape}, expected {(*lead, n)}")
    if U.ndim != len(lead) + 2 or U.shape[:-2] != lead or U.shape[-1] != n:
        raise MixflowError(f"U has shape {U.shape}, expected ({'R, ' * len(lead)}N, {n})")
    if frame not in (EULERIAN, LAGRANGIAN):
        raise ValidationError(f"unknown frame {frame!r}")
    if not np.all(np.isfinite(rho)) or not np.all(np.isfinite(U)):
        raise ValidationError("state contains non-finite values")
    if rho.min() <= 0:
        raise ValidationError(f"min(rho) = {rho.min()} <= 0")
    if np.abs(U[..., [0, -1]]).max() != 0.0:
        raise ValidationError("boundary velocities must be exactly zero")


@dataclass(frozen=True)
class State:
    """Density and per-component velocities sampled at the grid nodes.

    Immutable: the arrays are marked read-only, also after pickling, so
    states can be shared across threads and workers without defensive copies.
    """

    time: float
    frame: str
    grid: Grid1D
    rho: np.ndarray          # shape (n_nodes,)
    U: np.ndarray            # shape (N, n_nodes)

    def __post_init__(self):
        object.__setattr__(self, "rho", _readonly(self.rho))
        object.__setattr__(self, "U", _readonly(np.atleast_2d(self.U)))
        _check_fields(self.frame, self.grid, (), self.rho, self.U)

    def __reduce__(self):  # unpickling re-runs the constructor: read-only, validated
        return State, (self.time, self.frame, self.grid, self.rho, self.U)

    @property
    def n_components(self) -> int:
        return self.U.shape[0]


class Trajectory:
    """The R >= 1 records of one run as one stack, validated once: strictly
    increasing ``times`` (R,), ``rho`` (R, n) and ``U`` (R, N, n), all
    C-contiguous and read-only.  ``diagnostics`` is the ledger, one float
    column per field and row per record (:func:`mixflow.estimates.diagnose`)."""

    def __init__(self, frame: str, grid: Grid1D, times, rho, U, diagnostics=None):
        self.frame, self.grid, self.diagnostics = frame, grid, diagnostics or {}
        self.times, self.rho, self.U = (_readonly(np.ascontiguousarray(a, dtype=float))
                                        for a in (times, rho, U))
        if self.times.ndim != 1 or not self.times.size:
            raise MixflowError(f"times of shape {self.times.shape}: need a row of records")
        _check_fields(frame, grid, self.times.shape, self.rho, self.U)
        if self.times[0] < 0 or (np.diff(self.times) <= 0).any():
            raise ValidationError("trajectory time stamps must be >= 0 and strictly increase")

    @classmethod
    def stack(cls, states) -> Trajectory:
        """The trajectory of the time-ordered ``states``, all of one frame."""
        if len(frames := {s.frame for s in states}) > 1:
            raise MixflowError(f"stacking states of frames {sorted(frames)}")
        return cls(states[0].frame, states[0].grid, *zip(*((s.time, s.rho, s.U) for s in states)))

    def __reduce__(self):
        return Trajectory, (self.frame, self.grid, self.times, self.rho, self.U, self.diagnostics)

    def __len__(self) -> int:
        return len(self.times)

    def state(self, k: int) -> State:
        """Record ``k`` as a :class:`State` viewing the stack's rows."""
        return State(float(self.times[k]), self.frame, self.grid, self.rho[k], self.U[k])

    @property
    def final(self) -> State:
        return self.state(-1)


# ---------------------------------------------------------------------------
# discrete calculus


def _on_nodes(f, grid: Grid1D, dtype=None) -> np.ndarray:
    """``f`` as an array of ``dtype``, refused unless its last axis holds ``grid``'s nodes."""
    f = np.asarray(f, dtype=dtype)
    if f.shape[-1] != grid.n_nodes:
        raise MixflowError(f"array length {f.shape[-1]} != {grid.n_nodes} nodes")
    return f


def integrate(f: np.ndarray, grid: Grid1D) -> float | np.ndarray:
    """Composite trapezoidal quadrature along the last axis; exact for affine
    integrands.  A float for one sampled field, an array over the leading
    axes for a stack of them (each row summed as in the one-field call)."""
    f = _on_nodes(f, grid)
    h = grid.h
    return _scalar(h * (f[..., 1:-1].sum(axis=-1) + 0.5 * (f[..., 0] + f[..., -1])))


def cumulative_trapezoid(f: np.ndarray, dx) -> np.ndarray:
    """Running trapezoidal integral of the samples ``f``, 0 at the first one;
    ``dx`` is the uniform spacing or the array of the ``f.size - 1`` gaps."""
    f = np.asarray(f, dtype=float)
    out = np.zeros_like(f)
    np.cumsum(0.5 * dx * (f[1:] + f[:-1]), out=out[1:])
    return out


def diff(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Node derivative: central interior, one-sided second order at the ends."""
    f = _on_nodes(f, grid, float)
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


def _pchip_end(h0, h1, m0, m1):
    """The three-point end slope: 0 against the end secant ``m0``, at most 3 ``m0`` at a turn."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    turn = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(turn, 3.0 * m0, d))


def pchip(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The monotone cubic (PCHIP) interpolant of each row of ``y`` (..., n) over
    the n >= 2 strictly increasing ``x`` at ``at``, extrapolated beyond the
    ends; it does not overshoot the data.  Fritsch & Carlson, SIAM J. Numer.
    Anal. 17 (1980): weighted harmonic-mean node slopes, 0 at an extremum, and
    Moler's three-point ends, each operation that of scipy's
    ``PchipInterpolator(x, y)(at)`` in its order (the cubic summed in the power
    basis, as ``PPoly`` does), so the bits agree."""
    h = np.diff(x)
    m = np.diff(y) / h
    if h.size == 1:  # two nodes: the line through them
        d = np.concatenate([m, m], axis=-1)
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mean = 1.0 / ((w1 / m[..., :-1] + w2 / m[..., 1:]) / (w1 + w2))
        turn = (np.sign(m[..., 1:]) != np.sign(m[..., :-1])) | (m[..., 1:] == 0) | (m[..., :-1] == 0)
        d = np.concatenate([_pchip_end(h[0], h[1], m[..., :1], m[..., 1:2]),
                            np.where(turn, 0.0, mean),
                            _pchip_end(h[-1], h[-2], m[..., -1:], m[..., -2:-1])], axis=-1)
    t = (d[..., :-1] + d[..., 1:] - 2 * m) / h
    i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, h.size - 1)
    s = at - x[i]
    return (0.0 + y[..., i] + d[..., i] * s + ((m - d[..., :-1]) / h - t)[..., i] * (s * s)
            + (t / h)[..., i] * (s * s * s))


# ---------------------------------------------------------------------------
# face-based helpers
#
# Faces sit midway between nodes (n_cells of them).  Gradients evaluated at
# faces paired with midpoint quadrature give the exact summation-by-parts
# partners of the solvers' flux-form operators; the dissipation functionals
# and the log-density field w use these so the audited inequalities hold to
# machine precision rather than merely O(h^2).


def face_gradient(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    f = _on_nodes(f, grid, float)
    out = f[..., 1:] - f[..., :-1]
    out /= grid.h
    return out


def face_mean(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    return 0.5 * (f[..., 1:] + f[..., :-1])


def face_harmonic_mean(rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Harmonic mean ``2 a b / (a + b)`` of the two node values of each face.

    The mass-coordinate viscous operator and its dissipation audit weight
    face gradients with it.  Faces of a stack of densities lie along the
    last axis; ``out``, when given, takes the result.
    """
    out = np.multiply(2.0, rho[..., 1:], out=out)
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
    f = _on_nodes(f, grid, float)
    h = grid.h
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * h)
    out[..., 0] = (f[..., 1] - f[..., 0]) / h
    out[..., -1] = (f[..., -1] - f[..., -2]) / h
    return out
