"""Functionals and inequality audits evaluated along trajectories.

Every audit is a pure function of a finished trajectory: repeated evaluation
is bit-identical, and nothing here feeds back into the solvers.  Time
derivatives of stored fields are reconstructed by finite differences over the
recorded snapshots (3-point non-uniform interior stencils, one-sided at the
trajectory ends) so the diagnostics stay decoupled from integrator internals.

Quadrature conventions matter here.  Velocity-gradient functionals use face
gradients with midpoint quadrature because those are the exact
summation-by-parts partners of the solvers' operators: the viscous
coercivity check and the energy budget then hold to round-off instead of
O(h^2).  The log-density slope field w lives on faces for the same reason:
the mean-value bracket min rho <= d <= max rho, the Hoelder bound on
1/sqrt(rho) and the pointwise bound on |ln rho| all have exact discrete
proofs in that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .errors import EmptyTrajectory, ValidationError, WrongFrame
from .field import (
    EULERIAN,
    LAGRANGIAN,
    Grid1D,
    State,
    Trajectory,
    _scalar,
    diff,
    face_gradient,
    face_harmonic_mean,
    face_mean,
    integrate,
    l2_norm,
    sbp_derivative,
)
from .model import DerivedMatrices, MixtureParams

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

# name -> (frame the audit reads, None for either; records it needs before
# build_report calls it, 0 for just the frame; call(traj, params, derived, d)).
# Each call looks its audit up by module-level name when it runs.
_AUDITS = {
    "energy_budget": (EULERIAN, 0, lambda tr, p, dm, d: audit_energy_budget(tr, p, dm)),
    "density_bounds": (None, 0, lambda tr, p, dm, d: audit_density_bounds(tr, d)),
    "w_balance": (LAGRANGIAN, 3, lambda tr, p, dm, d: audit_w_balance(tr, p, dm)),
    "gronwall": (LAGRANGIAN, 3, lambda tr, p, dm, d: audit_gronwall_chain(tr, p, dm)),
    "alpha_growth": (EULERIAN, 3, lambda tr, p, dm, d: audit_alpha_growth(tr, p, dm)),
    "pointwise_bounds": (LAGRANGIAN, 0, lambda tr, p, dm, d: audit_pointwise_bounds(tr)),
    "derivative_norms": (EULERIAN, 2, lambda tr, p, dm, d: derivative_norm_report(tr, p)),
    "velocity_damping": (None, 0, lambda tr, p, dm, d: audit_velocity_damping(tr, p)),
}
KNOWN_AUDITS = tuple(_AUDITS)


# ---------------------------------------------------------------------------
# per-state functionals


class Records(NamedTuple):
    """A trajectory's records stacked on a leading record axis.

    ``rho`` is (R, n) and ``U`` is (R, N, n), both C-contiguous, so a
    reduction along the last axis sums each record exactly as the
    one-state call does.  The per-state functionals accept it in place of a
    :class:`State` and return one value (or row) per record.
    """

    frame: str
    grid: Grid1D
    times: np.ndarray
    rho: np.ndarray
    U: np.ndarray


def _require_states(traj: Trajectory, min_len: int = 1):
    if len(traj) < min_len:
        raise EmptyTrajectory(f"need at least {min_len} recorded states, have {len(traj)}")


def _stack(traj: Trajectory) -> Records:
    return Records(traj.frame, traj.grid, traj.times(),
                   np.array([s.rho for s in traj.states]), np.array([s.U for s in traj.states]))


def energy(state: State | Records, params: MixtureParams) -> float | np.ndarray:
    """Total energy: sum_i int(0.5 rho u_i^2 + K/(gamma-1) rho^gamma) dx.

    The pressure part is counted once per component, mirroring the estimate
    the budget audit discretizes.  In mass coordinates dx = dy / rho.
    """
    g = state.grid
    K, gam, N = params.K, params.gamma, params.N
    if state.frame == EULERIAN:
        kinetic = 0.5 * integrate(state.rho * (state.U**2).sum(axis=-2), g)
        internal = N * K / (gam - 1.0) * integrate(state.rho**gam, g)
    else:
        kinetic = 0.5 * integrate((state.U**2).sum(axis=-2), g)
        internal = N * K / (gam - 1.0) * integrate(state.rho ** (gam - 1.0), g)
    return kinetic + internal


def velocity_gradient_sq(state: State | Records) -> float | np.ndarray:
    """sum_i ||d u_i/dx||_2^2 in face form (Eulerian measure in both frames)."""
    g = state.grid
    sq = face_gradient(state.U, g) ** 2
    if state.frame == LAGRANGIAN:
        # du/dx = rho du/dy, dx = dy/rho  ->  integrand rho (du/dy)^2
        sq = face_mean(state.rho)[..., None, :] * sq
    # one sum over all components and faces of a record, as for a single state
    return _scalar(g.h * sq.reshape(*sq.shape[:-2], -1).sum(axis=-1))


def _visc_quad(state: State | Records, params: MixtureParams) -> float | np.ndarray:
    """sum_ij M_ij <u_i', u_j'> with the frame's face weight."""
    g = state.grid
    jump = face_gradient(state.U, g)
    if state.frame == EULERIAN:
        return _scalar(np.einsum("...if,...jf,ij->...", jump, jump, params.M) * g.h)
    rh = face_harmonic_mean(state.rho)
    # one contraction per record: the stacked four-operand einsum sums in
    # another order and moves the last bits
    quad = [np.einsum("if,jf,f,ij->", j, j, r, params.M)
            for j, r in zip(jump.reshape(-1, *jump.shape[-2:]), rh.reshape(-1, rh.shape[-1]))]
    return _scalar(g.h * np.array(quad).reshape(jump.shape[:-2]))


def _x_weight(state: State | Records) -> np.ndarray | float:
    """Node weight turning a mass-coordinate integral into the x-measure one."""
    return 1.0 if state.frame == EULERIAN else 1.0 / state.rho


def friction_dissipation(state: State | Records, params: MixtureParams) -> float | np.ndarray:
    """0.5 sum_ij A[i,j] int (u_i - u_j)^2 dx (dy/rho in mass coordinates)."""
    g = state.grid
    U = state.U
    wgt = _x_weight(state)
    total = 0.0
    for i in range(params.N):
        for j in range(i + 1, params.N):
            total += params.A[i, j] * integrate((U[..., i, :] - U[..., j, :]) ** 2 * wgt, g)
    return total  # = 0.5 * sum over ordered pairs


def pairwise_velocity_gap_sq(state: State | Records) -> float | np.ndarray:
    """sum_ij int (u_i - u_j)^2 dx (unweighted, both orders)."""
    g = state.grid
    U = state.U
    wgt = _x_weight(state)
    n = U.shape[-2]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += integrate((U[..., i, :] - U[..., j, :]) ** 2 * wgt, g)
    return total


def w_field(state: State | Records) -> np.ndarray:
    """Slope of ln rho on the mass grid, sampled at faces.

    Face sampling (rather than node-centered differences) is what makes the
    audited bounds involving ||w|| hold exactly at the discrete level.
    """
    if state.frame != LAGRANGIAN:
        raise WrongFrame("w_field expects a Lagrangian state")
    return face_gradient(np.log(state.rho), state.grid)


def w_norm(state: State | Records) -> float | np.ndarray:
    """||d(ln rho)/dy||_{L2(0,d)}; for Eulerian states via the coordinate map.

    In Eulerian variables the same quantity is int (d ln rho/dx)^2 / rho dx.
    """
    g = state.grid
    sq = face_gradient(np.log(state.rho), g) ** 2
    if state.frame == EULERIAN:
        sq /= face_mean(state.rho)
    return _scalar(np.sqrt(g.h * sq.sum(axis=-1)))


def grad_rho_l2_eulerian(state: State | Records) -> float | np.ndarray:
    """||d rho/dx||_{L2(0,1)} regardless of the stored frame."""
    g = state.grid
    d = diff(state.rho, g)
    if state.frame == EULERIAN:
        return l2_norm(d, g)
    # d rho/dx = rho d rho/dy, dx = dy/rho -> integrand rho (d rho/dy)^2
    return _scalar(np.sqrt(np.maximum(integrate(state.rho * d**2, g), 0.0)))


# ---------------------------------------------------------------------------
# per-record diagnostics


@dataclass
class DiagnosticsRecord:
    """One row of the diagnostics table.

    ``alpha`` (Eulerian), ``identity_residual`` (Lagrangian) and ``dt_rho_l2``
    need time differences across snapshots and are attached after the run by
    :func:`attach_time_fields`; they stay None where not applicable.
    """

    time: float
    energy: float
    dissipation_visc: float
    dissipation_fric: float
    rho_min: float
    rho_max: float
    w_norm: float
    grad_rho_l2: float
    u_linf: float
    dt_rho_l2: float | None = None
    alpha: float | None = None
    identity_residual: float | None = None

    #: the fields diagnose fills from each state alone
    STATE_FIELDS = (
        "time", "energy", "dissipation_visc", "dissipation_fric", "rho_min",
        "rho_max", "w_norm", "grad_rho_l2", "u_linf",
    )
    FIELDS = STATE_FIELDS + ("dt_rho_l2", "alpha", "identity_residual")


def diagnose(traj: Trajectory, params: MixtureParams, derived: DerivedMatrices) -> Trajectory:
    """Fill ``traj.diagnostics``, one record per state, and return ``traj``.

    The state fields come from one stack of the trajectory, as array ops
    along the last axis; with at least two records the time fields are then
    attached by :func:`attach_time_fields`.
    """
    _require_states(traj)
    st = _stack(traj)
    cols = np.broadcast_arrays(
        st.times, energy(st, params), _visc_quad(st, params), friction_dissipation(st, params),
        st.rho.min(axis=-1), st.rho.max(axis=-1), w_norm(st), grad_rho_l2_eulerian(st),
        np.abs(st.U).max(axis=-1).max(axis=-1),
    )
    traj.diagnostics = [DiagnosticsRecord(*row) for row in np.column_stack(cols).tolist()]
    if len(traj) >= 2:
        attach_time_fields(traj, params, derived)
    return traj


def make_record(state: State, params: MixtureParams, derived: DerivedMatrices) -> DiagnosticsRecord:
    """The state fields of one state: :func:`diagnose` on a one-record trajectory."""
    one = Trajectory(state.frame, state.grid)
    one.append(state)
    return diagnose(one, params, derived).diagnostics[0]


# ---------------------------------------------------------------------------
# time reconstruction helpers


def time_derivative_series(times: np.ndarray, values) -> np.ndarray:
    """d/dt along the leading (record) axis of the array-like ``values``.

    3-point non-uniform interior stencils, 2-point one-sided at the ends;
    every row sums its terms left to right from zero,
    ``0 + w_prev*v_prev + w_mid*v_mid + w_next*v_next``.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        raise EmptyTrajectory("need at least two records for time derivatives")
    dt = np.diff(times).reshape(-1, *(1,) * (v.ndim - 1))
    out = np.empty_like(v)
    out[0] = 0.0 + (-1.0 / dt[0]) * v[0] + (1.0 / dt[0]) * v[1]
    out[-1] = 0.0 + (-1.0 / dt[-1]) * v[-2] + (1.0 / dt[-1]) * v[-1]
    a, b = dt[:-1], dt[1:]
    w_prev = -b / (a * (a + b))
    w_next = a / (b * (a + b))
    acc = np.multiply(w_prev, v[:-2], out=out[1:-1])  # in place: one temporary in all
    acc += 0.0
    term = (-w_prev - w_next) * v[1:-1]
    acc += term
    acc += np.multiply(w_next, v[2:], out=term)
    return out


def _cumtrapz(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vals, dtype=float)
    if len(times) > 1:
        dt = np.diff(times)
        out[1:] = np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]))
    return out


def _linf_sq(U: np.ndarray) -> np.ndarray:
    """||u_i||_inf^2 per record and component.  Each max is squared as a
    Python float (C ``pow``), like the one-state functionals, since numpy's
    ``x * x`` differs from it in the last bit for about 1 value in 1000."""
    linf = np.maximum(U.max(axis=-1), -U.min(axis=-1))
    return np.array([[_or_inf(pow, u, 2) for u in rec] for rec in linf.tolist()])


def _or_inf(f, *args) -> float:
    """``f(*args)`` on Python floats, inf where it overflows, as in numpy."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _sum_sq(X: np.ndarray) -> np.ndarray:
    """sum_i X_i^2 over the component axis of an (R, N, n) stack, which is
    squared in place."""
    return np.square(X, out=X).sum(axis=1)


def attach_time_fields(traj: Trajectory, params: MixtureParams, derived: DerivedMatrices):
    """Fill the snapshot-difference diagnostics on an existing trajectory."""
    _require_states(traj, 2)
    st = _stack(traj)
    g = st.grid
    fields = {"dt_rho_l2": l2_norm(time_derivative_series(st.times, st.rho), g)}
    if traj.frame == LAGRANGIAN:
        dln_dt = time_derivative_series(st.times, np.log(st.rho))
        dv = sbp_derivative(st.U.mean(axis=1), g)
        fields["identity_residual"] = l2_norm(st.rho * dv + dln_dt, g)
    else:
        fields["alpha"] = _alpha(st, params)
    for name, values in fields.items():
        for rec, value in zip(traj.diagnostics, values.tolist()):
            setattr(rec, name, value)
    return traj


# ---------------------------------------------------------------------------
# audit results


@dataclass
class AuditResult:
    name: str
    verdict: str
    margin: float
    details: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict != FAIL

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "margin": self.margin,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# audits


def audit_energy_budget(
    traj: Trajectory, params: MixtureParams, derived: DerivedMatrices, rel_tol: float = 1e-6
) -> AuditResult:
    """E(t) + int_0^t (visc + fric) must never exceed E(0) (1 + rel_tol).

    Records carry the scheme-consistent dissipation rates; the time integral
    is the trapezoid over record times.
    """
    if traj.frame != EULERIAN:
        raise WrongFrame("energy budget is audited on the Eulerian trajectory")
    _require_states(traj)
    recs = traj.diagnostics
    if not recs:
        raise EmptyTrajectory("trajectory has no diagnostics records")
    times = np.array([r.time for r in recs])
    e = np.array([r.energy for r in recs])
    dissipated = _cumtrapz(times, np.array([r.dissipation_visc + r.dissipation_fric for r in recs]))
    e0 = e[0]
    excess = float((e + dissipated - e0).max())
    tol = rel_tol * e0
    verdict = PASS if excess <= tol else FAIL
    return AuditResult(
        "energy_budget",
        verdict,
        margin=tol - excess,
        details={
            "e0": e0,
            "max_excess": excess,
            "tolerance": tol,
            "min_dissipated": float(dissipated[-1]),
        },
    )


def audit_density_bounds(traj: Trajectory, dval: float, rel_tol: float = 1e-8) -> AuditResult:
    """Positivity plus the mean-value bracket min rho <= d <= max rho per record.

    The bracket is exact for the conservative schemes: the trapezoid mean of
    rho (Eulerian) or of 1/rho (Lagrangian) pins d between the extremes.
    """
    _require_states(traj)
    rho = _stack(traj).rho
    tol = rel_tol * dval
    over, under = rho.min(axis=-1) - dval, dval - rho.max(axis=-1)
    lo = float(rho.min())
    worst = max(0.0, float(over.max()), float(under.max()))
    ok = lo > 0.0 and not ((over > tol) | (under > tol)).any()
    return AuditResult(
        "density_bounds",
        PASS if ok else FAIL,
        margin=tol - worst,
        details={"rho_inf": lo, "rho_sup": float(rho.max()), "d": dval,
                 "max_bracket_defect": worst},
    )


def _lagrangian_only(traj: Trajectory, what: str):
    if traj.frame != LAGRANGIAN:
        raise WrongFrame(f"{what} is audited on the Lagrangian trajectory")
    _require_states(traj, 3)


def audit_w_balance(
    traj: Trajectory, params: MixtureParams, derived: DerivedMatrices
) -> AuditResult:
    """Residual of the log-density slope balance along the trajectory.

    0.5 d/dt ||w||^2 + Ktilde*gamma int rho^gamma w^2
        = -int (dV/dt) w + sum_jk Vw_j A_jk int (u_k - u_j) w / rho

    All terms are discretized on faces; dV/dt comes from snapshot differences.
    The residual is reported per interior record time; it converges to zero
    under simultaneous (h, dt) refinement, which is what the acceptance test
    measures.
    """
    _lagrangian_only(traj, "w balance")
    st = _stack(traj)
    g, times = st.grid, st.times
    vw = derived.V_weights
    A = params.A
    gam, ktg = params.gamma, derived.K_tilde * params.gamma

    w = w_field(st)
    dphi = time_derivative_series(times, g.h * (w**2).sum(axis=-1))[1:-1]
    dv_dt = time_derivative_series(times, np.einsum("j,rjx->rx", vw, st.U))[1:-1]
    # the balance is evaluated at the interior records
    w, U = w[1:-1], st.U[1:-1]
    rho_f = face_mean(st.rho[1:-1])
    pressure = ktg * g.h * (rho_f**gam * w**2).sum(axis=-1)
    dvw = g.h * (face_mean(dv_dt) * w).sum(axis=-1)
    fric = 0.0
    for j in range(params.N):
        for k in range(params.N):
            if k != j:
                gap = face_mean(U[:, k] - U[:, j]) / rho_f
                fric += vw[j] * A[j, k] * g.h * (gap * w).sum(axis=-1)
    residuals = np.abs(0.5 * dphi + pressure + dvw - fric)
    max_res = float(residuals.max()) if residuals.size else 0.0
    return AuditResult(
        "w_balance",
        PASS if math.isfinite(max_res) else FAIL,
        margin=math.inf if math.isfinite(max_res) else -math.inf,
        details={
            "max_residual": max_res,
            "times": times[1:-1].tolist(),
            "residuals": residuals.tolist(),
        },
    )


def pair_gap_over_sqrt_rho(state: State) -> float:
    """S(t) = sum_{j,k} ||(u_k - u_j)/sqrt(rho)||_2 over ordered pairs."""
    g = state.grid
    U = state.U
    sqrt_rho = np.sqrt(state.rho)
    total = 0.0
    for j in range(U.shape[-2]):
        for k in range(U.shape[-2]):
            if j != k:
                total += l2_norm((U[..., k, :] - U[..., j, :]) / sqrt_rho, g)
    return total


def audit_gronwall_chain(
    traj: Trajectory, params: MixtureParams, derived: DerivedMatrices
) -> AuditResult:
    """Gronwall reconstruction of ||w(t)||^2 <= C4 exp(C5 int S).

    C5 comes from the friction/viscosity constants alone; C4 collects the
    initial data terms and the measured suprema of the a-priori-bounded
    quantities (the empirical stand-ins for the existence constants).
    """
    _lagrangian_only(traj, "gronwall chain")
    st = _stack(traj)
    g, times = st.grid, st.times
    d = g.domain_length
    vw = derived.V_weights

    w = w_field(st)
    phi = g.h * (w**2).sum(axis=-1)
    v = np.einsum("j,rjx->rx", vw, st.U)
    int_s = _cumtrapz(times, pair_gap_over_sqrt_rho(st))

    c3 = max(
        abs(vw[j]) * params.A[j, k]
        for j in range(params.N)
        for k in range(params.N)
        if j != k
    )
    sup_v2 = float(l2_norm(v, g).max()) ** 2
    cross = g.h * (
        face_mean(st.rho)
        * np.abs(face_gradient(st.U.mean(axis=1), g))
        * np.abs(face_gradient(v, g))
    ).sum(axis=-1)
    int_cross = _cumtrapz(times, cross)[-1]
    v0w0 = g.h * float((face_mean(v[0]) * w[0]).sum())

    c4 = (4.0 / 3.0) * (
        phi[0] + 2.0 * abs(v0w0) + 4.0 * sup_v2 + 2.0 * int_cross + c3 / math.sqrt(d) * int_s[-1]
    )
    c5 = (4.0 / 3.0) * c3 * (1.0 + 1.0 / math.sqrt(d))
    bound = c4 * np.exp(c5 * int_s) + 1e-12 * max(1.0, d)
    gaps = bound - phi
    # an overflowed bound or phi proves nothing: FAIL, as alpha_growth does
    margin = float(gaps.min()) if np.isfinite(gaps).all() else -math.inf
    verdict = PASS if margin >= 0 else FAIL
    return AuditResult(
        "gronwall",
        verdict,
        margin=margin,
        details={
            "c3": float(c3),
            "c4": float(c4),
            "c5": float(c5),
            "sup_w_sq": float(phi.max()),
            "int_pair_gap": float(int_s[-1]),
        },
    )


def audit_pointwise_bounds(traj: Trajectory, abs_tol: float = 1e-8) -> AuditResult:
    """Hoelder bound on 1/sqrt(rho) and the pointwise bound on |ln rho|.

    max 1/sqrt(rho) <= d^(-1/2) + 0.5 ||w||
    max |ln rho|    <= |ln d| + sqrt(d) ||w||

    With the face-based w these hold exactly; abs_tol only absorbs round-off.
    """
    if traj.frame != LAGRANGIAN:
        raise WrongFrame("pointwise bounds are audited on the Lagrangian trajectory")
    _require_states(traj)
    st = _stack(traj)
    d = st.grid.domain_length
    wn = w_norm(st)
    lhs_h = (1.0 / np.sqrt(st.rho)).max(axis=-1)
    worst_h = float((lhs_h - (d**-0.5 + 0.5 * wn)).max())
    lhs_l = np.abs(np.log(st.rho)).max(axis=-1)
    worst_l = float((lhs_l - (abs(math.log(d)) + math.sqrt(d) * wn)).max())
    worst = max(worst_h, worst_l)
    verdict = PASS if worst <= abs_tol else FAIL
    return AuditResult(
        "pointwise_bounds",
        verdict,
        margin=abs_tol - worst,
        details={"max_holder_defect": worst_h, "max_log_defect": worst_l},
    )


def _second_derivative(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    mid = np.multiply(2, f[..., 1:-1], out=out[..., 1:-1])  # (f+ - 2 f + f-) / h^2 in place
    np.subtract(f[..., 2:], mid, out=mid)
    mid += f[..., :-2]
    mid /= h * h
    out[..., 0] = (2 * f[..., 0] - 5 * f[..., 1] + 4 * f[..., 2] - f[..., 3]) / (h * h)
    out[..., -1] = (2 * f[..., -1] - 5 * f[..., -2] + 4 * f[..., -3] - f[..., -4]) / (h * h)
    return out


def _alpha(st: Records, params: MixtureParams) -> np.ndarray:
    """alpha at the record times of an Eulerian stack:
    sum_ij M_ij int u_i' u_j' dx
    + int_0^t sum_i int[ rho (du_i/dt)^2 + (sum_j M_ij u_j'')^2 / rho ]."""
    g = st.grid
    du_dt = time_derivative_series(st.times, st.U)
    md2 = params.M @ _second_derivative(st.U, g.h)
    inst = integrate(st.rho * _sum_sq(du_dt) + _sum_sq(md2) / st.rho, g)
    return _visc_quad(st, params) + _cumtrapz(st.times, inst)


def audit_alpha_growth(
    traj: Trajectory, params: MixtureParams, derived: DerivedMatrices
) -> AuditResult:
    """Check the measured alpha against its own growth inequality.

    alpha'(t) equals the squared right-hand side of the momentum equations
    over rho, which is bounded by C10 + C11 (sum_j ||u_j||_inf^2) alpha with
    C10, C11 measured suprema.  The audit verifies the integrated form and
    reports the Gronwall exponential bound as the ceiling constant.
    """
    if traj.frame != EULERIAN:
        raise WrongFrame("alpha audit expects the Eulerian trajectory")
    _require_states(traj, 3)
    st = _stack(traj)
    g, times = st.grid, st.times
    a = _alpha(st, params)

    row = params.A.sum(axis=1)
    exch = params.A @ st.U
    exch -= row[:, None] * st.U
    press = diff(st.rho**params.gamma, g)
    c10_terms = 3.0 * integrate((_sum_sq(exch) + params.N * params.K**2 * press**2) / st.rho, g)
    c10 = float(c10_terms.max())
    uinf_sq = sum(_linf_sq(st.U).T)  # sum over components, left to right
    c11 = 3.0 * float(st.rho.max()) / (params.N * derived.C0)

    growth = _cumtrapz(times, uinf_sq * a)
    bound = a[0] + c10 * (times - times[0]) + c11 * growth
    scale = max(a.max(), 1.0)
    slack = 1e-9 * scale + 1e-12
    gaps = bound + slack - a
    if not np.isfinite(gaps).all():  # alpha or its bound overflowed
        margin = -math.inf
    elif gaps.min() < 0 or gaps.size == 1:
        margin = float(gaps.min())
    else:
        # the first record satisfies the bound as an identity; report the
        # margin where the inequality actually has content
        margin = float(gaps[1:].min())
    sup_alpha_bound = float((a[0] + c10 * (times[-1] - times[0]))
                            * _or_inf(math.exp, c11 * _cumtrapz(times, uinf_sq)[-1]))
    verdict = PASS if margin >= 0 else FAIL
    return AuditResult(
        "alpha_growth",
        verdict,
        margin=margin,
        details={
            "sup_alpha": float(a.max()),
            "c10": c10,
            "c11": c11,
            "gronwall_ceiling": sup_alpha_bound,
        },
    )


def audit_velocity_damping(traj: Trajectory, params: MixtureParams) -> AuditResult:
    """Time integral of the pairwise velocity gaps; finite by the energy estimate."""
    _require_states(traj)
    st = _stack(traj)
    gaps = pairwise_velocity_gap_sq(st)
    total = float(_cumtrapz(st.times, gaps)[-1])
    verdict = PASS if math.isfinite(total) else FAIL
    return AuditResult(
        "velocity_damping",
        verdict,
        margin=math.inf if verdict == PASS else -math.inf,
        details={"int_pairwise_gap_sq": total, "final_gap_sq": float(gaps[-1])},
    )


def derivative_norm_report(traj: Trajectory, params: MixtureParams | None = None) -> AuditResult:
    """Suprema and space-time integrals of the derivative norms.

    Reports sup_t sum_i ||u_i'||_2, ||u_i''||_{L2(Q)}, ||du_i/dt||_{L2(Q)},
    sup_t ||d rho/dt||_2, sup_t ||d rho/dx||_2 and sum_i ||u_i||_{L2(0,T;Linf)}.
    Finiteness is the verdict; values are the empirical stand-ins for the
    regularity constants.
    """
    if traj.frame != EULERIAN:
        raise WrongFrame("derivative norm report expects the Eulerian trajectory")
    _require_states(traj, 2)
    st = _stack(traj)
    g, times = st.grid, st.times

    def l2_qt(X):  # sqrt(sum_i ||X_i||^2_{L2(Q)}) of an (R, N, n) stack
        return float(np.sqrt(_cumtrapz(times, integrate(_sum_sq(X), g))[-1]))

    jump = face_gradient(st.U, g)
    uinf_sq = _linf_sq(st.U)
    values = {
        "sup_grad_u_l2": float(np.sqrt(g.h * np.square(jump, out=jump).sum(axis=-1))
                               .sum(axis=-1).max()),
        "u_xx_l2_qt": l2_qt(_second_derivative(st.U, g.h)),
        "u_t_l2_qt": l2_qt(time_derivative_series(times, st.U)),
        "rho_t_sup_l2": float(l2_norm(time_derivative_series(times, st.rho), g).max()),
        "rho_x_sup_l2": float(l2_norm(diff(st.rho, g), g).max()),
        "u_l2_linf": float(
            sum(np.sqrt(_cumtrapz(times, uinf_sq[:, i])[-1]) for i in range(uinf_sq.shape[1]))
        ),
    }
    finite = all(math.isfinite(v) for v in values.values())
    return AuditResult("derivative_norms", PASS if finite else FAIL,
                       margin=math.inf if finite else -math.inf, details=values)


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class EstimateReport:
    results: dict[str, AuditResult]
    empirical_constants: dict[str, float] = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "audits": {k: v.to_dict() for k, v in self.results.items()},
            "empirical_constants": self.empirical_constants,
        }

    def render_text(self) -> str:
        lines = [f"{'audit':<20} {'verdict':<8} margin"]
        for name, r in self.results.items():
            lines.append(f"{name:<20} {r.verdict:<8} {r.margin:.6g}")
        lines.append(f"{'overall':<20} {'PASS' if self.passed else 'FAIL':<8}")
        return "\n".join(lines)


def empirical_constants(traj: Trajectory, params: MixtureParams) -> dict[str, float]:
    """Measured suprema of the norms the first a priori estimate controls."""
    st = _stack(traj)
    g, times = st.grid, st.times
    if traj.frame == EULERIAN:
        u_l2 = l2_norm(np.sqrt(st.rho)[:, None, :] * st.U, g)
        rho_int = integrate(st.rho**params.gamma, g)
    else:
        u_l2 = l2_norm(st.U, g)
        rho_int = integrate(st.rho ** (params.gamma - 1.0), g)
    return {
        "sup_t_sqrt_rho_u_l2": float(sum(u_l2.T).max()),  # components summed left to right
        # the power is monotone, so the sup is taken before it
        "sup_t_rho_lgamma": float(rho_int.max()) ** (1.0 / params.gamma),
        "grad_u_l2_qt": float(np.sqrt(_cumtrapz(times, velocity_gradient_sq(st))[-1])),
        "velocity_gap_l2_qt": float(np.sqrt(_cumtrapz(times, pairwise_velocity_gap_sq(st))[-1])),
        "rho_inf": float(st.rho.min()),
        "rho_sup": float(st.rho.max()),
    }


def build_report(
    params: MixtureParams,
    derived: DerivedMatrices,
    eulerian: Trajectory | None = None,
    lagrangian: Trajectory | None = None,
    audits: tuple[str, ...] = KNOWN_AUDITS,
) -> EstimateReport:
    """Run the requested audits on whichever trajectories are available.

    Audits whose frame is absent are reported as SKIP (they do not fail the
    report).  The total mass ``d`` is the initial Eulerian mass when that
    frame is present, else the Lagrangian domain length, so `run` and
    `check` audit a trajectory against the same ``d``.
    """
    for name in audits:
        if name not in KNOWN_AUDITS:
            raise ValidationError(f"unknown audit {name!r}; known: {KNOWN_AUDITS}")
    if eulerian is None and lagrangian is None:
        raise EmptyTrajectory("no trajectory supplied")
    if eulerian is not None:
        dval = integrate(eulerian.states[0].rho, eulerian.grid)
    else:
        dval = lagrangian.grid.domain_length

    trajs = {EULERIAN: eulerian, LAGRANGIAN: lagrangian,
             None: eulerian if eulerian is not None else lagrangian}
    results: dict[str, AuditResult] = {}
    for name in audits:
        frame, need, call = _AUDITS[name]
        traj = trajs[frame]
        if traj is None or len(traj) < need:
            results[name] = AuditResult(name, SKIP, margin=0.0,
                                         details={"reason": _skip_reason(frame, need)})
            continue
        results[name] = call(traj, params, derived, dval)
        if name == "density_bounds" and traj is eulerian and lagrangian is not None:
            # with both frames, a Lagrangian failure is the reported result
            lag = call(lagrangian, params, derived, dval)
            if not lag.passed:
                results[name] = lag

    consts = empirical_constants(trajs[None], params)
    return EstimateReport(results=results, empirical_constants=consts)


def _skip_reason(frame: str, need: int) -> str:
    label = frame.capitalize()
    if need == 0:
        return f"no {label} trajectory"
    article = "an" if frame == EULERIAN else "a"
    return f"needs {article} {label} trajectory with >= {need} records"
