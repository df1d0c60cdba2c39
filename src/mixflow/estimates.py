"""Functionals and inequality audits evaluated along trajectories.

Every audit is a pure function of a trajectory's stack and ledger: repeated
evaluation is bit-identical, and nothing here feeds back into the solvers.  Time
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

One rule, :func:`_verdict`, turns every audit's values into its verdict: the
margin is the least ``slack - (lhs - bound)`` over the records and PASS
means margin >= 0; an audit without a bound checks that its values are
finite (margin +inf).  A non-finite value, an overflow of huge but finite
data included, is a FAIL with margin -inf, never a NaN margin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .errors import MixflowError
from .field import (
    EULERIAN,
    LAGRANGIAN,
    State,
    Trajectory,
    _scalar,
    cumulative_trapezoid,
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

# name -> (the frames the audit reads, None for either; records it needs
# before build_report calls it, 0 for just the frame; call(st, led, params,
# derived, d) on that frame's trajectory st and its ledger columns).  Each
# call looks its audit up by module-level name when it runs.  An audit runs
# on each of its frames that is given and reports its first FAIL in that
# order, else its last result: with both frames, density_bounds reports a
# Lagrangian failure.
_AUDITS = {
    "energy_budget": ((EULERIAN,), 0, lambda st, led, p, dm, d: audit_energy_budget(led)),
    "density_bounds": ((LAGRANGIAN, EULERIAN), 0,
                       lambda st, led, p, dm, d: audit_density_bounds(led, d)),
    "w_balance": ((LAGRANGIAN,), 3, lambda st, led, p, dm, d: audit_w_balance(st, p, dm)),
    "gronwall": ((LAGRANGIAN,), 3, lambda st, led, p, dm, d: audit_gronwall_chain(st, p, dm)),
    "alpha_growth": ((EULERIAN,), 3,
                     lambda st, led, p, dm, d: audit_alpha_growth(st, led, p, dm)),
    "pointwise_bounds": ((LAGRANGIAN,), 0,
                         lambda st, led, p, dm, d: audit_pointwise_bounds(st, led)),
    "derivative_norms": ((EULERIAN,), 2, lambda st, led, p, dm, d: derivative_norm_report(st, led)),
    "velocity_damping": ((None,), 0, lambda st, led, p, dm, d: audit_velocity_damping(st)),
}
KNOWN_AUDITS = tuple(_AUDITS)


# ---------------------------------------------------------------------------
# per-state functionals


def _ledger(traj: Trajectory) -> dict[str, np.ndarray]:
    """The ledger of ``traj``; a trajectory without one row per state raises."""
    if (rows := len(traj.diagnostics.get("time", ()))) != len(traj):
        raise MixflowError(f"{rows} diagnostics records for {len(traj)} states")
    return traj.diagnostics


def energy(state: State | Trajectory, params: MixtureParams) -> float | np.ndarray:
    """Total energy: sum_i int(0.5 rho u_i^2 + K/(gamma-1) rho^gamma) dx.

    The pressure part is counted once per component, mirroring the estimate
    the budget audit discretizes.  In mass coordinates dx = dy / rho.
    """
    speed_sq = (state.U**2).sum(axis=-2)
    if state.frame == EULERIAN:
        speed_sq = state.rho * speed_sq
    gam = params.gamma
    internal = params.N * params.K / (gam - 1.0) * _rho_gamma_integral(state, gam)
    return 0.5 * integrate(speed_sq, state.grid) + internal


def _rho_gamma_integral(st: State | Trajectory, gamma: float) -> float | np.ndarray:
    """int rho^gamma dx in the frame's measure: int rho^(gamma-1) dy in mass coordinates."""
    return integrate(st.rho ** (gamma if st.frame == EULERIAN else gamma - 1.0), st.grid)


def velocity_gradient_sq(state: State | Trajectory) -> float | np.ndarray:
    """sum_i ||d u_i/dx||_2^2 in face form (Eulerian measure in both frames)."""
    g = state.grid
    sq = face_gradient(state.U, g) ** 2
    if state.frame == LAGRANGIAN:
        # du/dx = rho du/dy, dx = dy/rho  ->  integrand rho (du/dy)^2
        sq = face_mean(state.rho)[..., None, :] * sq
    # one sum over all components and faces of a record, as for a single state
    return _scalar(g.h * sq.reshape(*sq.shape[:-2], -1).sum(axis=-1))


def _visc_quad(state: State | Trajectory, params: MixtureParams) -> float | np.ndarray:
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


def _x_weight(state: State | Trajectory) -> np.ndarray | float:
    """Node weight turning a mass-coordinate integral into the x-measure one."""
    return 1.0 if state.frame == EULERIAN else 1.0 / state.rho


def _pairs(n: int, ordered: bool = True):
    """The component pairs (i, j), i != j, in row order; i < j only unless
    ``ordered``.  Sums over them start from 0.0 and add in this order."""
    return ((i, j) for i in range(n) for j in range(0 if ordered else i + 1, n) if i != j)


def friction_dissipation(state: State | Trajectory, params: MixtureParams) -> float | np.ndarray:
    """0.5 sum_ij A[i,j] int (u_i - u_j)^2 dx (dy/rho in mass coordinates)."""
    U, wgt = state.U, _x_weight(state)
    return sum((params.A[i, j] * integrate((U[..., i, :] - U[..., j, :]) ** 2 * wgt, state.grid)
                for i, j in _pairs(params.N, ordered=False)), 0.0)


def pairwise_velocity_gap_sq(state: State | Trajectory) -> float | np.ndarray:
    """sum_ij int (u_i - u_j)^2 dx (unweighted, both orders)."""
    U, wgt = state.U, _x_weight(state)
    return sum((integrate((U[..., i, :] - U[..., j, :]) ** 2 * wgt, state.grid)
                for i, j in _pairs(U.shape[-2])), 0.0)


def w_field(state: State | Trajectory) -> np.ndarray:
    """Slope of ln rho on the mass grid, sampled at faces.

    Face sampling (rather than node-centered differences) is what makes the
    audited bounds involving ||w|| hold exactly at the discrete level.
    """
    if state.frame != LAGRANGIAN:
        raise MixflowError("w_field expects a Lagrangian state")
    return face_gradient(np.log(state.rho), state.grid)


def w_norm(state: State | Trajectory) -> float | np.ndarray:
    """||d(ln rho)/dy||_{L2(0,d)}; for Eulerian states via the coordinate map.

    In Eulerian variables the same quantity is int (d ln rho/dx)^2 / rho dx.
    """
    g = state.grid
    sq = face_gradient(np.log(state.rho), g) ** 2
    if state.frame == EULERIAN:
        sq /= face_mean(state.rho)
    return _scalar(np.sqrt(g.h * sq.sum(axis=-1)))


def grad_rho_l2_eulerian(state: State | Trajectory) -> float | np.ndarray:
    """||d rho/dx||_{L2(0,1)} regardless of the stored frame."""
    g = state.grid
    d = diff(state.rho, g)
    if state.frame == EULERIAN:
        return l2_norm(d, g)
    # d rho/dx = rho d rho/dy, dx = dy/rho -> integrand rho (d rho/dy)^2
    return _scalar(np.sqrt(np.maximum(integrate(state.rho * d**2, g), 0.0)))


# ---------------------------------------------------------------------------
# per-record diagnostics


#: the ledger's fields that diagnose fills from each state alone
STATE_FIELDS = (
    "time", "energy", "dissipation_visc", "dissipation_fric", "rho_min",
    "rho_max", "w_norm", "grad_rho_l2", "u_linf",
)
#: then the time fields, which need snapshot differences and so at least two
#: records: dt_rho_l2, alpha (Eulerian only) and identity_residual
#: (Lagrangian only); a ledger lacks those that do not apply
FIELDS = STATE_FIELDS + ("dt_rho_l2", "alpha", "identity_residual")


def diagnose(traj: Trajectory, params: MixtureParams) -> Trajectory:
    """Fill ``traj.diagnostics``, the ledger, and return ``traj``.

    The ledger holds one float column per field with one row per record.
    The state fields are array ops on the trajectory's stack along the last
    axis; with at least two records :func:`attach_time_fields` then adds the
    time fields.
    """
    cols = np.broadcast_arrays(
        traj.times, energy(traj, params), _visc_quad(traj, params),
        friction_dissipation(traj, params), traj.rho.min(axis=-1), traj.rho.max(axis=-1),
        w_norm(traj), grad_rho_l2_eulerian(traj), np.abs(traj.U).max(axis=-1).max(axis=-1),
    )
    traj.diagnostics = dict(zip(STATE_FIELDS, np.array(cols, dtype=float)))
    if len(traj) >= 2:
        attach_time_fields(traj, params)
    return traj


def make_record(state: State, params: MixtureParams, derived: DerivedMatrices) -> dict[str, float]:
    """The state fields of one state: :func:`diagnose` on a one-record trajectory.

    The program does not call it; it is kept, with its unused ``derived``,
    because the benchmark's probe and tracer (``perfbench/probe.py``,
    ``perfbench/tracing.py``) resolve it and call it that way.
    """
    one = diagnose(Trajectory.stack([state]), params)
    return {name: col.item() for name, col in one.diagnostics.items()}


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
        raise MixflowError("need at least two records for time derivatives")
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


def attach_time_fields(traj: Trajectory, params: MixtureParams):
    """Add the time fields of ``traj`` to its ledger."""
    g = traj.grid
    fields = {"dt_rho_l2": l2_norm(time_derivative_series(traj.times, traj.rho), g)}
    if traj.frame == LAGRANGIAN:
        dln_dt = time_derivative_series(traj.times, np.log(traj.rho))
        dv = sbp_derivative(traj.U.mean(axis=1), g)
        fields["identity_residual"] = l2_norm(traj.rho * dv + dln_dt, g)
    else:
        fields["alpha"] = _alpha(traj, params)
    traj.diagnostics.update(fields)
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


def _excess(lhs, bound) -> float:
    """The largest ``lhs - bound`` over the records; +inf when any value of
    either is not finite."""
    if np.isfinite(lhs).all() and np.isfinite(bound).all():
        return float(np.max(np.subtract(lhs, bound)))
    return math.inf


def _verdict(name: str, lhs, bound=None, slack: float = 0.0, *, details: dict) -> AuditResult:
    """The one verdict rule of every audit.

    The margin is the least ``slack - (lhs - bound)`` over the records and
    the audit PASSes iff it is >= 0.  Any non-finite ``lhs``, ``bound`` or
    ``slack`` is a FAIL with margin -inf.  Without a bound the audit checks
    that ``lhs`` is finite: margin +inf, else -inf.
    """
    if bound is None:
        margin = math.inf if np.isfinite(lhs).all() else -math.inf
    else:
        margin = slack - _excess(lhs, bound) if math.isfinite(slack) else -math.inf
    return AuditResult(name, PASS if margin >= 0 else FAIL, margin, details)


# ---------------------------------------------------------------------------
# audits


def audit_energy_budget(led: dict[str, np.ndarray]) -> AuditResult:
    """E(t) + int_0^t (visc + fric) must never exceed E(0) (1 + 1e-6).

    The ledger ``led`` carries the scheme-consistent dissipation rates; the
    time integral is the trapezoid over record times.
    """
    e = led["energy"]
    dissipated = cumulative_trapezoid(led["dissipation_visc"] + led["dissipation_fric"],
                                      np.diff(led["time"]))
    e0, total = e[0], e + dissipated
    tol = 1e-6 * e0
    return _verdict("energy_budget", total, e0, tol, details={
        "e0": e0,
        "max_excess": _excess(total, e0),
        "tolerance": tol,
        "min_dissipated": float(dissipated[-1]),
    })


def audit_density_bounds(led: dict[str, np.ndarray], dval: float) -> AuditResult:
    """Positivity plus the mean-value bracket min rho <= d <= max rho per
    record, read from the ledger's ``rho_min`` and ``rho_max``, within a
    relative 1e-8 of d.

    The bracket is exact for the conservative schemes: the trapezoid mean of
    rho (Eulerian) or of 1/rho (Lagrangian) pins d between the extremes.
    A record with rho_min <= 0 has an infinite defect.
    """
    lo, hi = led["rho_min"], led["rho_max"]
    defect = np.maximum(np.maximum(lo - dval, dval - hi), 0.0)
    defect[lo <= 0.0] = math.inf
    return _verdict("density_bounds", defect, 0.0, 1e-8 * dval, details={
        "rho_inf": float(lo.min()), "rho_sup": float(hi.max()), "d": dval,
        "max_bracket_defect": _excess(defect, 0.0),
    })


def audit_w_balance(st: Trajectory, params: MixtureParams, derived: DerivedMatrices) -> AuditResult:
    """Residual of the log-density slope balance along the trajectory.

    0.5 d/dt ||w||^2 + Ktilde*gamma int rho^gamma w^2
        = -int (dV/dt) w + sum_jk Vw_j A_jk int (u_k - u_j) w / rho

    All terms are discretized on faces; dV/dt comes from snapshot differences.
    The residual is reported per interior record time; it converges to zero
    under simultaneous (h, dt) refinement, which is what the acceptance test
    measures.
    """
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
    fric = sum((vw[j] * A[j, k] * g.h * (face_mean(U[:, k] - U[:, j]) / rho_f * w).sum(axis=-1)
                for j, k in _pairs(params.N)), 0.0)
    residuals = np.abs(0.5 * dphi + pressure + dvw - fric)
    return _verdict("w_balance", residuals, details={
        "max_residual": float(residuals.max()) if residuals.size else 0.0,
        "times": times[1:-1].tolist(),
        "residuals": residuals.tolist(),
    })


def pair_gap_over_sqrt_rho(state: State | Trajectory) -> float | np.ndarray:
    """S(t) = sum_{j,k} ||(u_k - u_j)/sqrt(rho)||_2 over ordered pairs."""
    U, sqrt_rho = state.U, np.sqrt(state.rho)
    return sum((l2_norm((U[..., k, :] - U[..., j, :]) / sqrt_rho, state.grid)
                for j, k in _pairs(U.shape[-2])), 0.0)


def audit_gronwall_chain(st: Trajectory, params: MixtureParams, derived: DerivedMatrices) -> AuditResult:
    """Gronwall reconstruction of ||w(t)||^2 <= C4 exp(C5 int S).

    C5 comes from the friction/viscosity constants alone; C4 collects the
    initial data terms and the measured suprema of the a-priori-bounded
    quantities (the empirical stand-ins for the existence constants).
    """
    g, times = st.grid, st.times
    d = g.domain_length
    vw = derived.V_weights

    w = w_field(st)
    phi = g.h * (w**2).sum(axis=-1)
    v = np.einsum("j,rjx->rx", vw, st.U)
    int_s = cumulative_trapezoid(pair_gap_over_sqrt_rho(st), np.diff(times))

    c3 = max(abs(vw[j]) * params.A[j, k] for j, k in _pairs(params.N))
    sup_v2 = float(l2_norm(v, g).max()) ** 2
    cross = g.h * (
        face_mean(st.rho)
        * np.abs(face_gradient(st.U.mean(axis=1), g))
        * np.abs(face_gradient(v, g))
    ).sum(axis=-1)
    int_cross = cumulative_trapezoid(cross, np.diff(times))[-1]
    v0w0 = g.h * float((face_mean(v[0]) * w[0]).sum())

    c4 = (4.0 / 3.0) * (
        phi[0] + 2.0 * abs(v0w0) + 4.0 * sup_v2 + 2.0 * int_cross + c3 / math.sqrt(d) * int_s[-1]
    )
    c5 = (4.0 / 3.0) * c3 * (1.0 + 1.0 / math.sqrt(d))
    bound = c4 * np.exp(c5 * int_s) + 1e-12 * max(1.0, d)
    return _verdict("gronwall", phi, bound, details={
        "c3": float(c3),
        "c4": float(c4),
        "c5": float(c5),
        "sup_w_sq": float(phi.max()),
        "int_pair_gap": float(int_s[-1]),
    })


def audit_pointwise_bounds(st: Trajectory, led: dict[str, np.ndarray]) -> AuditResult:
    """Hoelder bound on 1/sqrt(rho) and the pointwise bound on |ln rho|,
    with ||w|| the ledger's ``w_norm``.

    max 1/sqrt(rho) <= d^(-1/2) + 0.5 ||w||
    max |ln rho|    <= |ln d| + sqrt(d) ||w||

    With the face-based w these hold exactly; a slack of 1e-8 only absorbs
    round-off.
    """
    d = st.grid.domain_length
    wn = led["w_norm"]
    lhs = ((1.0 / np.sqrt(st.rho)).max(axis=-1), np.abs(np.log(st.rho)).max(axis=-1))
    bound = (d**-0.5 + 0.5 * wn, abs(math.log(d)) + math.sqrt(d) * wn)
    return _verdict("pointwise_bounds", np.concatenate(lhs), np.concatenate(bound), 1e-8,
                    details={"max_holder_defect": _excess(lhs[0], bound[0]),
                             "max_log_defect": _excess(lhs[1], bound[1])})


def _second_derivative(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    mid = np.multiply(2, f[..., 1:-1], out=out[..., 1:-1])  # (f+ - 2 f + f-) / h^2 in place
    np.subtract(f[..., 2:], mid, out=mid)
    mid += f[..., :-2]
    mid /= h * h
    out[..., 0] = (2 * f[..., 0] - 5 * f[..., 1] + 4 * f[..., 2] - f[..., 3]) / (h * h)
    out[..., -1] = (2 * f[..., -1] - 5 * f[..., -2] + 4 * f[..., -3] - f[..., -4]) / (h * h)
    return out


def _alpha(st: Trajectory, params: MixtureParams) -> np.ndarray:
    """alpha at the record times of an Eulerian stack:
    sum_ij M_ij int u_i' u_j' dx
    + int_0^t sum_i int[ rho (du_i/dt)^2 + (sum_j M_ij u_j'')^2 / rho ]."""
    g = st.grid
    du_dt = time_derivative_series(st.times, st.U)
    md2 = params.M @ _second_derivative(st.U, g.h)
    inst = integrate(st.rho * _sum_sq(du_dt) + _sum_sq(md2) / st.rho, g)
    return _visc_quad(st, params) + cumulative_trapezoid(inst, np.diff(st.times))


def audit_alpha_growth(
    st: Trajectory, led: dict[str, np.ndarray], params: MixtureParams, derived: DerivedMatrices
) -> AuditResult:
    """Check the measured alpha (the ledger's column) against its own growth
    inequality.

    alpha'(t) equals the squared right-hand side of the momentum equations
    over rho, which is bounded by C10 + C11 (sum_j ||u_j||_inf^2) alpha with
    C10, C11 measured suprema.  The audit verifies the integrated form and
    reports the Gronwall exponential bound as the ceiling constant.
    """
    g, times = st.grid, st.times
    a = led["alpha"]

    exch = params.exchange(st.U)
    press = diff(st.rho**params.gamma, g)
    c10_terms = 3.0 * integrate((_sum_sq(exch) + params.N * params.K**2 * press**2) / st.rho, g)
    c10 = float(c10_terms.max())
    uinf_sq = sum(_linf_sq(st.U).T)  # sum over components, left to right
    c11 = 3.0 * float(led["rho_max"].max()) / (params.N * derived.C0)

    dts = np.diff(times)
    growth = cumulative_trapezoid(uinf_sq * a, dts)
    bound = a[0] + c10 * (times - times[0]) + c11 * growth
    slack = 1e-9 * max(a.max(), 1.0) + 1e-12
    sup_alpha_bound = float((a[0] + c10 * (times[-1] - times[0]))
                            * _or_inf(math.exp, c11 * cumulative_trapezoid(uinf_sq, dts)[-1]))
    # record 0 satisfies the bound as an identity: the inequality has content
    # from record 1 on
    return _verdict("alpha_growth", a[1:], (bound + slack)[1:], details={
        "sup_alpha": float(a.max()),
        "c10": c10,
        "c11": c11,
        "gronwall_ceiling": sup_alpha_bound,
    })


def audit_velocity_damping(st: Trajectory) -> AuditResult:
    """Time integral of the pairwise velocity gaps; finite by the energy estimate."""
    gaps = pairwise_velocity_gap_sq(st)
    details = {"int_pairwise_gap_sq": float(cumulative_trapezoid(gaps, np.diff(st.times))[-1]),
               "final_gap_sq": float(gaps[-1])}
    return _verdict("velocity_damping", list(details.values()), details=details)


def derivative_norm_report(st: Trajectory, led: dict[str, np.ndarray]) -> AuditResult:
    """Suprema and space-time integrals of the derivative norms.

    Reports sup_t sum_i ||u_i'||_2, ||u_i''||_{L2(Q)}, ||du_i/dt||_{L2(Q)},
    sup_t ||d rho/dt||_2 and sup_t ||d rho/dx||_2 (the ledger's
    ``dt_rho_l2`` and ``grad_rho_l2``) and sum_i ||u_i||_{L2(0,T;Linf)}.
    Finiteness is the verdict; values are the empirical stand-ins for the
    regularity constants.
    """
    g, times = st.grid, st.times
    dts = np.diff(times)

    def l2_qt(X):  # sqrt(sum_i ||X_i||^2_{L2(Q)}) of an (R, N, n) stack
        return float(np.sqrt(cumulative_trapezoid(integrate(_sum_sq(X), g), dts)[-1]))

    jump = face_gradient(st.U, g)
    uinf_sq = _linf_sq(st.U)
    values = {
        "sup_grad_u_l2": float(np.sqrt(g.h * np.square(jump, out=jump).sum(axis=-1))
                               .sum(axis=-1).max()),
        "u_xx_l2_qt": l2_qt(_second_derivative(st.U, g.h)),
        "u_t_l2_qt": l2_qt(time_derivative_series(times, st.U)),
        "rho_t_sup_l2": float(led["dt_rho_l2"].max()),
        "rho_x_sup_l2": float(led["grad_rho_l2"].max()),
        "u_l2_linf": float(sum(np.sqrt(cumulative_trapezoid(u, dts)[-1]) for u in uinf_sq.T)),
    }
    return _verdict("derivative_norms", list(values.values()), details=values)


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
        """The report as plain data for JSON: strict JSON has no NaN, so a
        NaN detail or constant (an overflow's inf - inf or 0 * inf) is None."""
        fields = _nan_to_none(asdict(self))
        return {"passed": self.passed, "audits": fields.pop("results"), **fields}

    def render_text(self) -> str:
        lines = [f"{'audit':<20} {'verdict':<8} margin"]
        for name, r in self.results.items():
            lines.append(f"{name:<20} {r.verdict:<8} {r.margin:.6g}")
        lines.append(f"{'overall':<20} {'PASS' if self.passed else 'FAIL':<8}")
        return "\n".join(lines)


def _nan_to_none(obj):
    if isinstance(obj, dict):
        return {k: _nan_to_none(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_nan_to_none(v) for v in obj]
    return None if isinstance(obj, float) and math.isnan(obj) else obj


def empirical_constants(st: Trajectory, led: dict[str, np.ndarray],
                        params: MixtureParams) -> dict[str, float]:
    """Measured suprema of the norms the first a priori estimate controls."""
    g, dts = st.grid, np.diff(st.times)
    u_l2 = l2_norm(np.sqrt(st.rho)[:, None, :] * st.U if st.frame == EULERIAN else st.U, g)
    return {
        "sup_t_sqrt_rho_u_l2": float(sum(u_l2.T).max()),  # components summed left to right
        # the power is monotone, so the sup is taken before it
        "sup_t_rho_lgamma":
            float(_rho_gamma_integral(st, params.gamma).max()) ** (1.0 / params.gamma),
        "grad_u_l2_qt": float(np.sqrt(cumulative_trapezoid(velocity_gradient_sq(st), dts)[-1])),
        "velocity_gap_l2_qt":
            float(np.sqrt(cumulative_trapezoid(pairwise_velocity_gap_sq(st), dts)[-1])),
        "rho_inf": float(led["rho_min"].min()),
        "rho_sup": float(led["rho_max"].max()),
    }


def build_report(
    params: MixtureParams,
    derived: DerivedMatrices,
    trajectories: list[Trajectory],
    audits: tuple[str, ...] = KNOWN_AUDITS,
) -> EstimateReport:
    """Run the requested audits on the diagnosed ``trajectories``, at most one per frame.

    Each trajectory is filed under its own frame, and it and its ledger
    columns go to every audit of that frame and to
    :func:`empirical_constants`, with no copy.  Audits whose frame is absent,
    or that need more records than it has, are reported as SKIP (they do not
    fail the report).  The total mass ``d`` is the initial Eulerian mass when
    that frame is present, else the Lagrangian domain length, so `run` and
    `check` audit a trajectory against the same ``d``.
    """
    inputs = {f: (t, _ledger(t)) for f in (EULERIAN, LAGRANGIAN) for t in trajectories
              if t.frame == f}
    if not inputs or len(inputs) < len(trajectories):
        raise MixflowError(f"need one or two distinct frames, got {[t.frame for t in trajectories]}")
    inputs[None] = next(iter(inputs.values()))  # the Eulerian frame when present
    st = inputs[None][0]
    dval = integrate(st.rho[0], st.grid) if st.frame == EULERIAN else st.grid.domain_length

    results: dict[str, AuditResult] = {}
    for name in audits:
        frames, need, call = _AUDITS[name]
        ready = [f for f in frames if f in inputs and len(inputs[f][0]) >= need]
        if not ready:
            results[name] = AuditResult(name, SKIP, margin=0.0,
                                         details={"reason": _skip_reason(frames[0], need)})
            continue
        runs = [call(*inputs[f], params, derived, dval) for f in ready]
        results[name] = next((r for r in runs if not r.passed), runs[-1])

    consts = empirical_constants(*inputs[None], params)
    return EstimateReport(results=results, empirical_constants=consts)


def _skip_reason(frame: str, need: int) -> str:
    label = frame.capitalize()
    if need == 0:
        return f"no {label} trajectory"
    article = "an" if frame == EULERIAN else "a"
    return f"needs {article} {label} trajectory with >= {need} records"
