"""Per-record loop versions of the trajectory functionals, kept as the oracle.

These are ``make_record`` with its per-state functionals, the audits,
``attach_time_fields`` and ``empirical_constants`` as they were written
before the estimates module moved to arrays over the record axis: one state
at a time, Python loops over records and component pairs.
``tests/test_record_axis.py`` requires the array versions to reproduce them
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from mixflow.errors import EmptyTrajectory, NonFinite, ValidationError, WrongFrame
from mixflow.estimates import (
    FAIL, PASS, SKIP, AuditResult, DiagnosticsRecord, EstimateReport, _skip_reason, w_field,
)
from mixflow.field import (
    EULERIAN, LAGRANGIAN, _scalar, diff, face_gradient, face_harmonic_mean, face_mean, integrate,
    l2_norm, sbp_derivative,
)

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
# per-state diagnostics: make_record and its functionals, one state per call


def energy(state: State, params: MixtureParams) -> float:
    """Total energy: sum_i int(0.5 rho u_i^2 + K/(gamma-1) rho^gamma) dx.

    The pressure part is counted once per component, mirroring the estimate
    the budget audit discretizes.  In mass coordinates dx = dy / rho.
    """
    g = state.grid
    K, gam, N = params.K, params.gamma, params.N
    if state.frame == EULERIAN:
        kinetic = 0.5 * integrate(state.rho * (state.U**2).sum(axis=0), g)
        internal = N * K / (gam - 1.0) * integrate(state.rho**gam, g)
    else:
        kinetic = 0.5 * integrate((state.U**2).sum(axis=0), g)
        internal = N * K / (gam - 1.0) * integrate(state.rho ** (gam - 1.0), g)
    return kinetic + internal


def _visc_quad(state: State, params: MixtureParams) -> tuple[float, float]:
    """(sum_ij M_ij <u_i', u_j'>, sum_i <u_i', u_i'>) with the frame's weight."""
    g = state.grid
    jump = face_gradient(state.U, g)
    if state.frame == EULERIAN:
        w = g.h
        quad = float(np.einsum("if,jf,ij->", jump, jump, params.M) * w)
        grad_sq = float((jump**2).sum() * w)
    else:
        rh = face_harmonic_mean(state.rho)
        quad = float(g.h * np.einsum("if,jf,f,ij->", jump, jump, rh, params.M))
        grad_sq = float(g.h * (rh * jump**2).sum())
    return quad, grad_sq


def _x_weight(state: State) -> np.ndarray | float:
    """Node weight turning a mass-coordinate integral into the x-measure one."""
    return 1.0 if state.frame == EULERIAN else 1.0 / state.rho


def friction_dissipation(state: State, params: MixtureParams) -> float:
    """0.5 sum_ij A[i,j] int (u_i - u_j)^2 dx (dy/rho in mass coordinates)."""
    g = state.grid
    U = state.U
    wgt = _x_weight(state)
    total = 0.0
    for i in range(params.N):
        for j in range(i + 1, params.N):
            total += params.A[i, j] * integrate((U[i] - U[j]) ** 2 * wgt, g)
    return total  # = 0.5 * sum over ordered pairs


def w_norm(state: State) -> float:
    """||d(ln rho)/dy||_{L2(0,d)}; for Eulerian states via the coordinate map.

    In Eulerian variables the same quantity is int (d ln rho/dx)^2 / rho dx.
    """
    g = state.grid
    sq = face_gradient(np.log(state.rho), g) ** 2
    if state.frame == EULERIAN:
        sq /= face_mean(state.rho)
    return _scalar(np.sqrt(g.h * sq.sum(axis=-1)))


def grad_rho_l2_eulerian(state: State) -> float:
    """||d rho/dx||_{L2(0,1)} regardless of the stored frame."""
    g = state.grid
    d = diff(state.rho, g)
    if state.frame == EULERIAN:
        return l2_norm(d, g)
    # d rho/dx = rho d rho/dy, dx = dy/rho -> integrand rho (d rho/dy)^2
    return float(np.sqrt(max(integrate(state.rho * d**2, g), 0.0)))


def make_record(state: State, params: MixtureParams, derived: DerivedMatrices) -> DiagnosticsRecord:
    visc, _ = _visc_quad(state, params)
    return DiagnosticsRecord(
        time=state.time,
        energy=energy(state, params),
        dissipation_visc=visc,
        dissipation_fric=friction_dissipation(state, params),
        rho_min=float(state.rho.min()),
        rho_max=float(state.rho.max()),
        w_norm=w_norm(state),
        grad_rho_l2=grad_rho_l2_eulerian(state),
        u_linf=max(float(np.abs(state.U[i]).max()) for i in range(state.U.shape[0])),
    )


def velocity_gradient_sq(state: State) -> float:
    """sum_i ||d u_i/dx||_2^2 in face form (Eulerian measure in both frames)."""
    g = state.grid
    jump = face_gradient(state.U, g)
    if state.frame == EULERIAN:
        return float(g.h * (jump**2).sum())
    # du/dx = rho du/dy, dx = dy/rho  ->  integrand rho (du/dy)^2
    return float(g.h * (face_mean(state.rho) * jump**2).sum())



def pairwise_velocity_gap_sq(state: State) -> float:
    """sum_ij int (u_i - u_j)^2 dx (unweighted, both orders)."""
    g = state.grid
    U = state.U
    wgt = _x_weight(state)
    n = U.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += integrate((U[i] - U[j]) ** 2 * wgt, g)
    return total



def _require_states(traj: Trajectory, min_len: int = 1):
    if len(traj) < min_len:
        raise EmptyTrajectory(f"need at least {min_len} recorded states, have {len(traj)}")


def time_derivative_weights(times: np.ndarray):
    """3-point non-uniform interior weights, 2-point one-sided at the ends.

    Returns a list of (indices, weights) per record index.
    """
    m = len(times)
    if m < 2:
        raise EmptyTrajectory("need at least two records for time derivatives")
    out = []
    for k in range(m):
        if k == 0:
            dt = times[1] - times[0]
            out.append(((0, 1), (-1.0 / dt, 1.0 / dt)))
        elif k == m - 1:
            dt = times[-1] - times[-2]
            out.append(((m - 2, m - 1), (-1.0 / dt, 1.0 / dt)))
        else:
            a = times[k] - times[k - 1]
            b = times[k + 1] - times[k]
            w_prev = -b / (a * (a + b))
            w_next = a / (b * (a + b))
            out.append(((k - 1, k, k + 1), (w_prev, -w_prev - w_next, w_next)))
    return out


def time_derivative_series(times: np.ndarray, values: list[np.ndarray]) -> list[np.ndarray]:
    """Apply the non-uniform stencils to a list of equally-shaped arrays."""
    weights = time_derivative_weights(times)
    out = []
    for idx, wts in weights:
        acc = np.zeros_like(np.asarray(values[0], dtype=float))
        for i, w in zip(idx, wts):
            acc = acc + w * np.asarray(values[i], dtype=float)
        out.append(acc)
    return out


def _cumtrapz(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vals, dtype=float)
    if len(times) > 1:
        dt = np.diff(times)
        out[1:] = np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]))
    return out


def attach_time_fields(traj: Trajectory, params: MixtureParams, derived: DerivedMatrices):
    """Fill the snapshot-difference diagnostics on an existing trajectory."""
    _require_states(traj, 2)
    times = traj.times()
    g = traj.grid
    rhos = [s.rho for s in traj.states]
    drho_dt = time_derivative_series(times, rhos)
    for rec, dr in zip(traj.diagnostics, drho_dt):
        rec.dt_rho_l2 = l2_norm(dr, g)
    if traj.frame == LAGRANGIAN:
        dln_dt = time_derivative_series(times, [np.log(r) for r in rhos])
        for rec, s, dl in zip(traj.diagnostics, traj.states, dln_dt):
            dv = sbp_derivative(s.U.mean(axis=0), g)
            rec.identity_residual = l2_norm(s.rho * dv + dl, g)
    if traj.frame == EULERIAN:
        alphas = alpha_series(traj, params, derived)
        for rec, a in zip(traj.diagnostics, alphas):
            rec.alpha = float(a)
    return traj




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
    d = np.array([r.dissipation_visc + r.dissipation_fric for r in recs])
    budget = e + _cumtrapz(times, d)
    e0 = e[0]
    excess = float((budget - e0).max())
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
            "min_dissipated": float(_cumtrapz(times, d)[-1]),
        },
    )


def audit_density_bounds(traj: Trajectory, dval: float, rel_tol: float = 1e-8) -> AuditResult:
    """Positivity plus the mean-value bracket min rho <= d <= max rho per record.

    The bracket is exact for the conservative schemes: the trapezoid mean of
    rho (Eulerian) or of 1/rho (Lagrangian) pins d between the extremes.
    """
    _require_states(traj)
    tol = rel_tol * dval
    lo = min(float(s.rho.min()) for s in traj.states)
    hi = max(float(s.rho.max()) for s in traj.states)
    worst = 0.0
    ok = lo > 0.0
    for s in traj.states:
        mn, mx = float(s.rho.min()), float(s.rho.max())
        worst = max(worst, mn - dval, dval - mx)
        if mn - dval > tol or dval - mx > tol:
            ok = False
    verdict = PASS if ok else FAIL
    return AuditResult(
        "density_bounds",
        verdict,
        margin=tol - worst,
        details={"rho_inf": lo, "rho_sup": hi, "d": dval, "max_bracket_defect": worst},
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
    g = traj.grid
    times = traj.times()
    vw = derived.V_weights
    A = params.A
    gam, ktg = params.gamma, derived.K_tilde * params.gamma

    ws = [w_field(s) for s in traj.states]
    phis = np.array([g.h * (w**2).sum() for w in ws])
    vs = [np.einsum("j,jx->x", vw, s.U) for s in traj.states]
    dv_dt = time_derivative_series(times, vs)
    dphi = time_derivative_series(times, list(phis))

    residuals = []
    for m in range(1, len(times) - 1):
        s = traj.states[m]
        w = ws[m]
        rho_f = face_mean(s.rho)
        pressure = ktg * g.h * float((rho_f**gam * w**2).sum())
        dvw = g.h * float((face_mean(dv_dt[m]) * w).sum())
        fric = 0.0
        for j in range(params.N):
            for k in range(params.N):
                if k == j:
                    continue
                gap = face_mean(s.U[k] - s.U[j]) / rho_f
                fric += vw[j] * A[j, k] * g.h * float((gap * w).sum())
        residuals.append(abs(0.5 * float(dphi[m]) + pressure + dvw - fric))
    max_res = float(max(residuals)) if residuals else 0.0
    return AuditResult(
        "w_balance",
        PASS if math.isfinite(max_res) else FAIL,
        margin=math.inf if math.isfinite(max_res) else -math.inf,
        details={
            "max_residual": max_res,
            "times": [float(t) for t in times[1:-1]],
            "residuals": residuals,
        },
    )


def pair_gap_over_sqrt_rho(state: State) -> float:
    """S(t) = sum_{j,k} ||(u_k - u_j)/sqrt(rho)||_2 over ordered pairs."""
    g = state.grid
    total = 0.0
    for j in range(state.U.shape[0]):
        for k in range(state.U.shape[0]):
            if j != k:
                total += l2_norm((state.U[k] - state.U[j]) / np.sqrt(state.rho), g)
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
    g = traj.grid
    d = g.domain_length
    times = traj.times()
    vw = derived.V_weights

    ws = [w_field(s) for s in traj.states]
    phi = np.array([g.h * (w**2).sum() for w in ws])
    vs = [np.einsum("j,jx->x", vw, s.U) for s in traj.states]
    s_series = np.array([pair_gap_over_sqrt_rho(s) for s in traj.states])
    int_s = _cumtrapz(times, s_series)

    c3 = max(
        abs(vw[j]) * params.A[j, k]
        for j in range(params.N)
        for k in range(params.N)
        if j != k
    )
    sup_v2 = max(l2_norm(v, g) ** 2 for v in vs)
    cross = np.array(
        [
            g.h
            * float(
                (
                    face_mean(s.rho)
                    * np.abs(face_gradient(s.U.mean(axis=0), g))
                    * np.abs(face_gradient(v, g))
                ).sum()
            )
            for s, v in zip(traj.states, vs)
        ]
    )
    int_cross = _cumtrapz(times, cross)[-1]
    v0w0 = g.h * float((face_mean(vs[0]) * ws[0]).sum())

    c4 = (4.0 / 3.0) * (
        phi[0] + 2.0 * abs(v0w0) + 4.0 * sup_v2 + 2.0 * int_cross + c3 / math.sqrt(d) * int_s[-1]
    )
    c5 = (4.0 / 3.0) * c3 * (1.0 + 1.0 / math.sqrt(d))
    bound = c4 * np.exp(c5 * int_s) + 1e-12 * max(1.0, d)
    margin = float((bound - phi).min())
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
    g = traj.grid
    d = g.domain_length
    worst_h = -math.inf
    worst_l = -math.inf
    for s in traj.states:
        wn = w_norm(s)
        lhs_h = float((1.0 / np.sqrt(s.rho)).max())
        worst_h = max(worst_h, lhs_h - (d**-0.5 + 0.5 * wn))
        lhs_l = float(np.abs(np.log(s.rho)).max())
        worst_l = max(worst_l, lhs_l - (abs(math.log(d)) + math.sqrt(d) * wn))
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
    out[..., 1:-1] = (f[..., 2:] - 2 * f[..., 1:-1] + f[..., :-2]) / (h * h)
    out[..., 0] = (2 * f[..., 0] - 5 * f[..., 1] + 4 * f[..., 2] - f[..., 3]) / (h * h)
    out[..., -1] = (2 * f[..., -1] - 5 * f[..., -2] + 4 * f[..., -3] - f[..., -4]) / (h * h)
    return out


def alpha_series(traj: Trajectory, params: MixtureParams, derived: DerivedMatrices) -> np.ndarray:
    """alpha(t) at the record times (Eulerian trajectories).

    alpha = sum_ij M_ij int u_i' u_j' dx
          + int_0^t sum_i int[ rho (du_i/dt)^2 + (sum_j M_ij u_j'')^2 / rho ]
    """
    if traj.frame != EULERIAN:
        raise WrongFrame("alpha is defined on Eulerian trajectories")
    _require_states(traj, 2)
    g = traj.grid
    times = traj.times()
    du_dt = time_derivative_series(times, [s.U for s in traj.states])
    inst = []
    quad = []
    for s, du in zip(traj.states, du_dt):
        quad.append(_visc_quad(s, params)[0])
        d2u = _second_derivative(s.U, g.h)
        md2 = params.M @ d2u
        inst.append(integrate(s.rho * (du**2).sum(axis=0) + (md2**2).sum(axis=0) / s.rho, g))
    return np.asarray(quad) + _cumtrapz(times, np.asarray(inst))


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
    g = traj.grid
    times = traj.times()
    a = alpha_series(traj, params, derived)

    row = params.A.sum(axis=1)
    c10_terms = []
    uinf_sq = []
    rho_max = 0.0
    for s in traj.states:
        exch = params.A @ s.U - row[:, None] * s.U
        press = diff(s.rho**params.gamma, g)
        c10_terms.append(
            3.0
            * integrate(
                ((exch**2).sum(axis=0) + params.N * params.K**2 * press**2) / s.rho, g
            )
        )
        uinf_sq.append(sum(float(np.abs(s.U[i]).max()) ** 2 for i in range(params.N)))
        rho_max = max(rho_max, float(s.rho.max()))
    c10 = float(max(c10_terms))
    c11 = 3.0 * rho_max / (params.N * derived.C0)

    growth = _cumtrapz(times, np.asarray(uinf_sq) * a)
    bound = a[0] + c10 * (times - times[0]) + c11 * growth
    scale = max(a.max(), 1.0)
    slack = 1e-9 * scale + 1e-12
    gaps = bound + slack - a
    # the first record satisfies the bound as an identity; report the margin
    # where the inequality actually has content
    margin = float(gaps[1:].min()) if gaps.size > 1 else float(gaps.min())
    if gaps.min() < 0:
        margin = float(gaps.min())
    sup_alpha_bound = float((a[0] + c10 * (times[-1] - times[0])) * math.exp(c11 * _cumtrapz(times, np.asarray(uinf_sq))[-1]))
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
    times = traj.times()
    gaps = np.array([pairwise_velocity_gap_sq(s) for s in traj.states])
    total = float(_cumtrapz(times, gaps)[-1])
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
    g = traj.grid
    times = traj.times()

    du_dt = time_derivative_series(times, [s.U for s in traj.states])
    drho_dt = time_derivative_series(times, [s.rho for s in traj.states])

    sup_grad_u = 0.0
    sup_dtrho = 0.0
    sup_gradrho = 0.0
    d2_sq = []
    dt_sq = []
    uinf_sq = []
    for s, du, dr in zip(traj.states, du_dt, drho_dt):
        jump = face_gradient(s.U, g)
        sup_grad_u = max(sup_grad_u, float(np.sqrt(g.h * (jump**2).sum(axis=1)).sum()))
        sup_dtrho = max(sup_dtrho, l2_norm(dr, g))
        sup_gradrho = max(sup_gradrho, l2_norm(diff(s.rho, g), g))
        d2u = _second_derivative(s.U, g.h)
        d2_sq.append(integrate((d2u**2).sum(axis=0), g))
        dt_sq.append(integrate((du**2).sum(axis=0), g))
        uinf_sq.append([float(np.abs(u).max()) ** 2 for u in s.U])
    d2_l2q = float(np.sqrt(_cumtrapz(times, np.asarray(d2_sq))[-1]))
    dt_l2q = float(np.sqrt(_cumtrapz(times, np.asarray(dt_sq))[-1]))
    uinf_sq = np.asarray(uinf_sq)
    embed = float(
        sum(np.sqrt(_cumtrapz(times, uinf_sq[:, i])[-1]) for i in range(uinf_sq.shape[1]))
    )

    values = {
        "sup_grad_u_l2": sup_grad_u,
        "u_xx_l2_qt": d2_l2q,
        "u_t_l2_qt": dt_l2q,
        "rho_t_sup_l2": sup_dtrho,
        "rho_x_sup_l2": sup_gradrho,
        "u_l2_linf": embed,
    }
    finite = all(math.isfinite(v) for v in values.values())
    if not finite:
        raise NonFinite("derivative norm report hit non-finite values")
    return AuditResult("derivative_norms", PASS, margin=math.inf, details=values)




def empirical_constants(traj: Trajectory, params: MixtureParams) -> dict[str, float]:
    """Measured suprema of the norms the first a priori estimate controls."""
    g = traj.grid
    times = traj.times()
    sup_sqrho_u = 0.0
    sup_rho_lgam = 0.0
    grad_sq = []
    gap_sq = []
    for s in traj.states:
        if traj.frame == EULERIAN:
            sup_sqrho_u = max(
                sup_sqrho_u,
                float(sum(l2_norm(np.sqrt(s.rho) * u, g) for u in s.U)),
            )
            sup_rho_lgam = max(
                sup_rho_lgam, float(integrate(s.rho**params.gamma, g) ** (1.0 / params.gamma))
            )
        else:
            sup_sqrho_u = max(sup_sqrho_u, float(sum(l2_norm(u, g) for u in s.U)))
            sup_rho_lgam = max(
                sup_rho_lgam,
                float(integrate(s.rho ** (params.gamma - 1.0), g) ** (1.0 / params.gamma)),
            )
        grad_sq.append(velocity_gradient_sq(s))
        gap_sq.append(pairwise_velocity_gap_sq(s))
    out = {
        "sup_t_sqrt_rho_u_l2": sup_sqrho_u,
        "sup_t_rho_lgamma": sup_rho_lgam,
        "grad_u_l2_qt": float(np.sqrt(_cumtrapz(times, np.asarray(grad_sq))[-1])),
        "velocity_gap_l2_qt": float(np.sqrt(_cumtrapz(times, np.asarray(gap_sq))[-1])),
        "rho_inf": min(float(s.rho.min()) for s in traj.states),
        "rho_sup": max(float(s.rho.max()) for s in traj.states),
    }
    return out


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

