"""Acceptance suite: one test per criterion, one printed verdict line each.

The corpus scenarios run once per session at their configured resolution
(n_cells = 256, explicit RK2, t_end = 1) in both coordinate frames; most
criteria audit those trajectories.  Convergence criteria run their own
refinement ladders with the semi-implicit integrator so dt tracks h.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from mixflow import estimates as est
from mixflow import field, io, lagrange
from mixflow.cli import cli_main
from mixflow.config import make_initial
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D, State, l2_norm
from mixflow.mms import mms_study
from mixflow.model import derive_matrices, make_params
from mixflow.runner import execute, integrate
from mixflow.timestepping import CENTRAL, UPWIND, SchemeConfig

from conftest import CORPUS, friction_power, records, scenario_config
from reference import single_fluid_reference

SEMI = "semi-implicit-viscosity"


def verdict(tag: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# session fixtures


@pytest.fixture(scope="session")
def corpus_results():
    """All six scenarios at their configured settings, with frame wall times."""
    out = {}
    for name in CORPUS:
        rc = scenario_config(name)
        marks = {}

        def progress(msg, _marks=marks):
            _marks[len(_marks)] = (msg, time.perf_counter())

        t0 = time.perf_counter()
        result = execute(rc, progress=progress)
        t1 = time.perf_counter()
        stamps = [t for _, t in marks.values()] + [t1]
        walls = {
            "eulerian": stamps[1] - stamps[0],
            "lagrangian": t1 - stamps[1] if len(marks) > 1 else 0.0,
            "total": t1 - t0,
        }
        out[name] = (result, walls)
    return out


@pytest.fixture(scope="session")
def random_state_corpus():
    """10^4 random smooth states across random SPD viscosity matrices."""
    rng = np.random.default_rng(2024)
    grid = Grid1D(1.0, 48)
    x = grid.nodes()
    corpus = []
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        b = rng.normal(size=(n, n))
        p = make_params(n, 1.0, 1.4, b.T @ b + 0.05 * np.eye(n),
                        np.ones((n, n)) + np.eye(n), 1.0)
        d = derive_matrices(p)
        U = np.zeros((n, x.size))
        for i in range(n):
            for k in range(1, 4):
                U[i] += rng.normal() * 0.3 * np.sin(k * np.pi * x)
        U[:, 0] = 0.0
        U[:, -1] = 0.0
        rho = 0.5 + rng.random() + 0.4 * rng.random() * np.sin(np.pi * x) ** 2
        s = State(time=0.0, frame=EULERIAN, grid=grid, rho=rho, U=U)
        corpus.append((s, p, d))
    return corpus


@pytest.fixture(scope="session")
def shear_residual_runs():
    """Lagrangian shear twins on a (h, dt) refinement ladder for C9/C10."""
    rc = scenario_config("shear")
    derived = derive_matrices(rc.params)
    scheme = SchemeConfig(time_integrator=SEMI, cfl=0.3, advection=UPWIND)
    runs = {}
    for n in (64, 128, 256):
        init = make_initial(rc.initial, Grid1D(1.0, n))
        runs[n] = est.diagnose(integrate(
            lagrange.euler_to_lagrange(init), rc.params, derived, scheme,
            t_end=0.3, snapshot_every=2,
        ), rc.params)
    return rc.params, derived, runs


# ---------------------------------------------------------------------------
# criteria


def test_c01_energy_inequality(corpus_results):
    details = []
    ok = True
    for name, (result, walls) in corpus_results.items():
        audit = result.report.results["energy_budget"]
        ok &= audit.verdict == est.PASS
        ok &= walls["eulerian"] <= 30.0
        details.append(f"{name}: excess {audit.details['max_excess']:.2e}, "
                       f"{walls['eulerian']:.1f}s")
    verdict("C01 energy-inequality", ok, "; ".join(details))


def test_c02_mass_conservation(corpus_results):
    worst = 0.0
    for name, (result, _) in corpus_results.items():
        traj = result.eulerian
        d0 = field.integrate(traj.rho[0], traj.grid)
        drift = max(abs(field.integrate(s.rho, s.grid) - d0) for s in records(traj)) / d0
        worst = max(worst, drift)
    verdict("C02 mass-conservation", worst <= 1e-10, f"max relative drift {worst:.2e}")


def test_c03_density_bounds(corpus_results):
    ok = True
    details = []
    for name, (result, _) in corpus_results.items():
        d0 = field.integrate(result.eulerian.rho[0], result.eulerian.grid)
        for traj in (result.eulerian, result.lagrangian):
            if traj is None:
                continue
            for s in records(traj):
                if not (s.rho.min() > 0.0 and s.rho.min() <= d0 + 1e-8 * d0
                        and d0 <= s.rho.max() + 1e-8 * d0):
                    ok = False
                    details.append(f"{name}/{traj.frame} violates the bracket")
                    break
    verdict("C03 density-bounds", ok, "; ".join(details) or "bracket holds at every record")


def test_c04_viscous_coercivity(random_state_corpus):
    t0 = time.perf_counter()
    worst = math.inf
    for s, p, d in random_state_corpus:
        g = s.grid
        jump = (s.U[:, 1:] - s.U[:, :-1]) / g.h
        visc = float(np.einsum("if,jf,ij->", jump, jump, p.M) * g.h)
        grad_sq = float((jump**2).sum() * g.h)
        worst = min(worst, visc - d.C0 * grad_sq)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed <= 10.0
    verdict("C04 viscous-coercivity", ok,
            f"min(visc - C0*grad^2) = {worst:.2e} over 10^4 states, {elapsed:.1f}s")


def test_c05_friction_identity(random_state_corpus):
    worst = 0.0
    for s, p, d in random_state_corpus:
        a = est.friction_dissipation(s, p)
        b = friction_power(s, p)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    verdict("C05 friction-identity", worst <= 1e-10, f"max relative gap {worst:.2e}")


def test_c06_reduction_oracle(corpus_results):
    rc = scenario_config("equal_velocity")
    result, _ = corpus_results["equal_velocity"]
    traj_mix = result.eulerian
    init = result.eulerian.state(0)
    mu = float(rc.params.M[0, 0])
    traj_one = single_fluid_reference(
        np.asarray(init.rho), np.asarray(init.U[0]), K=rc.params.K,
        gamma=rc.params.gamma, mu=mu, scheme=rc.scheme,
        grid=init.grid, t_end=rc.t_end, T_final=rc.params.T_final,
        snapshot_every=rc.snapshot_every,
    )
    worst = 0.0
    assert len(traj_mix) == len(traj_one)
    for sm, so in zip(records(traj_mix), records(traj_one)):
        worst = max(worst, np.abs(sm.rho - so.rho).max())
        for i in range(rc.params.N):
            worst = max(worst, np.abs(sm.U[i] - so.U[0]).max())
    verdict("C06 reduction-oracle", worst <= 1e-8, f"max field distance {worst:.2e}")


def test_c07_dual_formulation_agreement():
    # central fluxes: the upwind face diffusion is an O(h) term only the
    # Eulerian form carries, which would cap the mutual convergence at
    # exactly first order; with central operators both formulations are
    # second-order consistent and the comparison measures that cleanly
    rc = scenario_config("shear")
    derived = derive_matrices(rc.params)
    scheme = SchemeConfig(time_integrator=SEMI, cfl=0.3, advection=CENTRAL)
    dist = {}
    for n in (128, 256, 512):
        init = make_initial(rc.initial, Grid1D(1.0, n))
        traj_e = integrate(init, rc.params, derived, scheme, 0.5, snapshot_every=10**9)
        from_e = lagrange.euler_to_lagrange(traj_e.final)
        traj_l = integrate(
            lagrange.euler_to_lagrange(init), rc.params, derived, scheme, 0.5,
            snapshot_every=10**9,
        )
        sl = traj_l.final
        err = l2_norm(from_e.rho - sl.rho, sl.grid) ** 2
        for i in range(rc.params.N):
            err += l2_norm(from_e.U[i] - sl.U[i], sl.grid) ** 2
        dist[n] = math.sqrt(err)
    o1 = math.log2(dist[128] / dist[256])
    o2 = math.log2(dist[256] / dist[512])
    ok = min(o1, o2) >= 1.0
    verdict("C07 dual-formulation", ok,
            f"distances {dist[128]:.2e}/{dist[256]:.2e}/{dist[512]:.2e}, "
            f"orders {o1:.2f}, {o2:.2f}")


def test_c08_mms_convergence():
    details = []
    ok = True
    for frame in (EULERIAN, LAGRANGIAN):
        for advection in (CENTRAL, UPWIND):
            table = mms_study(frame=frame, advection=advection,
                              levels=(32, 64, 128), t_end=0.25)
            ok &= table.passed
            details.append(f"{frame[:4]}/{advection.split('-')[0]}: "
                           f"{table.slope:.2f} (>= {table.threshold})")
    verdict("C08 mms-convergence", ok, "; ".join(details))


def test_c09_identity_residual(shear_residual_runs):
    params, derived, runs = shear_residual_runs
    res = {}
    for n, traj in runs.items():
        led = traj.diagnostics
        late = led["identity_residual"][1:-1][led["time"][1:-1] >= 0.25 * 0.3]
        res[n] = max(late)
    o1 = math.log2(res[64] / res[128])
    o2 = math.log2(res[128] / res[256])
    ok = min(o1, o2) >= 1.0
    verdict("C09 identity-residual", ok,
            f"residuals {res[64]:.2e}/{res[128]:.2e}/{res[256]:.2e}, "
            f"orders {o1:.2f}, {o2:.2f}")


def test_c10_w_balance_residual(shear_residual_runs):
    params, derived, runs = shear_residual_runs
    res = {}
    for n, traj in runs.items():
        audit = est.audit_w_balance(traj, params, derived)
        late = [abs(r) for t, r in zip(audit.details["times"], audit.details["residuals"])
                if t >= 0.25 * 0.3]
        res[n] = max(late)
    o1 = math.log2(res[64] / res[128])
    o2 = math.log2(res[128] / res[256])
    ok = min(o1, o2) >= 1.0
    verdict("C10 w-balance-residual", ok,
            f"residuals {res[64]:.2e}/{res[128]:.2e}/{res[256]:.2e}, "
            f"orders {o1:.2f}, {o2:.2f}")


def test_c11_pointwise_bounds(corpus_results):
    ok = True
    worst = -math.inf
    for name, (result, _) in corpus_results.items():
        audit = result.report.results["pointwise_bounds"]
        ok &= audit.verdict == est.PASS
        worst = max(worst, audit.details["max_holder_defect"],
                    audit.details["max_log_defect"])
    verdict("C11 pointwise-bounds", ok, f"max defect {worst:.2e} (tol 1e-8)")


def test_c12_gronwall_and_alpha(corpus_results):
    ok = True
    details = []
    for name, (result, _) in corpus_results.items():
        for audit_name in ("gronwall", "alpha_growth"):
            audit = result.report.results[audit_name]
            if audit.verdict != est.PASS or not (audit.margin > 0):
                ok = False
                details.append(f"{name}/{audit_name}: {audit.verdict}")

    # resolution stability of the reported constants between 256 and 512
    rc = scenario_config("shear")
    derived = derive_matrices(rc.params)
    scheme = SchemeConfig(time_integrator=SEMI, cfl=0.3, advection=UPWIND)
    consts = {}
    for n in (256, 512):
        init = make_initial(rc.initial, Grid1D(1.0, n))
        traj_e = est.diagnose(integrate(init, rc.params, derived, scheme, 1.0,
                                        snapshot_every=8), rc.params)
        traj_l = est.diagnose(integrate(
            lagrange.euler_to_lagrange(init), rc.params, derived, scheme, 1.0,
            snapshot_every=8,
        ), rc.params)
        gron = est.audit_gronwall_chain(traj_l, rc.params, derived)
        alph = est.audit_alpha_growth(traj_e, est._ledger(traj_e),
                                      rc.params, derived)
        consts[n] = {
            "c4": gron.details["c4"],
            "c5": gron.details["c5"],
            "sup_alpha": alph.details["sup_alpha"],
            "c10": alph.details["c10"],
            "c11": alph.details["c11"],
        }
    drifts = {
        k: abs(consts[256][k] - consts[512][k]) / max(abs(consts[512][k]), 1e-300)
        for k in consts[256]
    }
    stable = all(v <= 0.10 for v in drifts.values())
    finite = all(math.isfinite(v) for v in consts[256].values())
    ok = ok and stable and finite
    detail = "; ".join(details) if details else \
        "constants drift " + ", ".join(f"{k}={v:.1%}" for k, v in drifts.items())
    verdict("C12 gronwall-alpha", ok, detail)


def test_c13_long_time_relaxation():
    rc = scenario_config("gaussian_bump")
    rc = replace(
        rc, n_cells=128, t_end=50.0, frame=EULERIAN, snapshot_every=200,
        scheme=SchemeConfig(time_integrator=SEMI, cfl=0.3, advection=UPWIND),
        audit_set=("energy_budget", "density_bounds"),
    )
    result = execute(rc)
    final = result.eulerian.final
    g = final.grid
    u_norm = max(l2_norm(final.U[i], g) for i in range(rc.params.N))
    rho_gap = l2_norm(final.rho - field.integrate(result.eulerian.rho[0], g), g)
    ok = u_norm < 1e-3 and rho_gap < 1e-2
    verdict("C13 long-time-relaxation", ok,
            f"max ||u||_2 = {u_norm:.2e}, ||rho - d||_2 = {rho_gap:.2e}")


def test_c14_cli_end_to_end(tmp_path):
    from importlib import resources

    with resources.as_file(resources.files("mixflow.data").joinpath("shear.ini")) as cfg:
        out = str(tmp_path / "cli_out")
        code_run = cli_main(["run", "--config", str(cfg), "--out-dir", out,
                             "--n-cells", "96", "--t-end", "0.3"])
        code_check = cli_main(["check", "--traj", out])

        # tamper with the stored energy column and re-check
        diag = os.path.join(out, "eulerian", "diag.csv")
        lines = open(diag).read().splitlines()
        col = lines[0].split(",").index("energy")
        cells = lines[-1].split(",")
        cells[col] = repr(float(cells[col]) * 1.01)
        lines[-1] = ",".join(cells)
        open(diag, "w").write("\n".join(lines) + "\n")
        code_tampered = cli_main(["check", "--traj", out])
    ok = code_run == 0 and code_check == 0 and code_tampered == 1
    verdict("C14 cli-end-to-end", ok,
            f"run {code_run}, check {code_check}, tampered check {code_tampered}")
