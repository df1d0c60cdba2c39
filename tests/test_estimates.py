import json
import math
import os

import numpy as np
import pytest

from mixflow import estimates as est
from mixflow import io, runner
from mixflow.cli import cli_main
from mixflow.errors import EmptyTrajectory, WrongFrame
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory, integrate
from mixflow.lagrange import euler_to_lagrange
from mixflow.model import derive_matrices, make_params
from mixflow.timestepping import SchemeConfig

from conftest import friction_power, records, smooth_state


def eul_state(grid, rho, U, t=0.0):
    return State(time=t, frame=EULERIAN, grid=grid, rho=rho, U=U)


def lag_state(grid, rho, U, t=0.0):
    return State(time=t, frame=LAGRANGIAN, grid=grid, rho=rho, U=U)


def inputs(traj):
    """What build_report hands a diagnosed trajectory's audits: the trajectory
    and its ledger columns."""
    return traj, est._ledger(traj)


class TestEnergy:
    def test_pressure_only_counts_components(self, grid64):
        # rho = 1, u = 0, K = 1, gamma = 2, N = 2: E = 2 * 1/(2-1) * 1 = 2
        p = make_params(2, 1.0, 2.0, np.eye(2) * 0.1, [[0, 1], [1, 0]], 1.0)
        s = eul_state(grid64, np.ones(grid64.n_nodes), np.zeros((2, grid64.n_nodes)))
        assert est.energy(s, p) == pytest.approx(2.0, abs=1e-14)

    def test_kinetic_trapezoid_hand_value(self):
        # 4 cells, u1 = 1 interior with pinned walls: kinetic part is
        # 0.5 * h * (0 / 2 + 1 + 1 + 1 + 0 / 2) = 0.375
        p = make_params(2, 1.0, 2.0, np.eye(2) * 0.1, [[0, 1], [1, 0]], 1.0)
        g = Grid1D(1.0, 8)
        u1 = np.ones(g.n_nodes)
        u1[[0, -1]] = 0.0
        s = eul_state(g, np.ones(g.n_nodes), np.array([u1, 0 * u1]))
        kinetic = est.energy(s, p) - 2.0
        assert kinetic == pytest.approx(0.5 * (1.0 - g.h), abs=1e-14)

    def test_kinetic_scaling(self, params2, shear_state):
        e0 = est.energy(shear_state, params2)
        pressure = params2.N * params2.K / (params2.gamma - 1) * integrate(
            shear_state.rho**params2.gamma, shear_state.grid
        )
        s2 = eul_state(shear_state.grid, shear_state.rho, 3.0 * shear_state.U)
        assert est.energy(s2, params2) - pressure == pytest.approx(
            9.0 * (e0 - pressure), rel=1e-12
        )

    def test_mass_coordinate_hand_value(self):
        # rho = 2 on (0, 2), K = 1, gamma = 2, N = 2, dx = dy / rho: the
        # internal part is 2 * int rho dy = 8 and the kinetic part
        # 0.5 * int u1^2 dy = 0.5 * h * 7 = 0.875 (u1 = 1 at 7 interior nodes)
        p = make_params(2, 1.0, 2.0, np.eye(2) * 0.1, [[0, 1], [1, 0]], 1.0)
        g = Grid1D(2.0, 8)
        u1 = np.ones(g.n_nodes)
        u1[[0, -1]] = 0.0
        s = lag_state(g, np.full(g.n_nodes, 2.0), np.array([u1, 0 * u1]))
        assert est.energy(s, p) == pytest.approx(8.875, abs=1e-14)


class TestDissipation:
    # the record's rates; the coercivity bound visc >= C0 * sum_i ||u_i'||^2
    # is exact per face because C0 is the smallest eigenvalue of M
    def test_zero_velocity(self, params2, derived2, grid64):
        s = eul_state(grid64, np.ones(grid64.n_nodes), np.zeros((2, grid64.n_nodes)))
        rec = est.make_record(s, params2, derived2)
        assert rec["dissipation_visc"] == 0.0 and rec["dissipation_fric"] == 0.0

    def test_equal_velocities_no_friction(self, params2, derived2, grid64):
        x = grid64.nodes()
        f = 0.3 * np.sin(np.pi * x)
        f[[0, -1]] = 0.0
        s = eul_state(grid64, np.ones_like(x), np.array([f, f]))
        assert est.make_record(s, params2, derived2)["dissipation_fric"] == 0.0

    def test_single_active_component_analytic(self):
        # M = [[2,1],[1,2]], u1 = sin(pi x), u2 = 0:
        # visc = 2 ||u1'||^2 with ||u1'||^2 = pi^2/2; C0 = 1
        p = make_params(2, 1.0, 1.4, [[2.0, 1.0], [1.0, 2.0]], [[0, 1], [1, 0]], 1.0)
        d = derive_matrices(p)
        g = Grid1D(1.0, 512)
        x = g.nodes()
        u1 = np.sin(np.pi * x)
        u1[[0, -1]] = 0.0
        s = eul_state(g, np.ones_like(x), np.array([u1, 0 * u1]))
        rec = est.make_record(s, p, d)
        assert rec["dissipation_visc"] == pytest.approx(2 * np.pi**2 / 2, rel=1e-4)
        assert rec["dissipation_visc"] >= d.C0 * est.velocity_gradient_sq(s) - 1e-10
        # a_12 * int (u1 - u2)^2 = int sin^2 = 1/2
        assert rec["dissipation_fric"] == pytest.approx(0.5, rel=1e-4)

    def test_coercivity_random_states(self):
        # random SPD matrices and random smooth states: the face-based forms
        # make the lower bound exact up to round-off
        rng = np.random.default_rng(42)
        g = Grid1D(1.0, 64)
        x = g.nodes()
        for _ in range(200):
            n = int(rng.integers(2, 5))
            b = rng.normal(size=(n, n))
            p = make_params(n, 1.0, 1.4, b.T @ b + 0.05 * np.eye(n), np.ones((n, n)), 1.0)
            d = derive_matrices(p)
            U = np.zeros((n, x.size))
            for i in range(n):
                for k in range(1, 4):
                    U[i] += rng.normal() * 0.2 * np.sin(k * np.pi * x)
            U[:, 0] = 0.0
            U[:, -1] = 0.0
            s = eul_state(g, 1.0 + 0.5 * rng.random() * np.sin(np.pi * x) ** 2, U)
            rec = est.make_record(s, p, d)
            assert rec["dissipation_visc"] >= d.C0 * est.velocity_gradient_sq(s) - 1e-10
            assert rec["dissipation_fric"] >= 0.0

    def test_friction_identity_exact(self, params2, shear_state):
        a = est.friction_dissipation(shear_state, params2)
        b = friction_power(shear_state, params2)
        assert abs(a - b) <= 1e-10 * max(1.0, a)


class TestWField:
    def test_constant_density(self):
        g = Grid1D(2.0, 32)
        s = lag_state(g, np.full(g.n_nodes, 1.7), np.zeros((2, g.n_nodes)))
        assert np.all(est.w_field(s) == 0.0)
        assert est.w_norm(s) == 0.0

    def test_exponential_profile_exact(self):
        # rho = e^y: ln rho is affine, face differences give exactly 1
        g = Grid1D(1.0, 32)
        s = lag_state(g, np.exp(g.nodes()), np.zeros((1, g.n_nodes)))
        assert np.allclose(est.w_field(s), 1.0, atol=1e-12)

    def test_affine_density_second_order(self):
        g = Grid1D(1.0, 128)
        y = g.nodes()
        s = lag_state(g, 1.0 + 0.5 * y, np.zeros((1, g.n_nodes)))
        w = est.w_field(s)
        centers = 0.5 * (y[1:] + y[:-1])
        exact = 0.5 / (1.0 + 0.5 * centers)
        assert np.abs(w - exact).max() <= 1e-4

    def test_wrong_frame(self, shear_state):
        with pytest.raises(WrongFrame):
            est.w_field(shear_state)

    def test_eulerian_w_norm_matches_lagrangian(self, shear_state):
        # the mapped Eulerian formula and the mass-grid formula agree to O(h^2)
        wl = est.w_norm(euler_to_lagrange(shear_state))
        we = est.w_norm(shear_state)
        assert we == pytest.approx(wl, rel=2e-3)


class TestEnergyBudget:
    def test_rest_budget_constant(self, params2, derived2, grid64):
        s = eul_state(grid64, np.ones(grid64.n_nodes), np.zeros((2, grid64.n_nodes)))
        traj = est.diagnose(runner.integrate(s, params2, derived2, SchemeConfig(), 0.2,
                                             snapshot_every=20), params2, derived2)
        r = est.audit_energy_budget(est._ledger(traj))
        assert r.verdict == est.PASS
        assert r.details["max_excess"] == pytest.approx(0.0, abs=1e-13)

    def test_decaying_run_passes(self, params2, derived2, shear_state):
        traj = est.diagnose(runner.integrate(shear_state, params2, derived2, SchemeConfig(), 0.3,
                                             snapshot_every=10), params2, derived2)
        r = est.audit_energy_budget(est._ledger(traj))
        assert r.verdict == est.PASS
        assert r.margin > 0

    def test_injected_energy_fails(self, params2, derived2, shear_state):
        traj = est.diagnose(runner.integrate(shear_state, params2, derived2, SchemeConfig(), 0.3,
                                             snapshot_every=10), params2, derived2)
        traj.diagnostics["energy"][-1] *= 1.01  # corrupt the ledger
        r = est.audit_energy_budget(est._ledger(traj))
        assert r.verdict == est.FAIL

    def test_empty_trajectory(self, grid64):
        n = grid64.n_nodes
        with pytest.raises(EmptyTrajectory):
            Trajectory(EULERIAN, grid64, np.empty(0), np.empty((0, n)), np.empty((0, 2, n)))


class TestDensityBounds:
    def test_constant_equals_mass(self, params2, derived2, grid64):
        tr = Trajectory.stack([eul_state(grid64, np.full(grid64.n_nodes, 1.3),
                                         np.zeros((2, grid64.n_nodes)))])
        r = est.audit_density_bounds(est._ledger(est.diagnose(tr, params2, derived2)), 1.3)
        assert r.verdict == est.PASS

    def test_bracket_violation_detected(self, params2, derived2, grid64):
        tr = Trajectory.stack([eul_state(grid64, np.full(grid64.n_nodes, 1.3),
                                         np.zeros((2, grid64.n_nodes)))])
        led = est._ledger(est.diagnose(tr, params2, derived2))
        r = est.audit_density_bounds(led, 2.0)  # d above sup(rho): corrupted
        assert r.verdict == est.FAIL


class TestWBalanceAndGronwall:
    def _lag_run(self, params2, derived2, n=48, t_end=0.2):
        s = smooth_state(Grid1D(1.0, n))
        sl = euler_to_lagrange(s)
        return est.diagnose(runner.integrate(
            sl, params2, derived2,
            SchemeConfig(time_integrator="semi-implicit-viscosity", cfl=0.3),
            t_end, snapshot_every=2,
        ), params2, derived2)

    def test_rest_residual_zero(self, params2, derived2):
        g = Grid1D(1.5, 32)
        sl = lag_state(g, np.full(g.n_nodes, 1.5), np.zeros((2, g.n_nodes)))
        traj = est.diagnose(runner.integrate(sl, params2, derived2, SchemeConfig(), 0.05,
                                             snapshot_every=2), params2, derived2)
        r = est.audit_w_balance(traj, params2, derived2)
        assert r.details["max_residual"] <= 1e-13

    def test_uniform_density_equal_velocity_zero(self, derived2):
        # w = 0 annihilates both sides even with moving fluid
        p = make_params(2, 1.0, 1.4, [[0.1, 0.0], [0.0, 0.1]], [[0, 2], [2, 0]], 1.0)
        d = derive_matrices(p)
        g = Grid1D(1.0, 32)
        y = g.nodes()
        f = 0.05 * np.sin(np.pi * y)
        f[[0, -1]] = 0.0
        tr = Trajectory.stack([
            lag_state(g, np.ones(g.n_nodes), np.array([f, f]) * (1 + 0.1 * k), t=t)
            for k, t in enumerate((0.0, 0.01, 0.02))
        ])
        r = est.audit_w_balance(est.diagnose(tr, p, d), p, d)
        assert r.details["max_residual"] <= 1e-13

    def test_wbalance_residual_refines(self, params2, derived2):
        res = []
        for n in (32, 64):
            traj = self._lag_run(params2, derived2, n=n)
            r = est.audit_w_balance(traj, params2, derived2)
            settle = [abs(x) for t, x in zip(r.details["times"], r.details["residuals"])
                      if t >= 0.05]
            res.append(max(settle))
        assert math.log2(res[0] / res[1]) >= 1.0

    def test_gronwall_passes_generic(self, params2, derived2):
        traj = self._lag_run(params2, derived2)
        r = est.audit_gronwall_chain(traj, params2, derived2)
        assert r.verdict == est.PASS
        assert r.margin > 0

    def test_gronwall_rest_passes(self, params2, derived2):
        g = Grid1D(1.5, 32)
        sl = lag_state(g, np.full(g.n_nodes, 1.5), np.zeros((2, g.n_nodes)))
        traj = est.diagnose(runner.integrate(sl, params2, derived2, SchemeConfig(), 0.05,
                                             snapshot_every=2), params2, derived2)
        r = est.audit_gronwall_chain(traj, params2, derived2)
        assert r.verdict == est.PASS

    def test_pointwise_bounds_hold(self, params2, derived2):
        traj = self._lag_run(params2, derived2)
        r = est.audit_pointwise_bounds(*inputs(traj))
        assert r.verdict == est.PASS


class TestAlpha:
    def test_rest_alpha_zero(self, params2, derived2, grid64):
        s = eul_state(grid64, np.ones(grid64.n_nodes), np.zeros((2, grid64.n_nodes)))
        traj = est.diagnose(runner.integrate(s, params2, derived2, SchemeConfig(), 0.1,
                                             snapshot_every=10), params2, derived2)
        a = traj.diagnostics["alpha"]
        assert np.abs(a).max() <= 1e-20

    def test_frozen_trajectory_hand_value(self):
        # frozen fields on a 9-node grid (h = 1/8), rho = 1, u2 = 0,
        # u1 = [0, 0, 0, 1/4, 1/2, 1/4, 0, 0, 0], M = [[2,1],[1,2]]:
        #   face slopes of u1: [0, 0, 2, 2, -2, -2, 0, 0],
        #     gradient form = mu_11 * h * sum(slope^2) = 2 * (16/8) = 4
        #   second differences (one-sided 2-5-4-1 at the walls):
        #     u1'' = [-16, 0, 16, 0, -32, 0, 16, 0, -16]
        #   integrand (2 u1'')^2 + (1 u1'')^2 = 5 u1''^2, trapezoid:
        #     (1/8)(128 + 256 + 1024 + 256 + 128) * 5 = 224 * 5 = 1120
        # alpha(t) = 4 + 1120 t, exactly linear in t
        p = make_params(2, 1.0, 1.4, [[2.0, 1.0], [1.0, 2.0]], [[0, 1], [1, 0]], 1.0)
        d = derive_matrices(p)
        g = Grid1D(1.0, 8)

        u1 = np.array([0.0, 0.0, 0.0, 0.25, 0.5, 0.25, 0.0, 0.0, 0.0])
        U = np.array([u1, 0 * u1])
        times = (0.0, 0.05, 0.1, 0.15)
        tr = Trajectory.stack([eul_state(g, np.ones(9), U, t=t) for t in times])
        a = est.diagnose(tr, p, d).diagnostics["alpha"]
        assert np.allclose(a, 4.0 + 1120.0 * np.array(times), atol=1e-10)

    def test_alpha_growth_audit_passes(self, params2, derived2, shear_state):
        traj = est.diagnose(runner.integrate(shear_state, params2, derived2, SchemeConfig(), 0.3,
                                             snapshot_every=10), params2, derived2)
        r = est.audit_alpha_growth(*inputs(traj), params2, derived2)
        assert r.verdict == est.PASS
        assert math.isfinite(r.details["sup_alpha"])
        assert r.details["gronwall_ceiling"] >= r.details["sup_alpha"] * 0.99


class TestDerivativeNorms:
    def test_report_finite_for_smooth_run(self, params2, derived2, shear_state):
        traj = est.diagnose(runner.integrate(shear_state, params2, derived2, SchemeConfig(), 0.2,
                                             snapshot_every=10), params2, derived2)
        r = est.derivative_norm_report(*inputs(traj))
        assert r.verdict == est.PASS
        for v in r.details.values():
            assert math.isfinite(v)

    def test_resolution_stability(self, params2, derived2):
        values = []
        for n in (128, 256):
            traj = est.diagnose(runner.integrate(smooth_state(Grid1D(1.0, n)), params2, derived2,
                                                 SchemeConfig(time_integrator="semi-implicit-viscosity",
                                                              cfl=0.3),
                                                 0.2, snapshot_every=4), params2, derived2)
            values.append(est.derivative_norm_report(*inputs(traj)).details)
        for key in ("sup_grad_u_l2", "rho_x_sup_l2", "u_l2_linf"):
            assert values[0][key] == pytest.approx(values[1][key], rel=0.05)


class TestRecordsAndReport:
    def test_attach_time_fields(self, params2, derived2, shear_state):
        traj = est.diagnose(runner.integrate(shear_state, params2, derived2, SchemeConfig(), 0.1,
                                             snapshot_every=10), params2, derived2)
        led = traj.diagnostics  # time fields attached by diagnose
        assert len(led["dt_rho_l2"]) == len(traj) and np.isfinite(led["dt_rho_l2"]).all()
        assert len(led["alpha"]) == len(traj)
        assert "identity_residual" not in led  # Eulerian

    def test_build_report_skips_missing_frames(self, params2, derived2, shear_state):
        traj = est.diagnose(runner.integrate(shear_state, params2, derived2, SchemeConfig(), 0.1,
                                             snapshot_every=10), params2, derived2)
        rep = est.build_report(params2, derived2, eulerian=traj)
        assert rep.results["w_balance"].verdict == est.SKIP
        assert rep.results["energy_budget"].verdict == est.PASS
        assert rep.passed
        txt = rep.render_text()
        assert "energy_budget" in txt and "PASS" in txt

    def test_build_report_skip_reasons(self, params2, derived2, shear_state):
        scheme = SchemeConfig()
        traj_e = est.diagnose(runner.integrate(shear_state, params2, derived2, scheme, 0.1,
                                               snapshot_every=10), params2, derived2)
        traj_l = est.diagnose(runner.integrate(euler_to_lagrange(shear_state), params2, derived2,
                                               scheme, 0.1, snapshot_every=10), params2, derived2)

        def reasons(**trajs):
            rep = est.build_report(params2, derived2, **trajs)
            return {k: r.details["reason"] for k, r in rep.results.items() if r.verdict == est.SKIP}

        assert reasons(eulerian=traj_e) == {
            "w_balance": "needs a Lagrangian trajectory with >= 3 records",
            "gronwall": "needs a Lagrangian trajectory with >= 3 records",
            "pointwise_bounds": "no Lagrangian trajectory",
        }
        assert reasons(lagrangian=traj_l) == {
            "energy_budget": "no Eulerian trajectory",
            "alpha_growth": "needs an Eulerian trajectory with >= 3 records",
            "derivative_norms": "needs an Eulerian trajectory with >= 2 records",
        }
        two = Trajectory.stack(records(traj_e)[:2])
        assert reasons(eulerian=est.diagnose(two, params2, derived2)) == {
            "w_balance": "needs a Lagrangian trajectory with >= 3 records",
            "gronwall": "needs a Lagrangian trajectory with >= 3 records",
            "alpha_growth": "needs an Eulerian trajectory with >= 3 records",
            "pointwise_bounds": "no Lagrangian trajectory",
        }

    def test_density_bounds_reports_a_lagrangian_failure(self, params2, derived2, grid64):
        def single(frame, rho):
            tr = Trajectory.stack([State(time=0.0, frame=frame, grid=grid64,
                                         rho=rho, U=np.zeros((2, grid64.n_nodes)))])
            return est.diagnose(tr, params2, derived2)

        def bounds(lag_rho):
            rep = est.build_report(params2, derived2,
                                   eulerian=single(EULERIAN, np.ones(grid64.n_nodes)),
                                   lagrangian=single(LAGRANGIAN, lag_rho),
                                   audits=("density_bounds",))
            return rep.results["density_bounds"]

        # both pass: the Eulerian result (rho_inf = 1) is the reported one
        passing = bounds(np.linspace(0.5, 1.5, grid64.n_nodes))
        assert passing.verdict == est.PASS and passing.details["rho_inf"] == 1.0
        # min rho = 2 > d = 1 in the mass coordinate: the Lagrangian failure wins
        failing = bounds(np.full(grid64.n_nodes, 2.0))
        assert failing.verdict == est.FAIL and failing.details["rho_inf"] == 2.0

    def test_report_dict_shape(self, params2, derived2, shear_state):
        traj = est.diagnose(runner.integrate(shear_state, params2, derived2, SchemeConfig(), 0.1,
                                             snapshot_every=10), params2, derived2)
        rep = est.build_report(params2, derived2, eulerian=traj)
        dd = rep.to_dict()
        assert set(dd) == {"passed", "audits", "empirical_constants"}
        assert "gronwall" in dd["audits"]

    def test_audits_are_deterministic(self, params2, derived2, shear_state):
        traj = est.diagnose(runner.integrate(shear_state, params2, derived2, SchemeConfig(), 0.1,
                                             snapshot_every=10), params2, derived2)
        r1 = est.audit_energy_budget(est._ledger(traj))
        r2 = est.audit_energy_budget(est._ledger(traj))
        assert r1.margin == r2.margin and r1.details == r2.details


def _overflowing(frame, params, derived, speed=1e160, rho=1.0, n=32):
    """A diagnosed three-record trajectory on n cells with interior velocities
    of +-``speed`` (the components opposite) and uniform density ``rho``."""
    grid = Grid1D(1.0, n)
    U = np.zeros((2, grid.n_nodes))
    U[0, 1:-1], U[1, 1:-1] = speed, -speed
    traj = Trajectory(frame, grid, np.array([0.0, 0.01, 0.02]),
                      np.full((3, grid.n_nodes), rho), np.stack([U] * 3))
    with np.errstate(all="ignore"):
        return est.diagnose(traj, params, derived)


class TestNonFinite:
    """Every audit goes through one verdict rule: a non-finite value FAILs
    it with margin -inf, never a NaN margin and never a PASS."""

    def test_overflowing_energy_fails_with_margin_minus_inf(self, params2, derived2):
        # e0 overflows to inf, so E(t) + dissipated - E(0) is inf - inf
        traj = _overflowing(EULERIAN, params2, derived2)
        with np.errstate(all="ignore"):
            r = est.build_report(params2, derived2, eulerian=traj).results["energy_budget"]
        assert r.verdict == est.FAIL and r.margin == -math.inf
        assert r.details["max_excess"] == math.inf

    def test_overflowing_mass_fails_density_bounds(self, params2, derived2):
        # rho = 1e308 makes the total mass d overflow; the bracket then proves nothing
        traj = _overflowing(EULERIAN, params2, derived2, speed=0.0, rho=1e308)
        with np.errstate(all="ignore"):
            r = est.build_report(params2, derived2, eulerian=traj).results["density_bounds"]
        assert r.details["d"] == math.inf
        assert r.verdict == est.FAIL and r.margin == -math.inf

    @pytest.mark.parametrize("name, frame, column", [
        ("energy_budget", EULERIAN, "energy"),
        ("density_bounds", EULERIAN, "rho_min"),
        ("w_balance", LAGRANGIAN, None),
        ("gronwall", LAGRANGIAN, None),
        ("alpha_growth", EULERIAN, "alpha"),
        ("pointwise_bounds", LAGRANGIAN, "w_norm"),
        ("derivative_norms", EULERIAN, "dt_rho_l2"),
        ("velocity_damping", EULERIAN, None),
    ])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_each_audit_fails_a_non_finite_value(self, params2, derived2, name, frame, column,
                                                 value):
        # a ledger cell of the value, or, for the audits that read only the
        # stack, velocities of +-1e308 whose differences overflow
        traj = _overflowing(frame, params2, derived2, speed=0.1 if column else 1e308)
        led = {k: v.copy() for k, v in traj.diagnostics.items()}
        if column:
            led[column][1] = value
        with np.errstate(all="ignore"):
            r = est._AUDITS[name][2](traj, led, params2, derived2, 1.0)
        assert r.name == name
        assert r.verdict == est.FAIL and r.margin == -math.inf

    def test_check_of_a_stored_overflowing_trajectory(self, params2, derived2, tmp_path, capsys):
        out = str(tmp_path / "traj")
        io.save_trajectory(out, _overflowing(EULERIAN, params2, derived2), params2,
                           SchemeConfig())
        assert cli_main(["check", "--traj", out]) == 1
        assert "energy_budget        FAIL     -inf" in capsys.readouterr().out
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh, parse_constant=lambda c: pytest.fail(f"{c} in report.json")
                               if c == "NaN" else float(c))
        audits = report["audits"]
        assert audits["energy_budget"]["margin"] == -math.inf
        # alpha's viscous quadrature sums inf and -inf: a NaN detail is written as null
        assert audits["alpha_growth"]["details"]["sup_alpha"] is None
