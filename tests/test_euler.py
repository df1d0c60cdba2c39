import math

import numpy as np
import pytest

from mixflow import estimates, runner
from mixflow.errors import DensityFloor, ValidationError
from mixflow.euler import EulerKernel
from mixflow.field import EULERIAN, Grid1D, State, integrate, l2_norm
from mixflow.model import derive_matrices, make_params
from mixflow.timestepping import CENTRAL, SEMI_IMPLICIT, UPWIND, SchemeConfig, step_once

from conftest import euler_tendencies, records, stack


def rest_state(grid, n_comp=2, rho0=1.0):
    return State(
        time=0.0, frame=EULERIAN, grid=grid,
        rho=np.full(grid.n_nodes, rho0), U=np.zeros((n_comp, grid.n_nodes)),
    )


def stable_dt(state, params, derived, scheme):
    kern = EulerKernel(state.grid, params, derived, scheme)
    explicit = scheme.time_integrator != SEMI_IMPLICIT
    return kern.stable_dt(np.asarray(state.rho), np.asarray(state.U), explicit) * scheme.cfl


def step(state, params, derived, scheme, dt=None):
    """One step of ``scheme`` (the stable step by default) as (dt, rho, U)."""
    kern = EulerKernel(state.grid, params, derived, scheme)
    if dt is None:
        dt = stable_dt(state, params, derived, scheme)
    Y, _ = step_once(kern, state.time, stack(state.rho, state.U), dt)
    return dt, Y[0], Y[1:]


class TestSchemeConfig:
    def test_defaults(self):
        c = SchemeConfig()
        assert c.time_integrator == "explicit-RK2"
        assert c.advection == UPWIND
        assert c.cfl == 0.4

    @pytest.mark.parametrize("cfl", [0.0, -0.1, 1.5])
    def test_cfl_range(self, cfl):
        with pytest.raises(ValidationError):
            SchemeConfig(cfl=cfl)

    def test_bad_enums(self):
        with pytest.raises(ValidationError):
            SchemeConfig(time_integrator="euler-forward")
        with pytest.raises(ValidationError):
            SchemeConfig(advection="weno5")


class TestContinuity:
    def test_rest_is_steady(self, params2, derived2, grid64):
        assert np.all(euler_tendencies(rest_state(grid64), params2, derived2)[0] == 0.0)

    def test_analytic_divergence(self, params2, derived2):
        # rho = 1, every u_i = sin(pi x) -> v = sin(pi x), flux = sin(pi x),
        # tendency = -pi cos(pi x)
        g = Grid1D(1.0, 256)
        x = g.nodes()
        u = np.sin(np.pi * x)
        u[[0, -1]] = 0.0
        s = State(time=0.0, frame=EULERIAN, grid=g, rho=np.ones_like(x), U=np.array([u, u]))
        tend, _ = euler_tendencies(s, params2, derived2, SchemeConfig(advection=CENTRAL))
        assert np.abs(tend - (-np.pi * np.cos(np.pi * x))).max() < 2e-4

    @pytest.mark.parametrize("advection", [UPWIND, CENTRAL])
    def test_tendency_integrates_to_zero(self, params2, derived2, shear_state, advection):
        tend, _ = euler_tendencies(shear_state, params2, derived2, SchemeConfig(advection=advection))
        assert abs(integrate(tend, shear_state.grid)) <= 1e-12 * l2_norm(shear_state.rho, shear_state.grid)


class TestMomentum:
    def test_constant_rest_steady(self, params2, derived2, grid64):
        _, dU = euler_tendencies(rest_state(grid64), params2, derived2)
        assert np.all(dU == 0.0)

    def test_equal_velocities_kill_friction(self, derived2, grid64):
        # friction uses velocity differences only; make viscosity scalar so
        # the tendencies of both components coincide bitwise
        p = make_params(2, 1.0, 1.4, [[0.1, 0.0], [0.0, 0.1]], [[0.0, 7.0], [7.0, 0.0]], 2.0)
        d = derive_matrices(p)
        x = grid64.nodes()
        f = 0.1 * np.sin(np.pi * x)
        f[[0, -1]] = 0.0
        s = State(time=0.0, frame=EULERIAN, grid=grid64,
                  rho=1.0 + 0.2 * np.sin(2 * np.pi * x) ** 2, U=np.array([f, f]))
        _, dU = euler_tendencies(s, p, d)
        assert np.array_equal(dU[0], dU[1])

    def test_boundary_rows_zero(self, params2, derived2, shear_state):
        _, dU = euler_tendencies(shear_state, params2, derived2)
        assert np.all(dU[:, 0] == 0.0) and np.all(dU[:, -1] == 0.0)

    def test_density_floor_guard(self, params2, derived2, grid64):
        s = rest_state(grid64)
        kern = EulerKernel(grid64, params2, derived2, SchemeConfig())
        rho = np.asarray(s.rho).copy()
        rho[5] = 1e-13
        with pytest.raises(DensityFloor):
            kern.tendencies(0.0, rho, np.asarray(s.U))


class TestStableDt:
    def test_rest_state_formula(self, grid64):
        # at rest: dt = cfl * min(h/c, h^2 rho / (2 lam_max)), c = sqrt(K gamma)
        p = make_params(2, 2.0, 1.4, [[0.3, 0.0], [0.0, 0.2]], [[0, 1], [1, 0]], 1.0)
        d = derive_matrices(p)
        s = rest_state(grid64)
        c = math.sqrt(2.0 * 1.4)
        h = grid64.h
        expect = 0.4 * min(h / c, h * h * 1.0 / (2 * 0.3))
        assert stable_dt(s, p, d, SchemeConfig(cfl=0.4)) == pytest.approx(expect, rel=1e-12)

    def test_viscous_scaling(self, params2, derived2):
        # in the viscosity-limited regime, doubling resolution quarters dt
        s1 = rest_state(Grid1D(1.0, 64))
        s2 = rest_state(Grid1D(1.0, 128))
        dt1 = stable_dt(s1, params2, derived2, SchemeConfig())
        dt2 = stable_dt(s2, params2, derived2, SchemeConfig())
        assert dt1 / dt2 == pytest.approx(4.0, rel=1e-6)

    def test_semi_implicit_skips_viscous_limit(self, params2, derived2, grid64):
        s = rest_state(grid64)
        dt_exp = stable_dt(s, params2, derived2, SchemeConfig())
        dt_imp = stable_dt(s, params2, derived2, SchemeConfig(time_integrator="semi-implicit-viscosity"))
        assert dt_imp > 5 * dt_exp


class TestStep:
    def test_rest_fixed_point(self, params2, derived2, grid64):
        s = rest_state(grid64)
        dt, rho, U = step(s, params2, derived2, SchemeConfig())
        assert dt > 0
        assert np.array_equal(rho, s.rho)
        assert np.array_equal(U, s.U)

    def test_rk2_vs_rk4_third_order_agreement(self, params2, derived2, shear_state):
        # one step from the same state: RK2 and RK4 differ at O(dt^3)
        diffs = []
        for dt in (2e-4, 1e-4):
            _, rho2, U2 = step(shear_state, params2, derived2, SchemeConfig(advection=CENTRAL), dt=dt)
            _, rho4, U4 = step(shear_state, params2, derived2,
                               SchemeConfig(time_integrator="explicit-RK4", advection=CENTRAL), dt=dt)
            diffs.append(max(np.abs(rho2 - rho4).max(), np.abs(U2 - U4).max()))
        ratio = diffs[0] / diffs[1]
        assert 6.0 <= ratio <= 10.0  # 2^3 = 8

    def test_nan_guard(self, params2, derived2, grid64):
        s = rest_state(grid64)
        kern = EulerKernel(grid64, params2, derived2, SchemeConfig())
        U = np.asarray(s.U).copy()
        U[0, 5] = np.nan
        from mixflow.errors import NonFinite

        with pytest.raises(NonFinite):
            step_once(kern, 0.0, stack(s.rho, U), 1e-5)


class TestRun:
    def test_rest_long_run_identity(self, params2, derived2, grid64):
        traj = runner.integrate(rest_state(grid64), params2, derived2, SchemeConfig(), t_end=1.0,
                                snapshot_every=200)
        assert traj.final.time == pytest.approx(1.0, abs=1e-12)
        assert np.abs(traj.final.rho - 1.0).max() <= 1e-12
        assert np.abs(traj.final.U).max() <= 1e-12

    def test_mass_conservation_and_bcs(self, params2, derived2, shear_state):
        traj = runner.integrate(shear_state, params2, derived2, SchemeConfig(), t_end=0.25, snapshot_every=25)
        m0 = integrate(traj.rho[0], traj.grid)
        for s in records(traj):
            assert abs(integrate(s.rho, s.grid) - m0) <= 1e-10 * m0
            assert np.all(s.U[:, [0, -1]] == 0.0)

    def test_equal_velocity_reduction(self, grid64):
        # identical initial velocities + scalar viscosity: components stay
        # bitwise equal, friction never activates
        p = make_params(2, 1.0, 1.4, [[0.08, 0.0], [0.0, 0.08]], [[0.0, 3.0], [3.0, 0.0]], 2.0)
        d = derive_matrices(p)
        x = grid64.nodes()
        f = 0.1 * np.sin(np.pi * x)
        f[[0, -1]] = 0.0
        s = State(time=0.0, frame=EULERIAN, grid=grid64,
                  rho=1.0 + 0.2 * np.exp(-(((x - 0.5) / 0.2) ** 2)), U=np.array([f, f]))
        traj = runner.integrate(s, p, d, SchemeConfig(), t_end=0.5, snapshot_every=100)
        for st in records(traj):
            assert np.abs(st.U[0] - st.U[1]).max() <= 1e-10

    def test_per_step_energy_decay_semi_implicit(self, params2, derived2, shear_state):
        scheme = SchemeConfig(time_integrator="semi-implicit-viscosity")
        traj = estimates.diagnose(runner.integrate(shear_state, params2, derived2, scheme, t_end=0.3,
                                                   snapshot_every=1), params2)
        e = traj.diagnostics["energy"]
        tol_step = 1e-8 * e[0]
        assert np.all(np.diff(e) <= tol_step)

    def test_self_convergence_order(self, params2, derived2):
        # Richardson triple against a fine reference; smooth data with zero
        # wall density gradient so the first-order wall closure stays quiet
        def initial(n):
            g = Grid1D(1.0, n)
            x = g.nodes()
            rho = 1.0 + 0.2 * np.sin(np.pi * x) ** 2
            U = np.array([0.1 * np.sin(np.pi * x), -0.06 * np.sin(np.pi * x)])
            U[:, 0] = 0.0
            U[:, -1] = 0.0
            return State(time=0.0, frame=EULERIAN, grid=g, rho=rho, U=U)

        scheme = SchemeConfig(advection=CENTRAL)
        finals = {}
        for n in (32, 64, 128):
            traj = runner.integrate(initial(n), params2, derived2, scheme, t_end=0.1, snapshot_every=10**9)
            finals[n] = traj.final

        def dist(a, b):
            # restrict the finer solution to the coarser nodes
            stride = (b.grid.n_cells) // (a.grid.n_cells)
            db = b.rho[::stride] - a.rho
            du = b.U[:, ::stride] - a.U
            return math.sqrt(l2_norm(db, a.grid) ** 2 + sum(l2_norm(du[i], a.grid) ** 2 for i in range(du.shape[0])))

        e1 = dist(finals[32], finals[64])
        e2 = dist(finals[64], finals[128])
        order = math.log2(e1 / e2)
        assert order >= 1.8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_attaches_partial_trajectory(self, derived2, grid64):
        # huge pressure coefficient + coarse dt forced by cfl=1 on a spiky
        # profile drives the density under the floor quickly
        p = make_params(2, 1.0, 1.4, [[1e-4, 0.0], [0.0, 1e-4]], [[0, 0.1], [0.1, 0]], 10.0)
        d = derive_matrices(p)
        x = grid64.nodes()
        U = np.array([0.9 * np.sin(np.pi * x), -0.9 * np.sin(np.pi * x)])
        U[:, 0] = 0
        U[:, -1] = 0
        rho = np.full(grid64.n_nodes, 1e-4)
        s = State(time=0.0, frame=EULERIAN, grid=grid64, rho=rho, U=U)
        from mixflow.errors import SolverBlowup

        scheme = SchemeConfig(cfl=1.0, artificial_floor=9e-5)
        with pytest.raises(SolverBlowup) as exc_info:
            runner.integrate(s, p, d, scheme, t_end=5.0, snapshot_every=1)
        assert exc_info.value.trajectory is not None
        assert len(exc_info.value.trajectory) >= 1
