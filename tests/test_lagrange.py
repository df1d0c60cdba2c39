import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from mixflow import estimates, euler
from mixflow.errors import DomainLengthDrift, ValidationError, WrongFrame
from mixflow.euler import CENTRAL, SchemeConfig
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D, State, diff, integrate, l2_norm
from mixflow.lagrange import (
    LagrangeKernel,
    euler_to_lagrange,
    _cumulative_trapezoid,
    lagrange_to_euler,
    run_lagrangian,
)
from mixflow.model import derive_matrices, make_params
from mixflow.timestepping import step_once

from conftest import euler_tendencies, lagrange_tendencies, smooth_state, stack


def lagrangian_rest(grid, n_comp=2, rho0=2.0):
    return State(time=0.0, frame=LAGRANGIAN, grid=grid,
                 rho=np.full(grid.n_nodes, rho0), U=np.zeros((n_comp, grid.n_nodes)))


class TestMassMap:
    # y(x) = int_0^x rho ds at the nodes, the map euler_to_lagrange resamples by
    def test_unit_density_is_identity(self, grid64):
        s = State(time=0.0, frame=EULERIAN, grid=grid64,
                  rho=np.ones(grid64.n_nodes), U=np.zeros((2, grid64.n_nodes)))
        y = _cumulative_trapezoid(s.rho, grid64.h)
        assert np.allclose(y, grid64.nodes(), atol=1e-15)
        assert euler_to_lagrange(s).grid.domain_length == pytest.approx(1.0, abs=1e-14)

    def test_monotone_and_round_trip(self, shear_state):
        x_nodes = shear_state.grid.nodes()
        y_nodes = _cumulative_trapezoid(shear_state.rho, shear_state.grid.h)
        assert np.all(np.diff(y_nodes) > 0)
        x = np.linspace(0, 1, 23)
        y = PchipInterpolator(x_nodes, y_nodes)(x)
        back = PchipInterpolator(y_nodes, x_nodes)(y)
        assert np.abs(back - x).max() <= 2 * shear_state.grid.h

    def test_endpoints(self, shear_state):
        y = _cumulative_trapezoid(shear_state.rho, shear_state.grid.h)
        assert y[0] == 0.0
        d = euler_to_lagrange(shear_state).grid.domain_length
        assert d == y[-1]
        assert d == pytest.approx(integrate(shear_state.rho, shear_state.grid), abs=1e-14)

    def test_degenerate_map_rejected(self, grid64):
        # two adjacent nodes so dense that their cell adds nothing to
        # x(y) = int dy / rho: the map stalls and PCHIP would reject it
        rho = np.ones(grid64.n_nodes)
        rho[30:32] = 1e300
        s = State(time=0.0, frame=LAGRANGIAN, grid=grid64, rho=rho, U=np.zeros((2, rho.size)))
        with pytest.raises(ValidationError, match="strictly monotone"):
            lagrange_to_euler(s, drift_tol=1.0)


class TestTransforms:
    def test_unit_density_unchanged(self, grid64):
        x = grid64.nodes()
        u = 0.1 * np.sin(np.pi * x)
        u[[0, -1]] = 0.0
        s = State(time=0.0, frame=EULERIAN, grid=grid64, rho=np.ones_like(x), U=np.array([u, -u]))
        sl = euler_to_lagrange(s)
        assert sl.frame == LAGRANGIAN
        assert sl.grid.domain_length == pytest.approx(1.0, abs=1e-14)
        assert np.abs(sl.rho - 1.0).max() <= 1e-10
        assert np.abs(sl.U - s.U).max() <= 1e-10

    def test_constant_two_stretches_domain(self, grid64):
        x = grid64.nodes()
        u = 0.1 * np.sin(np.pi * x)
        u[[0, -1]] = 0.0
        s = State(time=0.0, frame=EULERIAN, grid=grid64,
                  rho=np.full_like(x, 2.0), U=np.array([u, u]))
        sl = euler_to_lagrange(s)
        assert sl.grid.domain_length == pytest.approx(2.0, abs=1e-14)
        assert np.abs(sl.rho - 2.0).max() <= 1e-12
        # velocity profile is stretched: u_L(y) = u(y/2)
        y = sl.grid.nodes()
        assert np.abs(sl.U[0] - 0.1 * np.sin(np.pi * y / 2.0)).max() <= 1e-4

    def test_round_trip_second_order(self, params2):
        errs = []
        for n in (64, 128):
            s = smooth_state(Grid1D(1.0, n))
            back = lagrange_to_euler(euler_to_lagrange(s))
            errs.append(np.abs(back.rho - s.rho).max() + np.abs(back.U - s.U).max())
        assert errs[0] / errs[1] >= 3.0  # O(h^2)

    def test_kinetic_energy_preserved(self, shear_state):
        g = shear_state.grid
        ke_e = 0.5 * integrate(shear_state.rho * (shear_state.U**2).sum(axis=0), g)
        sl = euler_to_lagrange(shear_state)
        ke_l = 0.5 * integrate((sl.U**2).sum(axis=0), sl.grid)
        assert ke_l == pytest.approx(ke_e, rel=5e-4)

    def test_constant_density_back_map(self):
        g = Grid1D(2.0, 64)
        sl = lagrangian_rest(g, rho0=2.0)
        se = lagrange_to_euler(sl)
        assert se.frame == EULERIAN
        assert se.grid.domain_length == 1.0
        assert np.abs(se.rho - 2.0).max() <= 1e-12

    def test_domain_length_drift_detected(self):
        # rho = 2 on (0, d) with d != 2 reconstructs a domain of length d/2
        g = Grid1D(1.8, 64)
        sl = lagrangian_rest(g, rho0=2.0)
        with pytest.raises(DomainLengthDrift):
            lagrange_to_euler(sl)

    def test_frame_guards(self, shear_state):
        with pytest.raises(WrongFrame):
            lagrange_to_euler(shear_state)
        sl = euler_to_lagrange(shear_state)
        with pytest.raises(WrongFrame):
            euler_to_lagrange(sl)


class TestRhs:
    def test_rest_steady(self):
        p = make_params(2, 1.0, 1.4, [[0.1, 0.02], [0.02, 0.1]], [[0, 1], [1, 0]], 1.0)
        d = derive_matrices(p)
        drho, dU = lagrange_tendencies(lagrangian_rest(Grid1D(2.0, 64)), p, d)
        assert np.abs(drho).max() == 0.0
        assert np.all(dU == 0.0)

    def test_continuity_tendency_analytic(self, params2, derived2):
        # drho/dt = -rho^2 dv/dy with a manufactured velocity profile
        g = Grid1D(2.0, 256)
        y = g.nodes()
        rho = 1.5 + 0.3 * np.sin(np.pi * y / 2.0)
        v = 0.2 * np.sin(np.pi * y / 2.0)
        v[[0, -1]] = 0.0
        s = State(time=0.0, frame=LAGRANGIAN, grid=g, rho=rho, U=np.array([v, v]))
        drho, _ = lagrange_tendencies(s, params2, derived2)
        exact = -(rho**2) * 0.2 * (np.pi / 2.0) * np.cos(np.pi * y / 2.0)
        assert np.abs(drho - exact)[1:-1].max() <= 5e-4

    @staticmethod
    def _affine_pair(n):
        # rho = 1 + x/2 has the closed-form mass map y = x + x^2/4, whose
        # inverse x(y) = 2(sqrt(1+y) - 1) lets us sample the mass-coordinate
        # state exactly (no interpolation noise in second derivatives)
        ge = Grid1D(1.0, n)
        x = ge.nodes()
        rho = 1.0 + 0.5 * x

        def u_of_x(z):
            return np.array([0.12 * np.sin(np.pi * z), -0.08 * np.sin(np.pi * z)])

        U = u_of_x(x)
        U[:, 0] = 0.0
        U[:, -1] = 0.0
        se = State(time=0.0, frame=EULERIAN, grid=ge, rho=rho, U=U)

        dlen = 1.25  # int_0^1 (1 + x/2) dx
        gl = Grid1D(dlen, n)
        y = gl.nodes()
        x_of_y = 2.0 * (np.sqrt(1.0 + y) - 1.0)
        Ul = u_of_x(x_of_y)
        Ul[:, 0] = 0.0
        Ul[:, -1] = 0.0
        sl = State(time=0.0, frame=LAGRANGIAN, grid=gl, rho=1.0 + 0.5 * x_of_y, U=Ul)
        return se, sl, x_of_y

    def test_chain_rule_against_eulerian_exact_map(self, params2, derived2):
        # material tendency in mass coordinates = Eulerian tendency + v d/dx;
        # second-order agreement when the mass map is sampled exactly
        errs = []
        for n in (64, 128):
            se, sl, x_of_y = self._affine_pair(n)
            central = SchemeConfig(advection=CENTRAL)
            drho_l, dU_l = lagrange_tendencies(sl, params2, derived2, central)
            drho_e, dU_e = euler_tendencies(se, params2, derived2, central)
            v = se.U.mean(axis=0)
            x = se.grid.nodes()
            worst = 0.0
            for lag_t, eul_t, field in ((drho_l, drho_e, se.rho), (dU_l[0], dU_e[0], se.U[0])):
                material = eul_t + v * diff(field, se.grid)
                mapped = PchipInterpolator(x, material)(x_of_y)
                worst = max(worst, np.abs(lag_t - mapped)[4:-4].max())
            errs.append(worst)
        assert errs[0] / errs[1] >= 3.0  # O(h^2)

    def test_chain_rule_resampled_converges(self, params2, derived2):
        # through euler_to_lagrange the monotone-cubic resampling adds O(h)
        # noise to second differences; the L2 agreement of the tendencies
        # still converges at roughly first order
        from scipy.interpolate import PchipInterpolator

        errs = []
        for n in (128, 512):
            g = Grid1D(1.0, n)
            s = smooth_state(g)
            sl = euler_to_lagrange(s)
            dU_l = lagrange_tendencies(sl, params2, derived2, SchemeConfig(advection=CENTRAL))[1]
            dU_e = euler_tendencies(s, params2, derived2, SchemeConfig(advection=CENTRAL))[1]
            v = s.U.mean(axis=0)
            x = g.nodes()
            y = sl.grid.nodes()
            xs = PchipInterpolator(_cumulative_trapezoid(s.rho, g.h), x)(y)
            material = dU_e[0] + v * diff(s.U[0], g)
            err = dU_l[0] - PchipInterpolator(x, material)(xs)
            errs.append(l2_norm(err, sl.grid))
        assert errs[0] / errs[1] >= 3.0  # ~O(h) over a 4x refinement


class TestRun:
    def test_rest_fixed_point(self, params2, derived2):
        s = lagrangian_rest(Grid1D(2.0, 64))
        traj = run_lagrangian(s, params2, derived2, SchemeConfig(), t_end=0.5, snapshot_every=100)
        assert np.abs(traj.final.rho - 2.0).max() <= 1e-12
        assert np.abs(traj.final.U).max() <= 1e-12

    def test_step_matches_run_start(self, params2, derived2, shear_state):
        sl = euler_to_lagrange(shear_state)
        scheme = SchemeConfig()
        kern = LagrangeKernel(sl.grid, params2, derived2, scheme)
        tau = kern.to_evolved(np.array(sl.rho))
        dt = kern.stable_dt(tau, np.asarray(sl.U), True) * scheme.cfl
        Y, rho = step_once(kern, sl.time, stack(tau, sl.U), dt, scheme)
        U = Y[1:]
        assert dt > 0
        assert np.all(U[:, [0, -1]] == 0.0)
        first = run_lagrangian(sl, params2, derived2, scheme, t_end=dt, snapshot_every=1).final
        assert first.time == dt
        assert np.array_equal(first.rho, rho) and np.array_equal(first.U, U)

    def test_volume_exactly_conserved(self, params2, derived2, shear_state):
        sl = euler_to_lagrange(shear_state)
        traj = run_lagrangian(sl, params2, derived2, SchemeConfig(), t_end=0.3, snapshot_every=20)
        vol0 = integrate(1.0 / np.asarray(traj.states[0].rho), sl.grid)
        for s in traj.states:
            assert integrate(1.0 / np.asarray(s.rho), sl.grid) == pytest.approx(vol0, abs=1e-13)

    def test_mean_value_bracket(self, params2, derived2, shear_state):
        sl = euler_to_lagrange(shear_state)
        d = sl.grid.domain_length
        traj = run_lagrangian(sl, params2, derived2, SchemeConfig(), t_end=0.3, snapshot_every=20)
        for s in traj.states:
            assert s.rho.min() <= d <= s.rho.max()

    def test_identity_residual_converges(self, params2, derived2):
        # || rho dv/dy + d(ln rho)/dt || -> 0 under simultaneous (h, dt)
        # refinement; measured after the incompatible-corner layer at t = 0
        # has left (Dirichlet walls pin du/dt while the data wants it nonzero)
        scheme = SchemeConfig(time_integrator="semi-implicit-viscosity", cfl=0.3)
        res = []
        for n in (32, 64, 128):
            g = Grid1D(1.2, n)
            y = g.nodes()
            rho = 1.1 + 0.3 * np.sin(2 * np.pi * y / 1.2) * np.exp(-y / 1.2)
            U = np.array([0.12 * np.sin(np.pi * y / 1.2), -0.08 * np.sin(np.pi * y / 1.2)])
            U[:, 0] = 0.0
            U[:, -1] = 0.0
            sl = State(time=0.0, frame=LAGRANGIAN, grid=g, rho=rho, U=U)
            traj = estimates.diagnose(run_lagrangian(sl, params2, derived2, scheme, t_end=0.15,
                                                     snapshot_every=2), params2, derived2)
            late = [r.identity_residual for r in traj.diagnostics[1:-1]
                    if r.time >= 0.25 * 0.15]
            res.append(max(late))
        order1 = math.log2(res[0] / res[1])
        order2 = math.log2(res[1] / res[2])
        assert order1 >= 1.0 and order2 >= 1.0

    def test_dual_formulation_agreement(self, params2, derived2):
        # Eulerian run transformed at t_end vs Lagrangian run from transformed
        # initial data; distance shrinks at first order or better
        dist = []
        for n in (32, 64, 128):
            s = smooth_state(Grid1D(1.0, n))
            scheme = SchemeConfig(advection=CENTRAL)
            traj_e = euler.run(s, params2, derived2, scheme, t_end=0.2, snapshot_every=10**9)
            from_e = euler_to_lagrange(traj_e.final)
            traj_l = run_lagrangian(euler_to_lagrange(s), params2, derived2, scheme,
                                    t_end=0.2, snapshot_every=10**9)
            sl = traj_l.final
            # both live on uniform mass grids over (0, d) with matching n
            err = l2_norm(from_e.rho - sl.rho, sl.grid) ** 2
            for i in range(params2.N):
                err += l2_norm(from_e.U[i] - sl.U[i], sl.grid) ** 2
            dist.append(math.sqrt(err))
        order = math.log2(dist[0] / dist[1]), math.log2(dist[1] / dist[2])
        assert min(order) >= 1.0
