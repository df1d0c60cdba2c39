import numpy as np
import pytest

from mixflow.errors import ValidationError
from mixflow import field
from mixflow.field import EULERIAN, Grid1D, State, l2_norm
from mixflow.model import derive_matrices, make_params
from mixflow.runner import integrate
from mixflow.timestepping import SchemeConfig

from conftest import records
from reference import single_fluid_params, single_fluid_reference


def bump_initial(n):
    g = Grid1D(1.0, n)
    x = g.nodes()
    rho = 1.0 + 0.2 * np.exp(-(((x - 0.5) / 0.2) ** 2))
    u = 0.1 * np.sin(np.pi * x)
    u[[0, -1]] = 0.0
    return g, rho, u


class TestSingleFluid:
    def test_rejects_bad_viscosity(self):
        with pytest.raises(ValidationError, match="viscosity mu must be > 0, got 0.0"):
            single_fluid_params(K=1.0, gamma=1.4, mu=0.0, T_final=1.0)

    def test_rest_fixed_point(self):
        g = Grid1D(1.0, 64)
        traj = single_fluid_reference(
            np.ones(g.n_nodes), np.zeros(g.n_nodes), K=1.0, gamma=1.4, mu=0.1,
            scheme=SchemeConfig(), grid=g, t_end=0.5,
        )
        assert np.abs(traj.final.rho - 1.0).max() <= 1e-12
        assert np.abs(traj.final.U).max() <= 1e-12

    def test_mixture_reduction_oracle(self):
        # three equal components with scalar viscosity must match the
        # single-fluid trajectory to round-off accumulation
        mu = 0.08
        p = make_params(
            3, 1.0, 1.4,
            (mu * np.eye(3)).tolist(),
            [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]],
            2.0,
        )
        d = derive_matrices(p)
        g, rho, u = bump_initial(96)
        s = State(time=0.0, frame=EULERIAN, grid=g, rho=rho, U=np.array([u, u, u]))
        scheme = SchemeConfig()
        traj_mix = integrate(s, p, d, scheme, 0.4, snapshot_every=50)
        traj_one = single_fluid_reference(rho, u, K=1.0, gamma=1.4, mu=mu,
                                          scheme=scheme, grid=g, t_end=0.4,
                                          snapshot_every=50)
        assert len(traj_mix) == len(traj_one)
        for sm, so in zip(records(traj_mix), records(traj_one)):
            assert sm.time == pytest.approx(so.time, abs=1e-13)
            assert np.abs(sm.rho - so.rho).max() <= 1e-10
            for i in range(3):
                assert np.abs(sm.U[i] - so.U[0]).max() <= 1e-10

    def test_long_run_relaxation(self):
        # velocities damp and the density homogenizes toward the total mass
        g, rho, u = bump_initial(64)
        scheme = SchemeConfig(time_integrator="semi-implicit-viscosity", cfl=0.3)
        traj = single_fluid_reference(rho, u, K=1.0, gamma=1.4, mu=0.1,
                                      scheme=scheme, grid=g, t_end=30.0,
                                      T_final=40.0, snapshot_every=500)
        final = traj.final
        dval = field.integrate(traj.rho[0], traj.grid)
        assert l2_norm(final.U[0], g) < 1e-3
        assert l2_norm(final.rho - dval, g) < 1e-3
