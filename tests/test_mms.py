import numpy as np

from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D
from mixflow.mms import ManufacturedFields, default_params, mms_study
from mixflow.model import derive_matrices
from mixflow.runner import integrate
from mixflow.timestepping import CENTRAL, UPWIND, SchemeConfig

from conftest import euler_tendencies, lagrange_tendencies


class TestForcing:
    def test_zero_forcing_rest_configuration(self):
        # constant density and zero velocities: every source term vanishes
        # analytically, and the forced solver keeps the state exactly
        p = default_params()
        fields = ManufacturedFields(params=p, frame=EULERIAN, rho_amp=0.0, c=(0.0, 0.0))
        g = Grid1D(1.0, 32)
        s_rho, s_u = fields.forcing(0.3, g.nodes())
        assert np.abs(s_rho).max() <= 1e-15
        assert np.abs(s_u).max() <= 1e-15
        d = derive_matrices(p)
        traj = integrate(fields.state(g), p, d, SchemeConfig(), 0.1,
                         snapshot_every=10**9, forcing=fields.forcing)
        assert np.abs(traj.final.rho - 2.0).max() <= 1e-12
        assert np.abs(traj.final.U).max() <= 1e-12

    def test_forcing_matches_discrete_residual_eulerian(self):
        # on fine grids the injected source must converge to the negative of
        # the unforced discrete tendency at t = 0 (O(h^2) consistency)
        p = default_params()
        d = derive_matrices(p)
        fields = ManufacturedFields(params=p, frame=EULERIAN)
        res = []
        for n in (64, 128):
            g = Grid1D(1.0, n)
            s = fields.state(g)
            drho, dU = euler_tendencies(s, p, d, SchemeConfig(advection=CENTRAL))
            s_rho, s_u = fields.forcing(0.0, g.nodes())
            # at t = 0, d rho*/dt = 0 and d u*/dt = 0 (cos factors), so the
            # forcing should cancel the discrete tendencies
            err = np.abs(drho + s_rho)[1:-1].max() + np.abs(dU + s_u)[:, 1:-1].max()
            res.append(err)
        assert res[0] / res[1] >= 3.0

    def test_forcing_matches_discrete_residual_lagrangian(self):
        p = default_params()
        d = derive_matrices(p)
        fields = ManufacturedFields(params=p, frame=LAGRANGIAN, domain_length=2.0)
        res = []
        for n in (64, 128):
            g = Grid1D(2.0, n)
            s = fields.state(g)
            drho, dU = lagrange_tendencies(s, p, d)
            s_rho, s_u = fields.forcing(0.0, g.nodes())
            err = np.abs(drho + s_rho)[1:-1].max() + np.abs(dU + s_u)[:, 1:-1].max()
            res.append(err)
        assert res[0] / res[1] >= 3.0


class TestStudy:
    def test_eulerian_central_second_order(self):
        table = mms_study(frame=EULERIAN, advection=CENTRAL, levels=(32, 64), t_end=0.2)
        assert table.slope >= 1.7
        assert table.passed

    def test_eulerian_upwind_first_order(self):
        table = mms_study(frame=EULERIAN, advection=UPWIND, levels=(32, 64), t_end=0.2)
        assert 0.8 <= table.slope <= 1.7
        assert table.passed

    def test_lagrangian_matches_design_order(self):
        table = mms_study(frame=LAGRANGIAN, advection=CENTRAL, levels=(32, 64), t_end=0.2)
        assert table.slope >= 1.7

    def test_render_text(self):
        table = mms_study(frame=EULERIAN, advection=CENTRAL, levels=(32, 64), t_end=0.1)
        txt = table.render_text()
        assert "n_cells" in txt and ("PASS" in txt or "FAIL" in txt)
