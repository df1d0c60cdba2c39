import os

import numpy as np
import pytest

from mixflow import mms
from mixflow.cli import EXIT_BLOWUP, cli_main
from mixflow.errors import SolverBlowup, ValidationError
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D
from mixflow.mms import ManufacturedFields, default_params, mms_study
from mixflow.model import derive_matrices
from mixflow.runner import integrate
from mixflow.timestepping import CENTRAL, UPWIND, SchemeConfig

from conftest import euler_tendencies, lagrange_tendencies
from test_concurrent import _assert_no_children


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

    def test_arguments_checked(self):
        # a short c would broadcast into every component of the kernel's state
        with pytest.raises(ValidationError, match="need one velocity amplitude per component"):
            ManufacturedFields(params=default_params(), c=(0.1,))
        fields = ManufacturedFields(params=default_params(), frame=LAGRANGIAN, domain_length=2.0)
        with pytest.raises(ValidationError, match="grid does not match the manufactured domain"):
            fields.state(Grid1D(1.0, 32))

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

    def test_orders_hold_at_a_horizon_of_one_step(self):
        # each level's error is one step's spatial truncation, which scales
        # with t_end and stays 8x to 110x above round-off at 2e-13
        short = mms_study(levels=(8, 16, 32), t_end=2e-13)
        long = mms_study(levels=(8, 16, 32), t_end=1e-9)
        assert np.allclose(short.orders, long.orders, rtol=0, atol=1e-2)

    def test_render_text(self):
        table = mms_study(frame=EULERIAN, advection=CENTRAL, levels=(32, 64), t_end=0.1)
        txt = table.render_text()
        assert "n_cells" in txt and ("PASS" in txt or "FAIL" in txt)


def _bits(errors, *numbers):
    """The per-level ``errors`` and ``numbers`` as int64 bit patterns."""
    values = [v for errs in errors for v in errs.values()] + list(numbers)
    return np.array(values, dtype=float).view(np.int64)


class TestLadderInWorker:
    """The finest level runs in the calling process, the coarser ones in one worker."""

    @pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
    @pytest.mark.parametrize("advection", [CENTRAL, UPWIND])
    def test_table_bit_equal_to_levels_in_process(self, frame, advection, monkeypatch):
        levels, t_end = (8, 16, 32), 0.05
        table = mms_study(frame=frame, advection=advection, levels=levels, t_end=t_end)
        fields = ManufacturedFields(params=default_params(), frame=frame,
                                    domain_length=1.0 if frame == EULERIAN else 2.0)
        scheme = SchemeConfig(time_integrator="explicit-RK2", advection=advection)
        errors = [mms._run_level(fields, Grid1D(fields.domain_length, n), scheme, t_end)
                  for n in levels]
        assert [list(e) for e in table.errors] == [list(e) for e in errors]
        assert (_bits(table.errors) == _bits(errors)).all()
        monkeypatch.setattr(mms, "concurrently", lambda calls: [call() for call in calls])
        alone = mms_study(frame=frame, advection=advection, levels=levels, t_end=t_end)
        assert (_bits(table.errors, *table.orders, table.slope)
                == _bits(alone.errors, *alone.orders, alone.slope)).all()

    @pytest.mark.parametrize("levels", [(8, 16), (8, 16, 32), (8, 12, 16, 24, 32)])
    def test_one_fork_per_study(self, levels, monkeypatch):
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        table = mms_study(levels=levels, t_end=0.01)
        assert len(forks) == 1
        assert table.levels == list(levels) and len(table.errors) == len(levels)
        _assert_no_children()

    def test_blowup_at_a_coarse_level_crosses_the_worker(self, monkeypatch, capfd):
        real_run_level = mms._run_level

        def run_level(fields, grid, scheme, t_end):
            if grid.n_cells == 16:
                raise SolverBlowup("non-finite state at t = 0.005")
            return real_run_level(fields, grid, scheme, t_end)

        monkeypatch.setattr(mms, "_run_level", run_level)
        assert cli_main(["mms", "--levels", "8,16,32", "--t-end", "0.01"]) == EXIT_BLOWUP
        _assert_no_children()
        out, err = capfd.readouterr()
        assert out == ""
        assert err == "solver blow-up: non-finite state at t = 0.005\n"
