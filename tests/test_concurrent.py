"""Frames in forked workers: `runner.concurrently` and the CLI verbs built on it."""

import os
import time

import pytest

from mixflow import euler, lagrange
from mixflow.cli import EXIT_BLOWUP, EXIT_WORKER_DIED, cli_main
from mixflow.errors import FileFormatError, SolverBlowup, WorkerDied
from mixflow.runner import concurrently

from test_io_cli import SMALL_CONFIG

BLOWUP_CONFIG = """
[params]
n_components = 2
pressure_coeff = 1.0
gamma = 1.4
viscosity = [[0.0001, 0.0], [0.0, 0.0001]]
friction = [[0.0, 0.1], [0.1, 0.0]]
t_final = 2.0

[scheme]
integrator = rk2
advection = upwind
n_cells = 48
t_end = 1.5
frame = both
density_floor = 0.015

[initial]
rho = constant:value=0.02
u1 = sine:k=1,amp=0.8
u2 = sine:k=1,amp=0.4

[output]
snapshot_every = 10
"""


def _raise(exc):
    raise exc


def _assert_no_children():
    """Every worker was reaped: this process has no child left, running or exited."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tree(root):
    """Relative path -> bytes of every file under ``root``."""
    return {
        os.path.relpath(os.path.join(dp, f), root): open(os.path.join(dp, f), "rb").read()
        for dp, _, fs in os.walk(root) for f in fs
    }


class TestConcurrently:
    def test_results_in_call_order_from_workers(self):
        pids = concurrently([os.getpid, os.getpid, os.getpid])
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 3
        assert concurrently([lambda k=k: k * k for k in range(4)]) == [0, 1, 4, 9]
        _assert_no_children()

    def test_states_come_back_read_only(self, shear_state):
        state = concurrently([lambda: 0, lambda: shear_state])[1]
        assert (state.rho == shear_state.rho).all() and (state.U == shear_state.U).all()
        assert not state.rho.flags.writeable and not state.U.flags.writeable

    def test_single_call_runs_in_process(self):
        assert concurrently([os.getpid]) == [os.getpid()]
        assert concurrently([]) == []

    def test_worker_error_keeps_type_message_and_attributes(self):
        with pytest.raises(SolverBlowup, match="stage 2") as info:
            concurrently([lambda: 1,
                          lambda: _raise(SolverBlowup("stage 2", trajectory=[1.5, 2.5]))])
        assert info.value.trajectory == [1.5, 2.5]
        _assert_no_children()

    def test_first_failure_in_call_order_wins(self):
        with pytest.raises(FileFormatError, match="first"):
            concurrently([lambda: _raise(FileFormatError("first")),
                          lambda: _raise(KeyError("second"))])
        with pytest.raises(KeyError, match="second"):
            concurrently([lambda: 0, lambda: _raise(KeyError("second")),
                          lambda: _raise(ValueError("third"))])
        _assert_no_children()

    def test_unneeded_workers_are_terminated(self):
        t0 = time.perf_counter()
        with pytest.raises(ZeroDivisionError):
            concurrently([lambda: 1 / 0, lambda: time.sleep(60)])
        assert time.perf_counter() - t0 < 30
        _assert_no_children()

    def test_worker_death_raises_worker_died(self):
        with pytest.raises(WorkerDied, match="exited with code 7 before returning a result"):
            concurrently([lambda: 1, lambda: os._exit(7)])
        _assert_no_children()

    def test_unpicklable_result_is_one_error(self):
        with pytest.raises(Exception, match="worker result not returned"):
            concurrently([lambda: 1, lambda: (lambda: 2)])
        _assert_no_children()

    def test_announce_follows_success_in_order(self):
        said = []
        with pytest.raises(ValueError):
            concurrently([lambda: 1, lambda: _raise(ValueError()), lambda: 3], said.append)
        assert said == [0, 1]
        said.clear()
        with pytest.raises(ValueError):
            concurrently([lambda: _raise(ValueError()), lambda: 2], said.append)
        assert said == [0]


def _run(tmp_path, text, out, *extra):
    cfg = tmp_path / "case.ini"
    cfg.write_text(text)
    return cli_main(["run", "--config", str(cfg), "--out-dir", str(out), *extra])


class TestFramesInWorkers:
    def test_both_frames_equal_separate_runs(self, tmp_path):
        # the Lagrangian frame of a `both` run comes from a worker; the
        # single-frame runs take the in-process path
        assert _run(tmp_path, SMALL_CONFIG, tmp_path / "both") == 0
        for frame in ("eulerian", "lagrangian"):
            assert _run(tmp_path, SMALL_CONFIG, tmp_path / frame, "--frame", frame) == 0
            alone = _tree(tmp_path / frame)
            paired = _tree(tmp_path / "both" / frame)
            del alone["report.json"]
            assert alone == paired
            assert any(name.startswith("snap_") for name in paired) and "diag.csv" in paired
        _assert_no_children()

    @pytest.mark.parametrize("frame", ["both", "eulerian", "lagrangian"])
    def test_check_reproduces_run_report(self, tmp_path, frame):
        from importlib import resources

        out = tmp_path / "out"
        with resources.as_file(resources.files("mixflow.data") / "random_smooth.ini") as cfg:
            assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out), "--frame", frame,
                             "--t-end", "0.02", "--n-cells", "64"]) == 0
        written = (out / "report.json").read_bytes()
        assert cli_main(["check", "--traj", str(out)]) == 0
        assert (out / "report.json").read_bytes() == written

    def test_eulerian_blowup_wins_and_stops_the_worker(self, tmp_path, capsys, monkeypatch):
        alone = _run(tmp_path, BLOWUP_CONFIG, tmp_path / "alone", "--frame", "eulerian")
        assert alone == EXIT_BLOWUP
        alone_err = capsys.readouterr().err.replace(str(tmp_path / "alone"), "OUT")
        # the Lagrangian frame would blow up as well, later; here it never ends
        monkeypatch.setattr(lagrange, "run_lagrangian", lambda *a, **k: time.sleep(60))
        t0 = time.perf_counter()
        assert _run(tmp_path, BLOWUP_CONFIG, tmp_path / "both") == EXIT_BLOWUP
        assert time.perf_counter() - t0 < 30
        _assert_no_children()
        err = capsys.readouterr().err.replace(str(tmp_path / "both"), "OUT")
        assert err == alone_err
        assert "running lagrangian solver" not in err
        assert _tree(tmp_path / "both") == _tree(tmp_path / "alone")

    def test_lagrangian_blowup_crosses_with_its_trajectory(self, tmp_path, capsys, monkeypatch):
        alone = _run(tmp_path, BLOWUP_CONFIG, tmp_path / "alone", "--frame", "lagrangian")
        assert alone == EXIT_BLOWUP
        alone_err = capsys.readouterr().err.replace(str(tmp_path / "alone"), "OUT")
        real_run = euler.run
        monkeypatch.setattr(  # an Eulerian frame that finishes before the floor is reached
            euler, "run", lambda initial, p, d, scheme, t_end, **kw: real_run(
                initial, p, d, scheme, 0.01, **kw))
        assert _run(tmp_path, BLOWUP_CONFIG, tmp_path / "both") == EXIT_BLOWUP
        _assert_no_children()
        err = capsys.readouterr().err.replace(str(tmp_path / "both"), "OUT").splitlines()
        assert err[0].startswith("running eulerian solver")
        assert err[1:] == alone_err.splitlines()
        assert _tree(tmp_path / "both" / "lagrangian") == _tree(tmp_path / "alone" / "lagrangian")

    def test_dead_worker_is_one_line_and_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lagrange, "run_lagrangian", lambda *a, **k: os._exit(9))
        assert _run(tmp_path, SMALL_CONFIG, tmp_path / "out") == EXIT_WORKER_DIED == 4
        _assert_no_children()
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == ["running eulerian solver to t = 0.15",
                           "running lagrangian solver to t = 0.15"]
        assert len(err) == 3
        assert err[2].startswith("error: worker ") and "exited with code 9" in err[2]
