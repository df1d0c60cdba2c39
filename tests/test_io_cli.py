import json
import math
import os
import re
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mixflow import estimates, io
from mixflow.errors import FileFormatError
from mixflow.cli import _build_parser, _settings, cli_main
from mixflow.config import parse_config
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D, State
from mixflow.runner import execute, integrate, save_result
from mixflow.timestepping import SEMI_IMPLICIT, SchemeConfig

import cli_cases
from conftest import DATA, records, rewrite_states

SMALL_CONFIG = """
[params]
n_components = 2
pressure_coeff = 1.0
gamma = 1.4
viscosity = [[0.1, 0.02], [0.02, 0.1]]
friction = [[0.0, 0.4], [0.4, 0.0]]
t_final = 2.0

[scheme]
integrator = rk2
advection = upwind
n_cells = 48
t_end = 0.15
frame = both

[initial]
rho = gaussian:base=1.0,amp=0.3,center=0.4,width=0.15
u1 = sine:k=1,amp=0.1
u2 = sine:k=1,amp=-0.06

[output]
snapshot_every = 10
audits = all
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = replace(parse_config(SMALL_CONFIG), out_dir=str(out / "traj"))
    result = execute(rc)
    save_result(result, rc.out_dir)
    return rc, result


class TestTrajectoryIO:
    def test_round_trip(self, params2, derived2, shear_state, tmp_path):
        traj = estimates.diagnose(integrate(shear_state, params2, derived2, SchemeConfig(), 0.1,
                                            snapshot_every=10), params2)
        io.save_trajectory(str(tmp_path), traj, params2, SchemeConfig())
        back, params_back, manifest = io.load_trajectory(str(tmp_path))
        assert params_back == params2
        assert back.frame == traj.frame
        assert len(back) == len(traj)
        for a, b in zip(records(traj), records(back)):
            assert a.time == b.time
            assert np.array_equal(a.rho, b.rho)
            assert np.array_equal(a.U, b.U)
        ra, rb = traj.diagnostics, back.diagnostics
        assert np.array_equal(ra["energy"], rb["energy"])
        assert np.array_equal(ra["alpha"], rb["alpha"])
        assert "identity_residual" not in ra and "identity_residual" not in rb

    def test_snapshot_header(self, shear_state, tmp_path):
        path = tmp_path / "snap.csv"
        io.write_snapshot(str(path), shear_state)
        header = path.read_text().splitlines()[0]
        assert header == "x_or_y,rho,u1,u2"

    def test_manifest_fields(self, small_run):
        rc, _ = small_run
        with open(os.path.join(rc.out_dir, "eulerian", "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["frame"] == "eulerian"
        assert manifest["n_cells"] == rc.n_cells
        assert manifest["version"] == 2
        assert manifest["states_shape"] == [len(manifest["times"]), 3, rc.n_cells + 1]
        assert manifest["snapshots"] == [f"snap_{len(manifest['times']) - 1:05d}.csv"]
        for key in ("params_hash", "states_sha256", "snapshot_sha256"):
            assert len(manifest[key]) == 64

    def test_layout(self, small_run, tmp_path):
        # each frame directory holds the records as one array equal to the
        # run's, the final record as the CSV write_snapshot makes, the ledger
        # and the manifest, and nothing else
        rc, result = small_run
        for traj in (result.eulerian, result.lagrangian):
            sub = os.path.join(rc.out_dir, traj.frame)
            final = f"snap_{len(traj) - 1:05d}.csv"
            assert sorted(os.listdir(sub)) == sorted(["manifest.json", "states.npy", "diag.csv",
                                                      final])
            states = np.load(os.path.join(sub, "states.npy"), allow_pickle=False)
            assert states.dtype.str == "<f8"
            assert np.array_equal(states[:, 0].view(np.int64), traj.rho.view(np.int64))
            assert np.array_equal(states[:, 1:].view(np.int64), traj.U.view(np.int64))
            io.write_snapshot(str(tmp_path / final), traj.final)
            assert (tmp_path / final).read_bytes() == open(os.path.join(sub, final), "rb").read()

    def test_determinism_bit_identical(self, tmp_path):
        rc = replace(parse_config(SMALL_CONFIG), n_cells=32, t_end=0.05)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            save_result(execute(rc), str(out))
            files = sorted(
                os.path.join(dp, f)
                for dp, _, fs in os.walk(out)
                for f in fs
            )
            blobs.append([(os.path.relpath(f, out), open(f, "rb").read()) for f in files])
        assert blobs[0] == blobs[1]


class TestReportAndPlots:
    def test_report_json_written(self, small_run):
        rc, result = small_run
        with open(os.path.join(rc.out_dir, "report.json")) as fh:
            rep = json.load(fh)
        assert rep["passed"] is True
        assert "energy_budget" in rep["audits"]
        assert rep["audits"]["energy_budget"]["verdict"] == "PASS"

    def test_svg_emission(self, small_run, tmp_path):
        rc, result = small_run
        written = io.render_report_plots(str(tmp_path), result.eulerian)
        assert len(written) == 3
        for path in written:
            text = open(path).read()
            assert text.startswith("<svg") and "polyline" in text

    @pytest.mark.parametrize("value, low, high", [(1.0, "0.5", "1.5"), (1e20, "1e+20", "1e+20")])
    def test_flat_series_drawn_mid_panel(self, tmp_path, value, low, high):
        # a flat series is widened by 0.5 each way, or by one ulp where 0.5
        # rounds away, so its points sit mid-panel (y = 50 + 260 / 2)
        path = str(tmp_path / "flat.svg")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.plot_series_svg(path, [0.0, 1.0, 2.0], {"a": np.full(3, value)}, "t")
        text = open(path).read()
        assert re.findall(r'points="([^"]*)"', text) == ["50.00,180.00 320.00,180.00 590.00,180.00"]
        assert re.findall(r'font-size="11">([^<]*)</text>', text)[2:] == [low, high]


class TestCli:
    def _write_config(self, tmp_path, text=SMALL_CONFIG):
        cfg = tmp_path / "case.ini"
        cfg.write_text(text)
        return str(cfg)

    def test_run_then_check_clean(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli_main(["run", "--config", cfg, "--out-dir", out]) == 0
        assert os.path.exists(os.path.join(out, "report.json"))
        assert cli_main(["check", "--traj", out]) == 0

    def test_check_detects_tampered_energy(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli_main(["run", "--config", cfg, "--out-dir", out]) == 0
        diag = os.path.join(out, "eulerian", "diag.csv")
        lines = open(diag).read().splitlines()
        header = lines[0].split(",")
        col = header.index("energy")
        cells = lines[-1].split(",")
        cells[col] = repr(float(cells[col]) * 1.02)
        lines[-1] = ",".join(cells)
        open(diag, "w").write("\n".join(lines) + "\n")
        assert cli_main(["check", "--traj", out]) == 1

    def test_usage_error_exit_2(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
        bad = tmp_path / "bad.ini"
        bad.write_text(SMALL_CONFIG.replace("gamma = 1.4", "gamma = 0.5"))
        assert cli_main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 16.0 GiB for an array with shape (2147483647,)"),
         "error: Unable to allocate 16.0 GiB for an array with shape (2147483647,)"),
        (MemoryError(), "error: out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_exit_2_one_line(self, tmp_path, capsys, monkeypatch, error, line):
        # stands in for a grid the size rule admits but memory cannot hold
        def exhausted(grid):
            raise error
        monkeypatch.setattr(Grid1D, "nodes", exhausted)
        cfg = self._write_config(tmp_path)
        assert cli_main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [line]

    def test_blowup_exit_3(self, tmp_path):
        # compressive mean flow drains the rarefaction side below the floor
        text = """
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
frame = eulerian
density_floor = 0.015

[initial]
rho = constant:value=0.02
u1 = sine:k=1,amp=0.8
u2 = sine:k=1,amp=0.4

[output]
snapshot_every = 10
"""
        cfg = tmp_path / "blow.ini"
        cfg.write_text(text)
        out = str(tmp_path / "blow_out")
        code = cli_main(["run", "--config", str(cfg), "--out-dir", out])
        assert code == 3
        # the last valid trajectory is preserved on disk, with the time
        # fields of its ledger as check recomputes them
        traj, params, _ = io.load_trajectory(os.path.join(out, "eulerian"))
        stored = traj.diagnostics
        fresh = estimates.diagnose(traj, params).diagnostics
        assert len(stored["time"]) >= 2
        for name in ("dt_rho_l2", "alpha"):
            assert np.array_equal(stored[name], fresh[name])

    @pytest.mark.parametrize("frame", [EULERIAN, LAGRANGIAN])
    @pytest.mark.parametrize("key, value", [
        ("u1", "sine:k=1,amp=1e200"),
        ("friction", "[[0.0, 1e308], [1e308, 0.0]]"),
    ], ids=["velocity", "friction"])
    def test_overflowing_run_prints_only_its_reason(self, tmp_path, capsys, frame, key, value):
        # the shipped shear scenario with an overflowing velocity or friction:
        # the blow-up is reported in three lines, with no numpy warning
        lines = (DATA / "shear.ini").read_text().splitlines()
        cfg = tmp_path / "overflow.ini"
        cfg.write_text("\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line
                                 for line in lines))
        out = str(tmp_path / "out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", "--config", str(cfg), "--out-dir", out, "--n-cells", "32",
                             "--t-end", "0.001", "--frame", frame])
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        progress, reason, saved = capsys.readouterr().err.splitlines()
        assert progress == f"running {frame} solver to t = 0.001"
        assert reason.startswith("solver blow-up: ")
        assert saved == f"last valid trajectory saved under {os.path.join(out, frame)}"

    def test_report_on_a_ledger_without_finite_values(self, tmp_path, capsys):
        # velocities of 1e160 overflow the energy and both dissipation rates
        # to inf in every record of the saved partial trajectory
        lines = (DATA / "shear.ini").read_text().splitlines()
        cfg = tmp_path / "overflow.ini"
        cfg.write_text("\n".join("u1 = sine:k=1,amp=1e160" if line.startswith("u1 = ") else line
                                 for line in lines))
        out = str(tmp_path / "out")
        assert cli_main(["run", "--config", str(cfg), "--out-dir", out, "--n-cells", "32",
                         "--t-end", "1e-7", "--frame", "eulerian"]) == 3
        led = io.read_diagnostics(os.path.join(out, EULERIAN, "diag.csv"))
        for name in ("energy", "dissipation_visc", "dissipation_fric"):
            assert np.isinf(led[name]).all()
        capsys.readouterr()
        assert cli_main(["report", "--traj", out]) == 0
        made = capsys.readouterr().out.split()
        assert len(made) == 3
        for path in made:
            with open(path) as fh:
                points = re.findall(r'points="([^"]*)"', fh.read())
            assert points and not any("inf" in p or "nan" in p for p in points)

    @pytest.mark.parametrize("verb", ["check", "report"])
    def test_directory_without_a_trajectory(self, tmp_path, capsys, verb):
        assert cli_main([verb, "--traj", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: no trajectory manifest\n"

    def test_transform_round_trip(self, tmp_path, shear_state):
        snap = tmp_path / "s.csv"
        io.write_snapshot(str(snap), shear_state)
        out = tmp_path / "lag.csv"
        assert cli_main(["transform", "--snap", str(snap), "--frame", "eulerian",
                         "--out", str(out)]) == 0
        back = tmp_path / "eul.csv"
        assert cli_main(["transform", "--snap", str(out), "--frame", "lagrangian",
                         "--out", str(back)]) == 0
        s2 = io.read_snapshot(str(back), 0.0, EULERIAN)
        assert np.abs(s2.rho - shear_state.rho).max() < 5e-3

    def test_report_verb_read_only(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli_main(["run", "--config", cfg, "--out-dir", out]) == 0
        before = {
            f: open(os.path.join(dp, f), "rb").read()
            for dp, _, fs in os.walk(out)
            for f in fs if f.endswith(".csv") or f == "manifest.json"
        }
        assert cli_main(["report", "--traj", out]) == 0
        after = {
            f: open(os.path.join(dp, f), "rb").read()
            for dp, _, fs in os.walk(out)
            for f in fs if f.endswith(".csv") or f == "manifest.json"
        }
        assert before == after
        svgs = [f for dp, _, fs in os.walk(out) for f in fs if f.endswith(".svg")]
        assert svgs

    def test_mms_verb(self, tmp_path):
        code = cli_main(["mms", "--frame", "eulerian", "--advection", "central",
                         "--levels", "32,64", "--t-end", "0.1",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        written = [f for f in os.listdir(tmp_path) if f.startswith("mms_")]
        assert written

    def test_flag_overrides(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "o2")
        assert cli_main(["run", "--config", cfg, "--out-dir", out, "--frame", "eulerian",
                         "--n-cells", "32", "--t-end", "0.05", "--scheme", "rk4",
                         "--cfl", "0.3"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["n_cells"] == 32
        assert manifest["scheme"]["time_integrator"] == "explicit-RK4"
        assert manifest["scheme"]["cfl"] == 0.3

    def test_flag_replaces_its_ini_key_before_parsing(self, tmp_path):
        cfg = tmp_path / "case.ini"
        cfg.write_text(SMALL_CONFIG.replace("advection = upwind", "advection = upwind\ncfl = x"))
        out = str(tmp_path / "out")
        argv = ["run", "--config", str(cfg), "--out-dir", out, "--frame", "eulerian",
                "--t-end", "0.02"]
        assert cli_main(argv) == 2
        assert cli_main([*argv, "--cfl", "0.3"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["scheme"]["cfl"] == 0.3

    @pytest.mark.parametrize("flag, value, reason", [
        ("--n-cells", "abc", "[scheme] n_cells: invalid literal for int() with base 10: 'abc'"),
        ("--t-end", "x", "[scheme] t_end: could not convert string to float: 'x'"),
        # beyond the 32-bit size of the banded solve: refused at parse time
        ("--n-cells", "1" + "0" * 20, "n_cells must lie in [8, 2147483646], got 1" + "0" * 20),
    ])
    def test_malformed_flag_value_one_line(self, tmp_path, capsys, flag, value, reason):
        cfg = tmp_path / "case.ini"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out), flag, value]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {reason}"]
        assert not out.exists()


class TestNameTableAndDispatch:
    """``run --scheme`` and ``mms --advection`` resolve names through the
    table the INI keys use; each verb dispatches to its handler."""

    @staticmethod
    def _overridden(text, *flags):
        """The config ``run`` makes of INI ``text`` and ``flags``."""
        args = _build_parser().parse_args(["run", "--config", "case.ini", *flags])
        return parse_config(text, overrides=_settings(args))

    @pytest.mark.parametrize("name", ["rk2", "RK4", "semi-implicit", "explicit-RK2"])
    def test_scheme_flag_matches_ini_integrator(self, name):
        ini = parse_config(SMALL_CONFIG.replace("integrator = rk2", f"integrator = {name}"))
        assert self._overridden(SMALL_CONFIG, "--scheme", name) == ini

    def test_cfl_alone_keeps_the_ini_integrator(self):
        text = SMALL_CONFIG.replace("integrator = rk2", "integrator = semi-implicit")
        base = parse_config(text)
        rc = self._overridden(text, "--cfl", "0.3")
        assert rc == replace(base, scheme=replace(base.scheme, cfl=0.3))
        assert rc.scheme.time_integrator == SEMI_IMPLICIT

    def test_mms_advection_alias_writes_the_same_file(self, tmp_path):
        blobs = []
        for spelling in ("upwind", "first-order-upwind"):
            out = tmp_path / spelling
            cli_main(["mms", "--advection", spelling, "--levels", "8,16", "--t-end", "0.01",
                      "--out-dir", str(out)])
            assert os.listdir(out) == ["mms_eulerian_first-order-upwind.json"]
            blobs.append((out / "mms_eulerian_first-order-upwind.json").read_bytes())
        assert blobs[0] == blobs[1]
        assert sorted(json.loads(blobs[0])) == [
            "advection", "errors", "frame", "levels", "orders", "passed", "slope", "threshold"]

    def test_no_verb_and_help(self, capsys):
        assert cli_main([]) == 2
        assert "the following arguments are required: verb" in capsys.readouterr().err
        assert cli_main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: mixflow ")

    def test_transform_degenerate_mass_map_exit_2(self, tmp_path, capsys):
        # two adjacent nodes so dense that their cell adds nothing to
        # x(y) = int dy / rho; the other nodes are scaled so the volume is 1
        g = Grid1D(1.0, 64)
        rho = np.full(g.n_nodes, 62 / 64)
        rho[30:32] = 1e300
        snap = tmp_path / "lag.csv"
        io.write_snapshot(str(snap), State(time=0.0, frame=LAGRANGIAN, grid=g, rho=rho,
                                           U=np.zeros((2, g.n_nodes))))
        assert cli_main(["transform", "--snap", str(snap), "--frame", LAGRANGIAN,
                         "--out", str(tmp_path / "eul.csv")]) == 2
        assert capsys.readouterr().err == "config error: mass map must be strictly monotone\n"
        assert not (tmp_path / "eul.csv").exists()


BAD_MMS_ARGUMENTS = [
    ["--levels", "32,x"],
    ["--levels", "32"],
    ["--levels", "32,32"],
    ["--levels", "64,32"],
    ["--t-end", "0"],
    ["--t-end", "-0.1"],
    ["--t-end", "nan"],
    ["--t-end", "inf"],
    ["--levels", "4,64,128"],
    ["--t-end", "1e-13"],  # within run_loop's end slack: no step would be taken
    ["--levels", "8,1" + "0" * 20],  # a grid no array can hold
]


class TestMmsArguments:
    @pytest.mark.parametrize("args", BAD_MMS_ARGUMENTS)
    def test_bad_arguments_exit_2_one_line(self, args, capsys, monkeypatch):
        # every level is checked before the ladder forks its worker
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before the levels were checked"))
        assert cli_main(["mms", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args", BAD_MMS_ARGUMENTS)
    def test_refused_study_makes_no_out_dir(self, args, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli_main(["mms", *args, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()


class TestUnwritableOutputs:
    """An output path that cannot be written exits 2 with one line naming it."""

    def _one_line(self, capsys, path):
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert len(captured.err.splitlines()) == 1
        return captured

    def test_run_out_dir_below_a_file(self, tmp_path, capsys):
        cfg = tmp_path / "case.ini"
        cfg.write_text(SMALL_CONFIG)
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / "afile" / "run")
        assert cli_main(["run", "--config", str(cfg), "--out-dir", out]) == 2
        captured = self._one_line(capsys, out)
        assert captured.err.endswith(": Not a directory\n")
        assert captured.out == ""  # the solve never started

    def test_mms_out_dir_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        assert cli_main(["mms", "--levels", "8,16", "--t-end", "0.01",
                         "--out-dir", str(out)]) == 2
        assert self._one_line(capsys, out).err.endswith(": File exists\n")
        assert out.read_text() == ""

    def test_transform_out_in_missing_directory(self, tmp_path, capsys, shear_state):
        snap = tmp_path / "s.csv"
        io.write_snapshot(str(snap), shear_state)
        out = str(tmp_path / "missing" / "lag.csv")
        assert cli_main(["transform", "--snap", str(snap), "--frame", EULERIAN,
                         "--out", out]) == 2
        assert self._one_line(capsys, out).err.endswith(": No such file or directory\n")


class TestEmptyAuditList:
    @pytest.mark.parametrize("audits", [",", " , ", ""])
    def test_check_flag(self, small_run, audits, capsys):
        rc, _ = small_run
        assert cli_main(["check", "--traj", rc.out_dir, "--audits", audits]) == 2
        assert capsys.readouterr().err == "config error: no audits requested\n"

    @pytest.mark.parametrize("value", ["", ",", " , ,"])
    def test_ini_key(self, tmp_path, value, capsys):
        cfg = tmp_path / "case.ini"
        cfg.write_text(SMALL_CONFIG.replace("audits = all", f"audits = {value}"))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: no audits requested\n"
        assert not out.exists()

    def test_all_and_named_lists_unchanged(self):
        assert parse_config(SMALL_CONFIG).audit_set == estimates.KNOWN_AUDITS
        named = parse_config(SMALL_CONFIG.replace("audits = all", "audits = gronwall, ,"))
        assert named.audit_set == ("gronwall",)


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """A small Eulerian run on disk; tests corrupt copies of it."""
    root = tmp_path_factory.mktemp("stored")
    cfg = root / "case.ini"
    cfg.write_text(SMALL_CONFIG.replace("frame = both", "frame = eulerian"))
    out = str(root / "out")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", out]) == 0
    return out


def _manifest_edit(edit):
    """A corruption that edits the parsed manifest in place and writes it back."""
    def corrupt(out):
        path = os.path.join(out, "manifest.json")
        manifest = json.load(open(path))
        edit(manifest)
        json.dump(manifest, open(path, "w"))
    return corrupt


def _interior_speed(speed, sub=EULERIAN):
    """Every interior velocity of record 1 of ``sub`` set to ``speed``."""
    def change(states):
        states[1, 1:, 1:-1] = float(speed)
        return states
    return lambda out: rewrite_states(os.path.join(out, sub), change)


def _diag_edit(name, row, value, sub=EULERIAN):
    """A corruption that sets one cell of ``sub/diag.csv``."""
    def corrupt(out):
        path = os.path.join(out, sub, "diag.csv")
        lines = open(path).read().splitlines()
        cells = lines[row + 1].split(",")
        col = lines[0].split(",").index(name)
        cells[col] = value(cells[col])
        lines[row + 1] = ",".join(cells)
        open(path, "w").write("\n".join(lines) + "\n")
    return corrupt


def _diag_column(name, value, sub=EULERIAN):
    """A corruption that sets every cell of one column of ``sub/diag.csv``."""
    def corrupt(out):
        path = os.path.join(out, sub, "diag.csv")
        header, *lines = open(path).read().splitlines()
        col = header.split(",").index(name)
        rows = [line.split(",") for line in lines]
        for cells in rows:
            cells[col] = value(cells[col])
        open(path, "w").write("\n".join([header, *map(",".join, rows)]) + "\n")
    return corrupt


class TestTrajectoryFormatFaults:
    def _copy(self, stored_run, tmp_path):
        out = str(tmp_path / "copy")
        shutil.copytree(stored_run, out)
        return out

    def _check_fails_naming(self, out, name, capsys):
        assert cli_main(["check", "--traj", out]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and name in err
        return err

    @pytest.mark.parametrize("case", cli_cases.STORE_FAULTS, ids=lambda case: case.id)
    def test_corrupt_store(self, case, tmp_path, stored_two_frames):
        assert cli_cases.faults(case, str(tmp_path), cli_cases.in_process, stored_two_frames) == []

    def test_store_beyond_memory_is_not_a_format_fault(self, stored_run, capsys, monkeypatch):
        # a whole states.npy too large to load: README's out-of-memory line
        def exhausted(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(np, "load", exhausted)
        assert cli_main(["check", "--traj", stored_run]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]

    def test_typed_field_from_the_check_worker(self, small_run, tmp_path, capsys):
        # with both frames stored, the fault of the second one is named
        rc, _ = small_run
        out = str(tmp_path / "both")
        shutil.copytree(rc.out_dir, out)
        _manifest_edit(lambda m: m.update(n_cells="x"))(os.path.join(out, "lagrangian"))
        err = self._check_fails_naming(out, os.path.join("lagrangian", "manifest.json"), capsys)
        assert "field 'n_cells' must be an integer" in err

    def test_frames_with_different_params(self, small_run, tmp_path, capsys):
        rc, _ = small_run
        out = str(tmp_path / "both")
        shutil.copytree(rc.out_dir, out)

        def edit(m):  # valid parameters with a matching hash, but not the Eulerian ones
            m["params"]["pressure_coeff"] = 1.5
            m["params_hash"] = io.params_hash(io.params_from_dict(m["params"]))

        _manifest_edit(edit)(os.path.join(out, "lagrangian"))
        self._check_fails_naming(out, "the frames' manifests give different params", capsys)

    def test_two_stores_of_one_frame(self, small_run, tmp_path, capsys):
        rc, _ = small_run
        out = str(tmp_path / "both")
        shutil.copytree(rc.out_dir, out)
        _manifest_edit(lambda m: m.update(frame=LAGRANGIAN))(os.path.join(out, EULERIAN))
        err = self._check_fails_naming(out, "need one or two distinct frames", capsys)
        assert err == "error: need one or two distinct frames, got ['lagrangian', 'lagrangian']\n"

    @pytest.mark.parametrize("speed", ["1e154", "1e160"])
    def test_overflowing_derivative_norms_fail_the_audit(self, stored_run, tmp_path, capsys,
                                                         speed):
        # finite interior velocities whose squared gradients (1e154) or
        # squares (1e160) overflow make an audit FAIL (exit 1), not a solver
        # blow-up (exit 3) or an OverflowError
        out = self._copy(stored_run, tmp_path)
        _interior_speed(speed, "")(out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            assert cli_main(["check", "--traj", out]) == 1
        captured = capsys.readouterr()
        assert "derivative_norms     FAIL" in captured.out
        # the one-line ledger reason, then the closing line, and nothing else
        reason, closing = captured.err.splitlines()
        assert reason.startswith("eulerian: stored energy row 1 = ")
        assert closing == "stored diagnostics disagree with the snapshots"
        with open(os.path.join(out, "report.json")) as fh:
            audit = json.load(fh)["audits"]["derivative_norms"]
        assert audit["verdict"] == "FAIL" and audit["margin"] == -math.inf
        assert not math.isfinite(audit["details"]["sup_grad_u_l2"])

    def test_overflowing_alpha_fails_with_margin_minus_inf(self, stored_run, tmp_path, capsys):
        # alpha and its bound overflow to inf, so their gap is inf - inf: the
        # margin is -inf, not NaN, and report.json holds no NaN
        out = self._copy(stored_run, tmp_path)
        _interior_speed("1e160", "")(out)
        assert cli_main(["check", "--traj", out]) == 1
        assert "alpha_growth         FAIL     -inf" in capsys.readouterr().out
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh, parse_constant=lambda c: pytest.fail(f"{c} in report.json")
                               if c == "NaN" else float(c))
        audit = report["audits"]["alpha_growth"]
        assert audit["verdict"] == "FAIL" and audit["margin"] == -math.inf

    def test_short_diagnostics_row(self, stored_run, tmp_path, capsys):
        out = self._copy(stored_run, tmp_path)
        diag = os.path.join(out, "diag.csv")
        lines = open(diag).read().splitlines()
        lines[2] = lines[2].rsplit(",", 3)[0]
        open(diag, "w").write("\n".join(lines) + "\n")
        self._check_fails_naming(out, "diag.csv", capsys)
        with pytest.raises(FileFormatError, match="line 3"):
            io.read_diagnostics(diag)

    def test_non_numeric_snapshot_cell(self, stored_run, tmp_path, capsys):
        # the final snapshot: check refuses its sha256, transform its cell
        out = self._copy(stored_run, tmp_path)
        with open(os.path.join(out, "manifest.json")) as fh:
            snap = os.path.join(out, json.load(fh)["snapshots"][0])
        lines = open(snap).read().splitlines()
        cells = lines[4].split(",")
        cells[1] = "abc"
        lines[4] = ",".join(cells)
        open(snap, "w").write("\n".join(lines) + "\n")
        err = self._check_fails_naming(out, os.path.basename(snap), capsys)
        assert err == f"error: {snap}: sha256 does not match the manifest\n"
        assert cli_main(["transform", "--snap", snap, "--frame", EULERIAN,
                         "--out", str(tmp_path / "lag.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {snap}: ") and "'abc'" in err and err.count("\n") == 1

    def test_manifest_index_mismatch(self, stored_run, tmp_path, capsys):
        out = self._copy(stored_run, tmp_path)
        mpath = os.path.join(out, "manifest.json")
        manifest = json.load(open(mpath))
        manifest["times"].pop()
        json.dump(manifest, open(mpath, "w"))
        self._check_fails_naming(out, "manifest.json", capsys)

    def test_report_reads_only_the_last_snapshot(self, stored_run, tmp_path, capsys):
        # the same SVGs as rendered from the fully loaded trajectory, even with
        # an earlier record no trajectory may hold, which check still reports
        full = str(tmp_path / "full")
        os.makedirs(full)
        io.render_report_plots(full, io.load_trajectory(stored_run)[0])
        out = self._copy(stored_run, tmp_path)

        def negative_density(states):
            states[0, 0, 3] = -1.0
            return states

        rewrite_states(out, negative_density)
        assert cli_main(["report", "--traj", out]) == 0
        for name in os.listdir(full):
            assert open(os.path.join(out, name), "rb").read() == open(
                os.path.join(full, name), "rb").read()
        capsys.readouterr()
        err = self._check_fails_naming(out, "states.npy", capsys)
        assert err.endswith(": min(rho) = -1.0 <= 0\n")


@pytest.fixture(scope="module")
def shear_run(tmp_path_factory):
    """The shipped shear scenario in both frames, stored to t = 0.02."""
    out = str(tmp_path_factory.mktemp("shear") / "out")
    cfg = os.path.join(os.path.dirname(estimates.__file__), "data", "shear.ini")
    assert cli_main(["run", "--config", cfg, "--t-end", "0.02", "--out-dir", out]) == 0
    return out


class TestLedger:
    """``check`` compares every stored field of ``diag.csv`` with its
    recomputation and names the first mismatch in row order in one line."""

    def _check(self, shear_run, tmp_path, capsys, corrupt):
        out = str(tmp_path / "copy")
        shutil.copytree(shear_run, out)
        corrupt(out)
        code = cli_main(["check", "--traj", out])
        err = capsys.readouterr().err
        reasons = [line for line in err.splitlines() if ": stored " in line]
        with open(os.path.join(out, "report.json")) as fh:
            return code, reasons, json.load(fh)["audits"]

    @pytest.mark.parametrize("corrupt, reason", [
        # math.exp of the Gronwall ceiling overflows: the ceiling is inf
        (_interior_speed("1e3"), "eulerian: stored energy row 1 = "),
        # the energy recomputes to inf; an inf never passes the tolerance test
        (_interior_speed("1e160"), "eulerian: stored energy row 1 = "),
        (_diag_edit("dissipation_fric", 1, lambda c: repr(float(c) * 1.5 + 1e-3)),
         "eulerian: stored dissipation_fric row 1 = "),
        (_diag_edit("u_linf", 3, lambda c: "inf"), "eulerian: stored u_linf row 3 = inf != "),
    ], ids=["speed-1e3", "speed-1e160", "fric-cell", "inf-cell"])
    def test_first_mismatch_named(self, shear_run, tmp_path, capsys, corrupt, reason):
        code, reasons, audits = self._check(shear_run, tmp_path, capsys, corrupt)
        assert code == 1
        assert len(reasons) == 1 and reasons[0].startswith(reason), reasons
        assert "np.float64(" not in reasons[0]
        assert " != recomputed " in reasons[0]
        assert audits["alpha_growth"]["verdict"] in ("PASS", "FAIL")

    @pytest.mark.parametrize("corrupt, reason", [
        (_diag_column("alpha", lambda c: repr(2 * float(c))), "eulerian: stored alpha row 0 = "),
        (_diag_edit("identity_residual", 2, lambda c: "inf", LAGRANGIAN),
         "lagrangian: stored identity_residual row 2 = inf != recomputed "),
        (_diag_column("alpha", lambda c: ""), "eulerian: stored diagnostics lack alpha"),
        (_diag_column("alpha", lambda c: "1.0", LAGRANGIAN),
         "lagrangian: stored diagnostics have alpha, which does not apply"),
    ], ids=["doubled-alpha", "inf-identity-residual", "blank-alpha-column",
            "lagrangian-alpha-column"])
    def test_time_field_mismatch_named(self, shear_run, tmp_path, capsys, corrupt, reason):
        code, reasons, _ = self._check(shear_run, tmp_path, capsys, corrupt)
        assert code == 1
        assert len(reasons) == 1 and reasons[0].startswith(reason), reasons

    def test_overflowing_gronwall_ceiling_is_inf(self, shear_run, tmp_path, capsys):
        _, _, audits = self._check(shear_run, tmp_path, capsys, _interior_speed("1e3"))
        assert audits["alpha_growth"]["details"]["gronwall_ceiling"] == math.inf

    def test_overflowing_gronwall_bound_fails(self, shear_run, tmp_path, capsys):
        # Lagrangian velocities of 1e160 overflow C4 and with it the bound:
        # an infinite bound proves nothing, so gronwall FAILs with margin
        # -inf, and report.json holds no NaN
        out = str(tmp_path / "copy")
        shutil.copytree(shear_run, out)
        _interior_speed("1e160", LAGRANGIAN)(out)
        assert cli_main(["check", "--traj", out]) == 1
        assert "gronwall             FAIL     -inf" in capsys.readouterr().out
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh, parse_constant=lambda c: pytest.fail(f"{c} in report.json")
                               if c == "NaN" else float(c))
        audit = report["audits"]["gronwall"]
        assert audit["verdict"] == "FAIL" and audit["margin"] == -math.inf
        assert audit["details"]["c4"] == math.inf

    def test_header_only_ledger(self, shear_run, tmp_path, capsys):
        out = str(tmp_path / "copy")
        shutil.copytree(shear_run, out)
        path = os.path.join(out, EULERIAN, "diag.csv")
        header = open(path).readline()
        open(path, "w").write(header)
        assert cli_main(["check", "--traj", out]) == 1
        assert "eulerian: diagnostics rows != snapshots" in capsys.readouterr().err

    def test_untouched_ledger_passes(self, shear_run, tmp_path, capsys):
        code, reasons, _ = self._check(shear_run, tmp_path, capsys, lambda out: None)
        assert code == 0 and reasons == []


@pytest.mark.parametrize("stored, fresh, match", [
    (math.inf, math.inf, True),
    (-math.inf, -math.inf, True),
    (math.nan, math.nan, True),
    (1.0 + 5e-10, 1.0, True),
    (2e9 + 1.0, 2e9, True),
    (1.0 + 2e-9, 1.0, False),
    (1.0, math.inf, False),
    (math.inf, 1.0, False),
    (-math.inf, math.inf, False),
    (math.nan, 1.0, False),
    (1.0, math.nan, False),
    (1e308, -1e308, False),
])
def test_ledger_comparison(stored, fresh, match):
    from mixflow.cli import _ledger_mismatch

    # the case is the energy of row 1, between an agreeing row 0 and a row 2
    # whose u_linf disagrees
    names = estimates.STATE_FIELDS

    def ledger(energy, u_linf):
        rows = np.zeros((3, len(names)))
        rows[1, 1], rows[2, -1] = energy, u_linf
        return dict(zip(names, rows.T))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as cli_main sets it
        got = _ledger_mismatch(ledger(stored, 3.0), ledger(fresh, 4.0))
    assert got == ((2, "u_linf") if match else (1, "energy"))


@pytest.fixture(scope="session")
def stored_two_frames(tmp_path_factory):
    return cli_cases.stored_run(str(tmp_path_factory.mktemp("cases")), cli_cases.in_process)


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda case: case.id)
def test_cli_case(case, tmp_path, stored_two_frames):
    assert cli_cases.faults(case, str(tmp_path), cli_cases.in_process, stored_two_frames) == []


# documented lines no row can print: a worker death and a MemoryError take a
# monkeypatch (tests/test_concurrent.py, TestCli.test_out_of_memory_exit_2_one_line)
ELSEWHERE = ("error: worker 1 exited with code 9 before returning a result",
             "error: out of memory")


def test_readme_exit_lines_have_rows():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    section = readme.split("\n## Exit codes\n")[1].split("\n## ")[0]
    documented = re.findall(r"^ +- `([^`]+)`", section, re.M)
    assert len(documented) >= 20
    lines = [line for case in cli_cases.ROWS for line in case.err] + list(ELSEWHERE)
    patterns = [re.sub(r"<[^<>]+>", ".+", re.escape(doc)) for doc in documented]
    assert [doc for doc, pat in zip(documented, patterns)
            if not any(re.fullmatch(pat, line) for line in lines)] == []


def test_report_of_two_frames_into_one_out_dir(shear_run, tmp_path, capsys):
    out = tmp_path / "plots"
    assert cli_main(["report", "--traj", shear_run, "--out-dir", str(out)]) == 0
    made = capsys.readouterr().out.split()
    assert sorted(made) == sorted(str(out / frame / name) for frame in (EULERIAN, LAGRANGIAN)
                                  for name in os.listdir(out / frame))
    assert len(made) == 6
    for frame in (EULERIAN, LAGRANGIAN):
        assert f"({frame})" in (out / frame / "plot_final_profiles.svg").read_text()
