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
from mixflow.field import EULERIAN, LAGRANGIAN, Grid1D
from mixflow.runner import execute, integrate, save_result
from mixflow.timestepping import SEMI_IMPLICIT, SchemeConfig

import cli_cases
from conftest import DATA, records, rewrite_states, row_test, run_row

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

    test_check_detects_tampered_energy = row_test("tampered-energy")
    test_usage_error_exit_2 = row_test("missing-config", "gamma-below-one")

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

    test_overflowing_run_prints_only_its_reason = row_test(cases={
        "velocity-eulerian": "overflowing-run", **{case: f"overflowing-{case}" for case in (
            "velocity-lagrangian", "friction-eulerian", "friction-lagrangian")}})

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

    test_directory_without_a_trajectory = row_test(cases={
        "check": "no-trajectory-manifest", "report": "report-without-trajectory"})

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

    test_malformed_flag_value_one_line = row_test(cases={
        "--n-cells-abc-[scheme] n_cells: invalid literal for int() with base 10: 'abc'":
            "malformed-n-cells",
        "--t-end-x-[scheme] t_end: could not convert string to float: 'x'": "malformed-t-end",
        "--n-cells-100000000000000000000-n_cells must lie in [8, 2147483646], got "
        "100000000000000000000": "n-cells-beyond-grid"})


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

    test_transform_degenerate_mass_map_exit_2 = row_test("mass-map-not-monotone")


#: the mms rows of tests/cli_cases.py under the case ids of the tests they replaced
MMS_CASES = {f"args{k}": row for k, row in enumerate([
    "mms-levels-not-integer", "mms-one-level", "mms-repeated-level", "mms-decreasing-levels",
    "mms-zero-horizon", "mms-negative-horizon", "mms-nan-horizon", "mms-infinite-horizon",
    "mms-level-below-grid", "mms-horizon-1e-13", "mms-level-beyond-grid"])}


class TestMmsArguments:
    @pytest.mark.parametrize("row", MMS_CASES.values(), ids=MMS_CASES)
    def test_bad_arguments_exit_2_one_line(self, row, tmp_path, stored_two_frames, monkeypatch):
        # every level is checked before the ladder forks its worker
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before the levels were checked"))
        run_row(row, tmp_path, stored_two_frames)

    test_refused_study_makes_no_out_dir = row_test(cases=MMS_CASES)


class TestUnwritableOutputs:
    """An output path that cannot be written exits 2 with one line naming it."""

    test_run_out_dir_below_a_file = row_test("out-dir-below-a-file")
    test_transform_out_in_missing_directory = row_test("transform-into-missing-dir")

    def test_mms_out_dir_is_a_file(self, tmp_path, stored_two_frames):
        run_row("mms-out-dir-is-a-file", tmp_path, stored_two_frames)
        assert (tmp_path / "afile").read_text() == ""


class TestEmptyAuditList:
    test_check_flag = row_test(cases={
        ",": "check-comma-audits", " , ": "check-blank-audits", "": "check-empty-audits"})
    test_ini_key = row_test(cases={
        "": "empty-audits", ",": "no-audits-requested", " , ,": "blank-audits"})

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


class TestTrajectoryFormatFaults:
    def _copy(self, stored_run, tmp_path):
        out = str(tmp_path / "copy")
        shutil.copytree(stored_run, out)
        return out

    test_corrupt_store = row_test(cases=[case.id for case in cli_cases.STORE_FAULTS])
    test_typed_field_from_the_check_worker = row_test("lagrangian-n-cells-type")
    test_frames_with_different_params = row_test("frames-with-different-params")
    test_two_stores_of_one_frame = row_test("two-stores-of-one-frame")
    test_non_numeric_snapshot_cell = row_test("final-snapshot-digest", "transform-non-numeric-cell")
    test_manifest_index_mismatch = row_test("times-shorter-than-states")

    def test_short_diagnostics_row(self, tmp_path, stored_two_frames):
        run_row("short-diag-row", tmp_path, stored_two_frames)
        with pytest.raises(FileFormatError, match="line 3"):
            io.read_diagnostics(str(tmp_path / "store" / "eulerian" / "diag.csv"))

    def test_store_beyond_memory_is_not_a_format_fault(self, stored_run, capsys, monkeypatch):
        # a whole states.npy too large to load: README's out-of-memory line
        def exhausted(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(np, "load", exhausted)
        assert cli_main(["check", "--traj", stored_run]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]

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
        assert cli_main(["check", "--traj", out]) == 2
        assert capsys.readouterr().err == f"error: {out}/states.npy: min(rho) = -1.0 <= 0\n"


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

    test_time_field_mismatch_named = row_test(cases={
        "doubled-alpha": "doubled-alpha-column",
        **{case: case for case in ("inf-identity-residual", "blank-alpha-column",
                                   "lagrangian-alpha-column")}})

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

    test_header_only_ledger = row_test("header-only-ledger")

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
    from mixflow.cli import _ledger_fault

    # the case is the energy of row 1, between an agreeing row 0 and a row 2
    # whose u_linf disagrees
    names = estimates.STATE_FIELDS

    def ledger(energy, u_linf):
        rows = np.zeros((3, len(names)))
        rows[1, 1], rows[2, -1] = energy, u_linf
        return dict(zip(names, rows.T))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as cli_main sets it
        got = _ledger_fault(ledger(stored, 3.0), ledger(fresh, 4.0))
    assert got.startswith("stored u_linf row 2 = " if match else "stored energy row 1 = ")


test_cli_case = row_test(cases=[case.id for case in cli_cases.ROWS])


#: one cell text on line 3 of a final snapshot (transform), of an initial-data
#: table (run) and of diag.csv (check)
ONE_CELL = [("transform", (*cli_cases.TO_LAGRANGIAN, "--out", "{out}"), cli_cases.store,
             "{store}/eulerian/{final}", "rho"),
            ("run", (*cli_cases.RUN, "--n-cells", "8", "--t-end", "1e-6", "--out-dir", "{out}"),
             cli_cases.ini("random_smooth", table=lambda lines: lines), cli_cases.TABLE, "rho"),
            ("check", cli_cases.CHECK, cli_cases.store, "{store}/eulerian/diag.csv", "energy")]


@pytest.mark.parametrize("cell, refused", [
    pytest.param("1\x1c", True, id="control-byte"), pytest.param("1_0", True, id="digit-group"),
    pytest.param("١", True, id="arabic-indic-one"), pytest.param(" 1 ", False, id="spaces"),
    pytest.param("nan", False, id="nan"), pytest.param("inf", False, id="inf"),
    pytest.param("1e400", False, id="beyond-float"), pytest.param("+1", False, id="plus-sign"),
    pytest.param("0x1p3", True, id="hex-float"), pytest.param("", True, id="empty")])
def test_every_csv_reads_a_cell_alike(cell, refused, tmp_path, stored_two_frames):
    # each file refuses the cell on its line 3, with the same reason, or reads it as a number
    verdicts = []
    for verb, argv, setup, path, name in ONE_CELL:
        fields = {"tmp": str(tmp_path / verb), "out": str(tmp_path / verb / "out"),
                  "store": str(tmp_path / verb / "store"), "data": DATA,
                  "pristine": stored_two_frames}
        os.mkdir(fields["tmp"])
        for step in setup, cli_cases.column(path, name, lambda c: cell, slice(1, 2)):
            step(fields, cli_cases.in_process)
        err = cli_cases.in_process([arg.format(**fields) for arg in argv])[2]
        verdicts.append([re.sub(rf": {name} is empty$", ": empty", line)
                         for line in re.findall(r": (line \d+.*)$", err, re.M)])
    assert verdicts[0] == verdicts[1] == verdicts[2], verdicts
    assert [line.split(":")[0] for line in verdicts[0]] == (["line 3"] if refused else [])


def test_two_calls_build_one_parser_and_call_the_verb_of_the_moment(monkeypatch):
    # the verb is looked up per call, so a wrapper installed after the first
    # call (the benchmark's tracer) still sees every later one
    _build_parser.cache_clear()
    assert cli_main(["check", "--traj", "a", "--audits", ","]) == 2
    seen = []
    monkeypatch.setattr("mixflow.cli._cmd_check", lambda args: seen.append(args.traj) or 0)
    assert cli_main(["check", "--traj", "b"]) == 0
    assert seen == ["b"]
    assert _build_parser.cache_info().misses == 1


def test_row_ids_are_unique():
    # pytest would suffix a repeated id, and cli_cases.py selects rows by id
    ids = [case.id for case in cli_cases.ROWS]
    assert sorted({row for row in ids if ids.count(row) > 1}) == []


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
