import json
import os
import shutil

import numpy as np
import pytest

from mixflow import estimates, io
from mixflow.errors import FileFormatError
from mixflow.cli import cli_main
from mixflow.config import parse_config
from mixflow.euler import SchemeConfig, run
from mixflow.field import EULERIAN
from mixflow.runner import execute, save_result

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
    rc = parse_config(SMALL_CONFIG).replace(out_dir=str(out / "traj"))
    result = execute(rc)
    save_result(result, rc.out_dir)
    return rc, result


class TestTrajectoryIO:
    def test_round_trip(self, params2, derived2, shear_state, tmp_path):
        traj = run(shear_state, params2, derived2, SchemeConfig(), 0.1, snapshot_every=10,
                   make_record=estimates.record_maker(params2, derived2))
        estimates.attach_time_fields(traj, params2, derived2)
        io.save_trajectory(str(tmp_path), traj, params2, SchemeConfig())
        back, params_back, manifest = io.load_trajectory(str(tmp_path))
        assert params_back == params2
        assert back.frame == traj.frame
        assert len(back) == len(traj)
        for a, b in zip(traj.states, back.states):
            assert a.time == b.time
            assert np.array_equal(a.rho, b.rho)
            assert np.array_equal(a.U, b.U)
        for ra, rb in zip(traj.diagnostics, back.diagnostics):
            assert ra.energy == rb.energy
            assert ra.alpha == rb.alpha
            assert ra.identity_residual is None and rb.identity_residual is None

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
        assert len(manifest["times"]) == len(manifest["snapshots"])
        assert "params_hash" in manifest and len(manifest["params_hash"]) == 64

    def test_determinism_bit_identical(self, tmp_path):
        rc = parse_config(SMALL_CONFIG).replace(frame=EULERIAN, n_cells=32, t_end=0.05)
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
        # the last valid trajectory is preserved on disk
        assert os.path.exists(os.path.join(out, "eulerian", "manifest.json"))

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


class TestMmsArguments:
    @pytest.mark.parametrize("args", [
        ["--levels", "32,x"],
        ["--levels", "32"],
        ["--levels", "32,32"],
        ["--levels", "64,32"],
        ["--t-end", "0"],
        ["--t-end", "-0.1"],
        ["--t-end", "nan"],
        ["--t-end", "inf"],
    ])
    def test_bad_arguments_exit_2_one_line(self, args, capsys):
        assert cli_main(["mms", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """A small Eulerian run on disk; tests corrupt copies of it."""
    root = tmp_path_factory.mktemp("stored")
    cfg = root / "case.ini"
    cfg.write_text(SMALL_CONFIG.replace("frame = both", "frame = eulerian"))
    out = str(root / "out")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", out]) == 0
    return out


def _snapshot_edit(edit, name="snap_00001.csv"):
    """A corruption that rewrites the lines of one snapshot file."""
    def corrupt(out):
        path = os.path.join(out, name)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(edit(lines)) + "\n")
    return corrupt


def _manifest_edit(edit):
    """A corruption that edits the parsed manifest in place and writes it back."""
    def corrupt(out):
        path = os.path.join(out, "manifest.json")
        manifest = json.load(open(path))
        edit(manifest)
        json.dump(manifest, open(path, "w"))
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

    @pytest.mark.parametrize("corrupt, name, reason", [
        (_snapshot_edit(lambda lines: lines[:1]), "snap_00001.csv", "no data rows"),
        (_snapshot_edit(lambda lines: [",".join(r.split(",")[:2]) for r in lines]),
         "snap_00001.csv", "2 columns"),
        (_snapshot_edit(lambda lines: lines[:1] + [r.rsplit(",", 1)[0] for r in lines[1:]]),
         "snap_00001.csv", "3 columns for the 4 of header"),
        (_snapshot_edit(lambda lines: [r.rsplit(",", 1)[0] for r in lines]),
         "snap_00001.csv", "1 velocities"),
        (_snapshot_edit(lambda lines: lines[:5] + lines[6:]), "snap_00001.csv", "48 nodes"),
        (_manifest_edit(lambda m: m["params"].update(gamma=1.0)),
         "manifest.json", "gamma must be > 1"),
        (_manifest_edit(lambda m: m["params"]["viscosity"][0].__setitem__(1, 0.03)),
         "manifest.json", "M is not symmetric"),
        (_manifest_edit(lambda m: m["params"].update(pressure_coeff=1.5)),
         "manifest.json", "params_hash does not match"),
        (_manifest_edit(lambda m: m["times"].reverse()),
         "manifest.json", "strictly increasing"),
        (_manifest_edit(lambda m: m["times"].__setitem__(1, float("nan"))),
         "manifest.json", "strictly increasing"),
        (_manifest_edit(lambda m: m.update(times=[t - 1.0 for t in m["times"]])),
         "manifest.json", "non-negative"),
        (_manifest_edit(lambda m: m.update(frame="physical")), "manifest.json", "unknown frame"),
        (_manifest_edit(lambda m: m["snapshots"].__setitem__(0, 7)),
         "manifest.json", "list of file names"),
        (_manifest_edit(lambda m: m.update(domain_length=3.0)), "snap_00000.csv", "(0, 3.0)"),
        (_manifest_edit(lambda m: m.update(params=[1, 2])),
         "manifest.json", "field 'params' must be an object, got [1, 2]"),
        (_manifest_edit(lambda m: m.update(n_cells="x")),
         "manifest.json", "field 'n_cells' must be an integer, got \"x\""),
        (_manifest_edit(lambda m: m.update(domain_length=None)),
         "manifest.json", "field 'domain_length' must be a number, got null"),
        (_manifest_edit(lambda m: m["params"].update(gamma="1.4")),
         "manifest.json", "field 'gamma' must be a number"),
        (_manifest_edit(lambda m: m["params"]["friction"][1].pop()),
         "manifest.json", "field 'friction' must be a matrix of numbers"),
        (_manifest_edit(lambda m: m["times"].__setitem__(1, "0.1")),
         "manifest.json", "field 'times' must be a list of numbers"),
    ], ids=["header-only-snapshot", "two-column-snapshot", "columns-differ-from-header",
            "velocity-count", "node-count", "gamma-one", "asymmetric-viscosity",
            "params-hash", "reversed-times", "non-finite-time", "negative-time",
            "unknown-frame", "snapshot-index", "domain-length", "params-type",
            "n-cells-type", "domain-length-type", "gamma-type", "ragged-friction",
            "times-type"])
    def test_corrupt_store(self, stored_run, tmp_path, capsys, corrupt, name, reason):
        out = self._copy(stored_run, tmp_path)
        corrupt(out)
        assert reason in self._check_fails_naming(out, name, capsys)

    def test_typed_field_from_the_check_worker(self, small_run, tmp_path, capsys):
        # with both frames stored, the Lagrangian directory is read in a forked worker
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

    def test_missing_snapshot_file(self, stored_run, tmp_path, capsys):
        out = self._copy(stored_run, tmp_path)
        os.remove(os.path.join(out, "snap_00001.csv"))
        self._check_fails_naming(out, "snap_00001.csv", capsys)

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
        out = self._copy(stored_run, tmp_path)
        snap = os.path.join(out, "snap_00002.csv")
        lines = open(snap).read().splitlines()
        cells = lines[4].split(",")
        cells[1] = "abc"
        lines[4] = ",".join(cells)
        open(snap, "w").write("\n".join(lines) + "\n")
        self._check_fails_naming(out, "snap_00002.csv", capsys)

    def test_manifest_index_mismatch(self, stored_run, tmp_path, capsys):
        out = self._copy(stored_run, tmp_path)
        mpath = os.path.join(out, "manifest.json")
        manifest = json.load(open(mpath))
        manifest["times"].pop()
        json.dump(manifest, open(mpath, "w"))
        self._check_fails_naming(out, "manifest.json", capsys)

    def test_report_reads_only_the_last_snapshot(self, stored_run, tmp_path, capsys):
        # the same SVGs as rendered from the fully loaded trajectory, even with
        # an earlier snapshot gone, which check still reports
        full = str(tmp_path / "full")
        os.makedirs(full)
        io.render_report_plots(full, io.load_trajectory(stored_run)[0])
        out = self._copy(stored_run, tmp_path)
        os.remove(os.path.join(out, "snap_00000.csv"))
        assert cli_main(["report", "--traj", out]) == 0
        for name in os.listdir(full):
            assert open(os.path.join(out, name), "rb").read() == open(
                os.path.join(full, name), "rb").read()
        capsys.readouterr()
        self._check_fails_naming(out, "snap_00000.csv", capsys)
