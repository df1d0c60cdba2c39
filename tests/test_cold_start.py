"""Only the semi-implicit solve loads scipy (LAPACK's dgtsv from scipy.linalg);
every other verb and an explicit run never do.

Each case runs in a fresh interpreter, because this test process has
imported scipy already.  The interpreter prints, as its last line, the JSON
list of the ``scipy*`` modules it holds at the end.
"""

import json
import os
import subprocess
import sys

import pytest

import mixflow
from mixflow.cli import cli_main

from test_io_cli import SMALL_CONFIG

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mixflow.__file__)))
DATA = os.path.join(os.path.dirname(os.path.abspath(mixflow.__file__)), "data")
SHORT_CONFIG = SMALL_CONFIG.replace("t_end = 0.15", "t_end = 0.02")

CLI = """
import sys
from mixflow.cli import cli_main
assert cli_main(sys.argv[1:]) == 0
"""
TRANSFORM = """
import sys
from mixflow.cli import cli_main
snap, lag, eul = sys.argv[1:]
assert cli_main(["transform", "--snap", snap, "--frame", "eulerian", "--out", lag]) == 0
assert cli_main(["transform", "--snap", lag, "--frame", "lagrangian", "--out", eul]) == 0
"""
SCIPY_MODULES = """
print(__import__("json").dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def fresh(code: str, *args: str) -> tuple[list[str], list[str]]:
    """The output lines and the final ``scipy*`` modules of ``code`` run in a
    new interpreter with ``args``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code + SCIPY_MODULES, *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def rk2_run(tmp_path_factory):
    """A stored single-frame explicit RK2 run."""
    root = tmp_path_factory.mktemp("cold")
    cfg = root / "case.ini"
    cfg.write_text(SHORT_CONFIG.replace("frame = both", "frame = eulerian"))
    out = str(root / "out")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", out]) == 0
    return out


def test_import_loads_no_scipy():
    assert fresh("import sys, mixflow, mixflow.cli") == ([], [])


def test_check_loads_no_scipy(rk2_run):
    lines, scipy = fresh(CLI, "check", "--traj", rk2_run)
    assert any(line.startswith("overall") for line in lines)
    assert scipy == []


def test_report_loads_no_scipy(rk2_run, tmp_path):
    lines, scipy = fresh(CLI, "report", "--traj", rk2_run,
                         "--out-dir", str(tmp_path))
    assert lines and all(line.endswith(".svg") for line in lines)
    assert scipy == []


def test_mms_loads_no_scipy(tmp_path):
    _, scipy = fresh(CLI, "mms", "--levels", "8,16",
                     "--t-end", "0.01", "--out-dir", str(tmp_path))
    assert os.listdir(tmp_path) == ["mms_eulerian_central-2.json"]
    assert scipy == []


def test_two_frame_execute_loads_no_scipy(tmp_path):
    # shear.ini runs RK2 in both frames: the start of the mass-coordinate frame
    # is interpolated, and a worker solves that frame
    lines, scipy = fresh(CLI, "run", "--config", os.path.join(DATA, "shear.ini"), "--t-end", "0.01",
                         "--n-cells", "32", "--out-dir", str(tmp_path))
    assert lines[-1] == f"outputs under {tmp_path}"
    assert sorted(os.listdir(tmp_path)) == ["eulerian", "lagrangian", "report.json"]
    assert scipy == []


def test_transform_both_ways_loads_no_scipy(rk2_run, tmp_path):
    with open(os.path.join(rk2_run, "manifest.json")) as fh:
        final = json.load(fh)["snapshots"][0]
    snap, lag, eul = (os.path.join(rk2_run, final),
                      str(tmp_path / "lag.csv"), str(tmp_path / "eul.csv"))
    lines, scipy = fresh(TRANSFORM, snap, lag, eul)
    assert lines == [f"eulerian -> lagrangian: wrote {lag}", f"lagrangian -> eulerian: wrote {eul}"]
    assert scipy == []


def test_table_run_that_interpolates_loads_no_scipy(tmp_path):
    # the table's 1025 rows do not match 49 nodes, so both frames interpolate it
    lines, scipy = fresh(CLI, "run", "--config", os.path.join(DATA, "random_smooth.ini"),
                         "--n-cells", "48", "--t-end", "0.001", "--out-dir", str(tmp_path))
    assert lines[-1] == f"outputs under {tmp_path}"
    assert scipy == []


def test_semi_implicit_run_loads_scipy_linalg_only(tmp_path):
    # both frames: dgtsv for the viscous solves, the transform without scipy
    _, scipy = fresh(CLI, "run", "--config", os.path.join(DATA, "shear.ini"), "--n-cells", "32",
                     "--t-end", "0.01", "--scheme", "semi-implicit", "--out-dir", str(tmp_path))
    assert "scipy.linalg" in scipy
    assert not any(m.startswith("scipy.interpolate") for m in scipy)
