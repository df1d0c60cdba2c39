"""scipy is loaded on first use, not with mixflow.

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
SHORT_CONFIG = SMALL_CONFIG.replace("t_end = 0.15", "t_end = 0.02")

CLI = """
import sys
from mixflow.cli import cli_main
assert cli_main(sys.argv[1:]) == 0
"""
EXECUTE = """
import sys
from mixflow.config import parse_config
from mixflow.runner import execute
before = "scipy.interpolate" in sys.modules
execute(parse_config(sys.argv[1]))
print(before)
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


def test_two_frame_execute_transforms_before_the_fork():
    # the worker of the second frame inherits scipy.interpolate from the caller
    lines, scipy = fresh(EXECUTE, SHORT_CONFIG)
    assert lines == ["False"]
    assert "scipy.interpolate" in scipy
