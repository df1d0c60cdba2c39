"""``check`` on a stored run with one corrupted field, cell, byte or float.

Each example copies a tiny stored two-frame run and changes, in one frame,
one manifest field, one ``diag.csv`` cell, one byte of ``states.npy``, one
float of ``states.npy`` (its sha256 rewritten to match) or one cell of the
final snapshot, with or without its sha256 rewritten.  ``check`` must end
with exit 1 or 2 and a one-line reason, never a traceback, and the
``report.json`` it leaves holds no NaN; a re-digested final snapshot must
still be the last record, so each edit of it exits 2.
"""

import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mixflow.cli import cli_main
from mixflow.field import EULERIAN, LAGRANGIAN

from conftest import redigest, rewrite_states
from test_io_cli import SMALL_CONFIG

CLOSING = "stored diagnostics disagree with the snapshots"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    # integers beyond float range, which JSON holds and float() cannot take
    | st.integers(min_value=2**1024) | st.integers(max_value=-2**1024),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=6,
)
CELLS = st.floats().map(repr) | st.text(
    st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)), max_size=8)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """SMALL_CONFIG in both frames at n 16 to t 0.01: two records per frame."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "case.ini"
    cfg.write_text(SMALL_CONFIG)
    out = str(root / "out")
    assert cli_main(["run", "--config", str(cfg), "--n-cells", "16", "--t-end", "0.01",
                     "--out-dir", out]) == 0
    return out


def _material(old: str, new: str) -> bool:
    """Whether a cell edit is a corruption check must see: a number moved
    by less than 1e-3 (relative to max(1, |old|)) can leave every ledger
    field within check's relative 1e-9, so it is not one."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return new != old
    return not abs(a - b) <= 1e-3 * max(1.0, abs(a))


def _edit_manifest(sub, data):
    path = os.path.join(sub, "manifest.json")
    manifest = json.load(open(path))
    key = data.draw(st.sampled_from(sorted(manifest)), label="field")
    value = data.draw(JSON_VALUES, label="value")
    assume(value != manifest[key])
    manifest[key] = value
    json.dump(manifest, open(path, "w"))


def _edit_byte(path, data):
    blob = bytearray(open(path, "rb").read())
    k = data.draw(st.integers(0, len(blob) - 1), label="byte")
    value = data.draw(st.integers(0, 255), label="value")
    assume(value != blob[k])
    blob[k] = value
    open(path, "wb").write(blob)


def _edit_float(sub, data):
    def change(states):
        k = tuple(data.draw(st.integers(0, n - 1), label=axis)
                  for n, axis in zip(states.shape, ("record", "row", "node")))
        value = data.draw(st.floats(), label="float")
        assume(_material(repr(float(states[k])), repr(value)))
        states[k] = value
        return states
    rewrite_states(sub, change)


def _edit_cell(path, data):
    rows = [line.split(",") for line in open(path).read().splitlines()]
    row = data.draw(st.integers(0, len(rows) - 1), label="row")
    col = data.draw(st.integers(0, len(rows[row]) - 1), label="column")
    text = data.draw(CELLS, label="cell")
    assume(_material(rows[row][col], text))
    rows[row][col] = text
    open(path, "w").write("\n".join(map(",".join, rows)) + "\n")


@settings(derandomize=True, database=None, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_one_corruption_fails_check_with_one_line(tiny_run, tmp_path_factory, data):
    out = str(tmp_path_factory.mktemp("fuzz") / "traj")
    shutil.copytree(tiny_run, out)
    sub = os.path.join(out, data.draw(st.sampled_from([EULERIAN, LAGRANGIAN]), label="frame"))
    target = data.draw(st.sampled_from(["manifest.json", "diag.csv", "states.npy byte",
                                        "states.npy float", "final snapshot",
                                        "final snapshot, re-digested"]), label="target")
    if target == "manifest.json":
        _edit_manifest(sub, data)
    elif target == "diag.csv":
        _edit_cell(os.path.join(sub, target), data)
    elif target == "states.npy byte":
        _edit_byte(os.path.join(sub, "states.npy"), data)
    elif target == "states.npy float":
        _edit_float(sub, data)
    else:
        with open(os.path.join(sub, "manifest.json")) as fh:
            _edit_cell(os.path.join(sub, json.load(fh)["snapshots"][0]), data)
        if target == "final snapshot, re-digested":
            redigest(sub)

    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(["check", "--traj", out])
    err = stderr.getvalue().splitlines()
    assert "Traceback" not in stderr.getvalue()
    assert code == 2 or target != "final snapshot, re-digested", err
    if code == 2:
        assert len(err) == 1, err
    else:
        assert code == 1
        # a ledger mismatch names its frame, then check closes with one line;
        # an audit FAIL shows in the printed report alone
        assert err == [] or (len(err) == 2 and err[1] == CLOSING), err
    with open(os.path.join(out, "report.json")) as fh:
        json.load(fh, parse_constant=lambda c: pytest.fail(f"{c} in report.json")
                  if c == "NaN" else float(c))
