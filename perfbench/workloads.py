"""Workload table, seeded input generator and the checked operations.

Every operation goes through ``mixflow.cli.cli_main`` in-process, the way a
user drives the program.  An operation fails when it raises, exits 2 or 3,
``check`` reports a ledger mismatch or other verdicts than ``run``, its output
digest differs from the first repetition of the same invocation, or, at seed
0, its final state lies outside ``REF_RTOL``/``REF_ATOL`` of the reference in
``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass

import mixflow
from mixflow.cli import cli_main
from mixflow.config import make_initial, parse_config_file
from mixflow.field import Grid1D
from mixflow.lagrange import euler_to_lagrange
from mixflow.mms import ManufacturedFields, default_params
from mixflow.model import derive_matrices

DATA_DIR = os.path.join(os.path.dirname(mixflow.__file__), "data")
TABLE_CSV = "random_smooth_init.csv"
CORPUS = ("rest", "equal_velocity", "shear", "gaussian_bump", "near_vacuum", "random_smooth")
MMS_STUDIES = (
    ("eulerian", "central"), ("eulerian", "upwind"),
    ("lagrangian", "central"), ("lagrangian", "upwind"),
)
MMS_LEVELS = (32, 64, 128)

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REF_RTOL = 1e-8
REF_ATOL = 1e-12
REF_SAMPLES = 17  # nodes kept per field in the reference, evenly spaced


@dataclass(frozen=True)
class Workload:
    """One named set of operations.

    ``t_end`` shortens the shipped horizon so that one repetition takes a
    few seconds; it is the same for every commit.  The harness self-test
    runs a tenth of it.
    """

    name: str
    why: str
    cases: tuple[str, ...]  # shipped scenarios; empty for the mms ladder
    t_end: float
    scheme: str | None = None  # --scheme override of run
    snapshot_every: int | None = None  # written into the generated INI
    verbs: tuple[str, ...] = ("run", "check")
    expected_fails: frozenset = frozenset()  # audits known to FAIL here


WORKLOADS = {w.name: w for w in (
    Workload(
        "shear-rk2",
        "shipped shear.ini as configured: explicit RK2 at n = 256 in both frames, "
        "the dispatch-bound kernel path",
        ("shear",), t_end=0.05,
    ),
    Workload(
        "corpus-imex",
        "all six shipped scenarios under the semi-implicit scheme: banded viscous "
        "solves on six small independent cases",
        CORPUS, t_end=0.25, scheme="semi-implicit",
        # known defect: the energy budget is integrated over records, so at stride 40
        # the semi-implicit runs exceed its tolerance
        expected_fails=frozenset({"energy_budget"}),
    ),
    Workload(
        "dense-records",
        "random_smooth at snapshot_every = 1: records, audits, snapshot writes and "
        "reads dominate while the kernels do little",
        ("random_smooth",), t_end=0.15, scheme="semi-implicit",
        snapshot_every=1, verbs=("run", "check", "report"),
    ),
    Workload(
        "mms-ladder",
        "mms for both frames and advections at levels 32/64/128: the only user of "
        "the forcing layer, small grids, no records or I/O",
        (), t_end=0.1, verbs=("mms",),
    ),
)}


# ---------------------------------------------------------------------------
# seeded inputs


def perturb_spec(spec: str, rng: random.Random) -> str:
    """Rescale each gaussian/sine amplitude within 10% and shift each gaussian
    centre within 0.02; every other descriptor is returned unchanged."""
    terms = []
    for term in spec.split("+"):
        kind, sep, body = term.strip().partition(":")
        if kind in ("gaussian", "sine"):
            pairs = []
            for item in body.split(","):
                key, _, val = item.partition("=")
                key = key.strip()
                if key == "amp":
                    val = repr(float(val) * rng.uniform(0.9, 1.1))
                elif key == "center" and kind == "gaussian":
                    val = repr(float(val) + rng.uniform(-0.02, 0.02))
                pairs.append(f"{key}={val.strip()}")
            term = f"{kind}{sep}{','.join(pairs)}"
        terms.append(term.strip())
    return " + ".join(terms)


def make_ini(text: str, seed: int, snapshot_every: int | None = None) -> str:
    """Seed 0 returns the shipped text unchanged (apart from the stride, when
    the workload sets one); other seeds perturb the [initial] descriptors."""
    rng = random.Random(seed)
    out, section = [], None
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1]
        elif "=" in stripped and not stripped.startswith(("#", ";")):
            key, _, val = stripped.partition("=")
            if section == "initial" and seed != 0:
                line = f"{key.strip()} = {perturb_spec(val, rng)}\n"
            elif section == "output" and key.strip() == "snapshot_every" and snapshot_every:
                line = f"snapshot_every = {snapshot_every}\n"
        out.append(line)
    return "".join(out)


def write_inputs(wl: Workload, seed: int, in_dir: str) -> list[tuple[str, str]]:
    """Write the workload's INIs under ``in_dir``; returns (case, path) pairs."""
    os.makedirs(in_dir, exist_ok=True)
    cases = []
    for case in wl.cases:
        with open(os.path.join(DATA_DIR, f"{case}.ini")) as fh:
            text = make_ini(fh.read(), seed, wl.snapshot_every)
        path = os.path.join(in_dir, f"{case}.ini")
        with open(path, "w") as fh:
            fh.write(text)
        cases.append((case, path))
    if cases:  # random_smooth reads its initial data from this table
        shutil.copyfile(os.path.join(DATA_DIR, TABLE_CSV), os.path.join(in_dir, TABLE_CSV))
    return cases


def setup(wl: Workload, seed: int, in_dir: str) -> list[tuple[str, str]]:
    """Generate the inputs and build every case's initial data and matrices
    (for the mms ladder: the manufactured initial state of every level)."""
    cases = write_inputs(wl, seed, in_dir)
    for _, path in cases:
        rc = parse_config_file(path)
        initial = make_initial(rc.initial, Grid1D(domain_length=1.0, n_cells=rc.n_cells))
        derive_matrices(rc.params)
        euler_to_lagrange(initial)
    if "mms" in wl.verbs:
        for frame, _ in MMS_STUDIES:
            params = default_params(T_final=2.0)
            derive_matrices(params)
            length = 1.0 if frame == "eulerian" else 2.0
            fields = ManufacturedFields(params=params, frame=frame, domain_length=length)
            for n in MMS_LEVELS:
                fields.state(Grid1D(domain_length=length, n_cells=n))
    return cases


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    key: str  # e.g. "run:shear", "mms:eulerian:central"
    verb: str
    argv: list[str]
    out: str  # directory the operation writes into


def plan(wl: Workload, cases: list[tuple[str, str]], out_root: str, tiny: bool) -> list[Op]:
    t_end = repr(wl.t_end / 10 if tiny else wl.t_end)
    ops = []
    for case, ini in cases:
        out = os.path.join(out_root, case)
        argv = ["run", "--config", ini, "--out-dir", out, "--t-end", t_end]
        if wl.scheme:
            argv += ["--scheme", wl.scheme]
        ops.append(Op(f"run:{case}", "run", argv, out))
        for verb in wl.verbs[1:]:
            ops.append(Op(f"{verb}:{case}", verb, [verb, "--traj", out], out))
    if "mms" in wl.verbs:
        out = os.path.join(out_root, "mms")
        for frame, adv in MMS_STUDIES:
            argv = ["mms", "--frame", frame, "--advection", adv, "--t-end", t_end, "--out-dir", out]
            ops.append(Op(f"mms:{frame}:{adv}", "mms", argv, out))
    return ops


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one CLI call; its printout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def files_under(root: str, suffix: str = "") -> list[str]:
    return sorted(
        os.path.join(d, f) for d, _, names in os.walk(root) for f in names if f.endswith(suffix)
    )


def report_verdicts(path: str) -> dict[str, str]:
    with open(path) as fh:
        return {k: v["verdict"] for k, v in json.load(fh)["audits"].items()}


def mms_file(op: Op) -> str:
    _, frame, adv = op.key.split(":")
    adv = {"central": "central-2", "upwind": "first-order-upwind"}[adv]
    return os.path.join(op.out, f"mms_{frame}_{adv}.json")


def outputs_of(op: Op) -> list[str]:
    """The files an operation writes, read right after it ran."""
    if op.verb == "run":
        return files_under(op.out)
    if op.verb == "check":
        return [os.path.join(op.out, "report.json")]
    if op.verb == "report":
        return files_under(op.out, ".svg")
    return [mms_file(op)]


def _read_csv_columns(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}


def summary(op: Op) -> dict:
    """Final state of a run (per frame) or the error ladder of an mms study."""
    if op.verb == "mms":
        with open(mms_file(op)) as fh:
            table = json.load(fh)
        return {"combined": [e["combined"] for e in table["errors"]], "slope": table["slope"]}
    out = {}
    for manifest in files_under(op.out, "manifest.json"):
        with open(manifest) as fh:
            m = json.load(fh)
        cols = _read_csv_columns(os.path.join(os.path.dirname(manifest), m["snapshots"][-1]))
        step = max(1, (len(cols["rho"]) - 1) // (REF_SAMPLES - 1))
        fields = {"time": [m["times"][-1]]}
        for name, vals in cols.items():
            if name != "x_or_y":
                fields[name] = vals[::step] + [math.sqrt(sum(v * v for v in vals))]
        out[m["frame"]] = fields
    return out


def compare(got, want, where: str = "") -> list[str]:
    """Differences between two summaries beyond REF_RTOL/REF_ATOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [d for k in want for d in compare(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{where}[{i}]")]
    if abs(got - want) > REF_ATOL + REF_RTOL * abs(want):
        return [f"{where}: {got!r} != reference {want!r}"]
    return []


@dataclass
class OpResult:
    key: str
    verb: str
    wall: float
    cpu: float
    problems: list[str]
    verdicts: dict[str, str]  # audit name -> PASS/FAIL/SKIP (run and mms only)


class Runner:
    """Runs the workload's operations once per repetition and checks them."""

    def __init__(self, wl: Workload, ops: list[Op], reference: dict | None):
        self.wl = wl
        self.ops = ops
        self.reference = reference  # per op key, checked on the first repetition
        self.digests: dict[str, str] = {}  # op key -> digest of the first repetition
        self.run_verdicts: dict[str, str] = {}  # case -> verdicts of its latest run

    def run_op(self, op: Op) -> OpResult:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code, stderr = call_cli(op.argv)
        except Exception as exc:  # an uncaught error is a failed operation, not a crash
            code, stderr = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        result = OpResult(op.key, op.verb, wall, cpu, [], {})
        if code not in (0, 1):
            result.problems.append(f"exit {code}: {stderr.strip().splitlines()[-1:]}")
            return result
        try:
            self._check(op, stderr, result)
        except (OSError, ValueError, KeyError) as exc:
            result.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return result

    def _check(self, op: Op, stderr: str, result: OpResult):
        case = op.key.split(":", 1)[1]
        if op.verb == "run":
            result.verdicts = report_verdicts(os.path.join(op.out, "report.json"))
            self.run_verdicts[case] = json.dumps(result.verdicts, sort_keys=True)
        elif op.verb == "mms":
            with open(mms_file(op)) as fh:
                result.verdicts = {"mms_order": "PASS" if json.load(fh)["passed"] else "FAIL"}
        elif op.verb == "check":
            if "disagree" in stderr:
                result.problems.append("ledger mismatch: " + stderr.strip().splitlines()[0])
            got = json.dumps(report_verdicts(os.path.join(op.out, "report.json")), sort_keys=True)
            if got != self.run_verdicts.get(case):
                result.problems.append(f"check verdicts {got} differ from run verdicts")
        d = digest(outputs_of(op))
        if d != self.digests.setdefault(op.key, d):
            result.problems.append("output digest differs from the first repetition")
        if self.reference is not None and op.verb in ("run", "mms"):
            if op.key not in self.reference:
                result.problems.append("no reference entry")
            else:
                result.problems += compare(summary(op), self.reference[op.key], op.key)[:3]

    def repetition(self, out_root: str, before_op=None) -> list[OpResult]:
        """Run every operation once into a fresh ``out_root``."""
        shutil.rmtree(out_root, ignore_errors=True)
        results = []
        for op in self.ops:
            if before_op:
                before_op(op)
            results.append(self.run_op(op))
        self.reference = None  # the reference is checked on the first repetition only
        return results

    def unexpected_fails(self, results: list[OpResult]) -> list[str]:
        return [
            f"{r.key}: {name} FAIL"
            for r in results for name, v in r.verdicts.items()
            if v == "FAIL" and name not in self.wl.expected_fails
        ]
