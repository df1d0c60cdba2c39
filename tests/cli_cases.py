"""The CLI's exit-code contract, one row per case.

A row is a ``mixflow`` command line, the setup it needs (an edited shipped
INI file, a corrupted copy of a stored run, an earlier command), the exit
code it must end with and its exact stderr lines.  Every row also requires
that neither output stream holds a traceback or a warning, that exit codes
2 and above print nothing on stdout, that every JSON file the command
writes is strict JSON without NaN, and that the row's output path ``{out}``
exists afterwards exactly when ``out_made`` says so.

Arguments and lines are templates over the row's empty directory
``{tmp}``, its output path ``{out}``, its copy of the stored run
``{store}`` and the shipped data directory ``{data}``; a setup step may add
fields of its own.

``tests/test_io_cli.py`` runs every row in-process through ``cli_main`` as
``test_cli_case[<row id>]``, and tests that were folded into rows run theirs
again under their own pytest ids (``conftest.row_test``);
``python tests/cli_cases.py [ID ...]`` runs every row, or the named ones,
in subprocesses through the ``mixflow`` script on ``PATH`` and exits 1 when
a row fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
import warnings
from dataclasses import dataclass

from conftest import redigest, rewrite_states

DATA = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                     "src", "mixflow", "data"))
#: text no output of a row may hold
FORBIDDEN = ("Traceback", "Warning")
AUDITS = ("('energy_budget', 'density_bounds', 'w_balance', 'gronwall', 'alpha_growth', "
          "'pointwise_bounds', 'derivative_norms', 'velocity_damping')")


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple[str, ...]
    code: int
    err: tuple[str, ...] = ()
    setup: tuple = ()  # steps, each called as step(fields, mixflow) in order
    out_made: bool = False


# -- setup steps -------------------------------------------------------------

def edit(path, change):
    """Rewrite the lines of the file at ``path`` as ``change(lines)``."""
    def step(fields, mixflow):
        name = path.format(**fields)
        with open(name) as fh:
            lines = fh.read().splitlines()
        with open(name, "w") as fh:
            fh.write("\n".join(change(lines)) + "\n")
    return step


def ini(name, *edits, table=None):
    """The shipped ``<name>.ini`` as ``{tmp}/case.ini``, with every line that
    starts with an edit's prefix replaced by its text; an edit is a
    ``(prefix, text)`` pair or a ``key = value`` line, whose prefix is the
    text before its ``=``.  ``table(lines)``, when given, writes
    ``{tmp}/random_smooth_init.csv`` from the shipped table."""
    def step(fields, mixflow):
        shutil.copy(os.path.join(DATA, f"{name}.ini"), os.path.join(fields["tmp"], "case.ini"))
        for prefix, text in ((e.split("=")[0], e) if isinstance(e, str) else e for e in edits):
            edit("{tmp}/case.ini", lambda lines: [text if line.startswith(prefix) else line
                                                  for line in lines])(fields, mixflow)
        if table is not None:
            shutil.copy(os.path.join(DATA, "random_smooth_init.csv"), fields["tmp"])
            edit("{tmp}/random_smooth_init.csv", table)(fields, mixflow)
    return step


def store(fields, mixflow):
    """A copy of the stored two-frame run as ``{store}``; its final Eulerian
    snapshot, the one file name of that frame's manifest, is ``{final}``."""
    shutil.copytree(fields["pristine"], fields["store"])
    with open(os.path.join(fields["store"], "eulerian", "manifest.json")) as fh:
        fields["final"] = json.load(fh)["snapshots"][0]


def column(path, name, value, rows=slice(None)):
    """Set the ``rows`` cells of CSV column ``name`` to ``value(cell)``; the
    first cell's old and new text become the fields ``{was}`` and ``{now}``."""
    def step(fields, mixflow):
        def change(lines):
            header, *rest = lines
            col = header.split(",").index(name)
            cells = [line.split(",") for line in rest]
            for row in cells[rows]:
                fields.setdefault("was", row[col])
                row[col] = value(row[col])
                fields.setdefault("now", row[col])
            return [header, *map(",".join, cells)]
        edit(path, change)(fields, mixflow)
    return step


def manifest(change, frame="eulerian"):
    """Apply ``change`` to the parsed manifest of ``{store}/<frame>``."""
    def step(fields, mixflow):
        path = os.path.join(fields["store"], frame, "manifest.json")
        with open(path) as fh:
            data = json.load(fh)
        change(data)
        with open(path, "w") as fh:
            json.dump(data, fh)
    return step


def new_records(change):
    """Store ``change(states)`` as the Eulerian records of ``{store}``, with
    their sha256 in the manifest (``conftest.rewrite_states``)."""
    return lambda fields, mixflow: rewrite_states(os.path.join(fields["store"], "eulerian"),
                                                  change)


def final_snapshot(change):
    """Rewrite the lines of the final Eulerian snapshot of ``{store}`` as
    ``change(lines)``, with the file's sha256 in the manifest
    (``conftest.redigest``)."""
    def step(fields, mixflow):
        edit("{store}/eulerian/{final}", change)(fields, mixflow)
        redigest(os.path.join(fields["store"], "eulerian"))
    return step


def raw(path, change):
    """Rewrite the bytes of the file at ``path`` as ``change(data)``."""
    def step(fields, mixflow):
        with open(path.format(**fields), "rb") as fh:
            data = fh.read()
        with open(path.format(**fields), "wb") as fh:
            fh.write(change(data))
    return step


def put(index, value):
    """A change of a records array that sets ``states[index]`` to ``value``."""
    def change(states):
        states[index] = value
        return states
    return change


def remove(path, then=None):
    """Remove the file at ``path``; ``then(path)``, when given, runs next."""
    def step(fields, mixflow):
        os.remove(path.format(**fields))
        if then is not None:
            then(path.format(**fields))
    return step


def mkdir(path):
    """Make the directory ``path``."""
    return lambda fields, mixflow: os.mkdir(path.format(**fields))


def write(path, text):
    """Write ``text`` to the file at ``path``."""
    def step(fields, mixflow):
        with open(path.format(**fields), "w") as fh:
            fh.write(text)
    return step


def command(*argv, code, err):
    """Run ``mixflow argv`` first; it must exit with ``code`` and print the
    ``err`` lines on stderr."""
    def step(fields, mixflow):
        got, _, text = mixflow([a.format(**fields) for a in argv])
        want = [line.format(**fields) for line in err]
        assert (got, text.splitlines()) == (code, want), f"setup command: exit {got}, {text!r}"
    return step


# -- rows --------------------------------------------------------------------

SHEAR = "{data}/shear.ini"
RUN = ("run", "--config", "{tmp}/case.ini")
SHEAR_32 = ("--config", SHEAR, "--n-cells", "32")
BEYOND_FLOAT = "1" + "0" * 400
BEYOND_GRID = "1" + "0" * 20
DISAGREE = "stored diagnostics disagree with the snapshots"
TABLE = "{tmp}/random_smooth_init.csv"
TOO_FEW_ROWS = f"error: table {TABLE} needs 2 or more rows of finite x_or_y and rho"
# a mass-coordinate snapshot whose two densest nodes add nothing to the volume
DENSE_PAIR = "x_or_y,rho,u1,u2\n" + "".join(
    f"{k / 64!r},{1e300 if k in (30, 31) else 62 / 64!r},0.0,0.0\n" for k in range(65))
SINE_1E200, FRICTION_1E308 = "sine:k=1,amp=1e200", "[[0.0, 1e308], [1e308, 0.0]]"
TO_LAGRANGIAN = ("transform", "--snap", "{store}/eulerian/{final}", "--frame", "eulerian")


def progress(t_end, *frames):
    """The line ``run`` prints as it starts each of ``frames``."""
    return tuple(f"running {frame} solver to t = {t_end}" for frame in frames)


def blowup(t_end, frame, reason):
    """The stderr lines of a run of ``frame`` to ``t_end`` that blows up with ``reason``."""
    return (*progress(t_end, frame), f"solver blow-up: {reason}",
            f"last valid trajectory saved under {{out}}/{frame}")


CHECK = ("check", "--traj", "{store}")
EUL, LAG = "{store}/eulerian", "{store}/lagrangian"
MANIFEST, STATES = f"error: {EUL}/manifest.json: ", f"error: {EUL}/states.npy: "
FINAL = f"error: {EUL}/{{final}}: "
NOT_NPY = STATES + "not a whole .npy file"
TIMES = MANIFEST + "times must be finite, non-negative and strictly increasing"
SCHEME_KEYS = ("field 'scheme' must have the keys ['advection', 'artificial_floor', 'cfl', "
               "'time_integrator'], got [\"advection\", \"artificial_floor\", \"time_integrator\"]")


def other_params(m):
    """Valid Lagrangian parameters with their own hash, not the Eulerian ones."""
    from mixflow import io as mixflow_io

    m["params"]["pressure_coeff"] = 1.5
    m["params_hash"] = mixflow_io.params_hash(mixflow_io.params_from_dict(m["params"]))


#: a corrupted stored run: ``check`` exits 2 with one line naming the file
STORE_FAULTS = [Case(id, CHECK, 2, (line,), (store, corrupt)) for id, line, corrupt in [
    # states.npy: missing or unreadable, not a whole .npy file, another dtype
    # or shape, another sha256, and records Trajectory refuses
    ("missing-states", f"error: cannot read {EUL}/states.npy: No such file or directory",
     remove(EUL + "/states.npy")),
    ("unreadable-states", f"error: cannot read {EUL}/states.npy: Is a directory",
     remove(EUL + "/states.npy", os.mkdir)),
    ("bad-magic", NOT_NPY, raw(EUL + "/states.npy", lambda b: b"x" + b[1:])),
    ("header-only-states", NOT_NPY,
     raw(EUL + "/states.npy", lambda b: b[:10 + int.from_bytes(b[8:10], "little")])),
    ("truncated-data", NOT_NPY, raw(EUL + "/states.npy", lambda b: b[:-8])),
    ("float32-states", STATES + "<f4 (2, 3, 33), expected <f8 (2, 3, 33)",
     new_records(lambda s: s.astype("<f4"))),
    ("rho-only-states", STATES + "<f8 (2, 1, 33), expected <f8 (2, 3, 33)",
     new_records(lambda s: s[:, :1])),
    ("node-count", STATES + "<f8 (2, 3, 32), expected <f8 (2, 3, 33)",
     new_records(lambda s: s[..., :-1])),
    ("states-digest", STATES + "sha256 does not match the manifest",
     raw(EUL + "/states.npy", lambda b: b[:-1] + bytes([b[-1] ^ 1]))),
    ("final-snapshot-digest", FINAL + "sha256 does not match the manifest",
     column(EUL + "/{final}", "u1", lambda c: "0.5", slice(3, 4))),
    ("non-finite-record", STATES + "state contains non-finite values",
     new_records(put((0, 1, 5), float("nan")))),
    ("non-positive-density", STATES + "min(rho) = -1.0 <= 0", new_records(put((1, 0, 5), -1.0))),
    ("non-zero-wall", STATES + "boundary velocities must be exactly zero",
     new_records(put((1, 2, 0), 0.5))),
    # the final snapshot, rewritten with its sha256: read as transform reads
    # it, then on the manifest's grid and velocity count
    ("header-only-snapshot", FINAL + "no data rows", final_snapshot(lambda lines: lines[:1])),
    ("two-column-snapshot",
     FINAL + "2 columns for the 2 of header x_or_y,rho; expected x_or_y, rho and one "
     "column per velocity",
     final_snapshot(lambda lines: [",".join(r.split(",")[:2]) for r in lines])),
    ("columns-differ-from-header", FINAL + "line 2 has 3 cells, expected 4",
     final_snapshot(lambda lines: lines[:1] + [r.rsplit(",", 1)[0] for r in lines[1:]])),
    ("velocity-name",
     FINAL + "expected header x_or_y,rho,u1,..., got ['x_or_y', 'rho', 'u1', 'v2']",
     final_snapshot(lambda lines: ["x_or_y,rho,u1,v2", *lines[1:]])),
    ("interior-x", FINAL + "x_or_y is not the uniform grid on (0, 1.0)",
     final_snapshot(lambda lines: [*lines[:5], "0.5" + lines[5][lines[5].index(","):],
                                   *lines[6:]])),
    ("velocity-count",
     FINAL + "33 nodes on (0, 1.0) and 1 velocities, the manifest gives 33 nodes on "
     "(0, 1.0) and 2",
     final_snapshot(lambda lines: [r.rsplit(",", 1)[0] for r in lines])),
    ("domain-length",  # states.npy holds no x column; the final snapshot does
     FINAL + "33 nodes on (0, 1.0) and 2 velocities, the manifest gives 33 nodes on "
     "(0, 3.0) and 2",
     manifest(lambda m: m.update(domain_length=3.0))),
    # manifest.json; version 1 is a store of the earlier format
    ("version", MANIFEST + "version 1 is not 2", manifest(lambda m: m.update(version=1))),
    ("non-utf8-manifest",
     f"error: bad manifest {EUL}/manifest.json: 'utf-8' codec can't decode byte 0xff in "
     "position 74: invalid start byte",
     raw(EUL + "/manifest.json", lambda b: b.replace(b"eulerian", b"euler\xffan"))),
    ("missing-times", MANIFEST + "missing field 'times'", manifest(lambda m: m.pop("times"))),
    ("times-shorter-than-states", MANIFEST + "states_shape [2, 3, 33] is not [1, 3, 33]",
     manifest(lambda m: m["times"].pop())),
    ("scheme-key", MANIFEST + SCHEME_KEYS, manifest(lambda m: m["scheme"].pop("cfl"))),
    ("scheme-cfl", MANIFEST + "cfl must be in (0, 1], got 1.5",
     manifest(lambda m: m["scheme"].update(cfl=1.5))),
    ("scheme-cfl-type", MANIFEST + "field 'cfl' must be a number, got \"0.4\"",
     manifest(lambda m: m["scheme"].update(cfl="0.4"))),
    ("gamma-one", MANIFEST + "gamma must be > 1, got 1.0",
     manifest(lambda m: m["params"].update(gamma=1.0))),
    ("manifest-infinite-t-final", MANIFEST + "T_final must be finite, got inf",
     manifest(lambda m: m["params"].update(t_final=math.inf))),
    ("asymmetric-viscosity", MANIFEST + "viscosity matrix M is not symmetric",
     manifest(lambda m: m["params"]["viscosity"][0].__setitem__(1, 0.05))),
    ("viscosity-beyond-float", MANIFEST + "int too large to convert to float",
     manifest(lambda m: m["params"]["viscosity"][0].__setitem__(0, 10**400))),
    ("params-hash", MANIFEST + "params_hash does not match the stored parameters",
     manifest(lambda m: m["params"].update(pressure_coeff=1.5))),
    ("reversed-times", TIMES, manifest(lambda m: m["times"].reverse())),
    ("non-finite-time", TIMES, manifest(lambda m: m["times"].__setitem__(1, float("nan")))),
    ("negative-time", TIMES, manifest(lambda m: m.update(times=[t - 1.0 for t in m["times"]]))),
    ("unknown-frame", MANIFEST + "unknown frame 'physical'",
     manifest(lambda m: m.update(frame="physical"))),
    ("snapshot-index", MANIFEST + "snapshots must be a list of one file name",
     manifest(lambda m: m["snapshots"].__setitem__(0, 7))),
    ("params-type", MANIFEST + "field 'params' must be an object, got [1, 2]",
     manifest(lambda m: m.update(params=[1, 2]))),
    ("n-cells-type", MANIFEST + "field 'n_cells' must be an integer, got \"x\"",
     manifest(lambda m: m.update(n_cells="x"))),
    ("lagrangian-n-cells-type",  # read by the check worker of the second frame
     f"error: {LAG}/manifest.json: field 'n_cells' must be an integer, got \"x\"",
     manifest(lambda m: m.update(n_cells="x"), "lagrangian")),
    ("domain-length-type", MANIFEST + "field 'domain_length' must be a number, got null",
     manifest(lambda m: m.update(domain_length=None))),
    ("negative-domain-length", MANIFEST + "domain_length must be positive",
     manifest(lambda m: m.update(domain_length=-1.0))),
    ("gamma-type", MANIFEST + "field 'gamma' must be a number, got \"1.4\"",
     manifest(lambda m: m["params"].update(gamma="1.4"))),
    ("ragged-friction",
     MANIFEST + "field 'friction' must be a matrix of numbers, got [[0.0, 0.4], [0.4]]",
     manifest(lambda m: m["params"]["friction"][1].pop())),
    ("times-type", MANIFEST + "field 'times' must be a list of numbers, got [0.0, \"0.1\"]",
     manifest(lambda m: m["times"].__setitem__(1, "0.1"))),
    # diag.csv: a state field must be complete; a time field complete or empty throughout
    ("empty-cell", f"error: {EUL}/diag.csv: line 3: energy is empty",
     column(EUL + "/diag.csv", "energy", lambda c: "", slice(1, 2))),
    ("partly-empty-time-column", f"error: {EUL}/diag.csv: line 3: alpha is empty",
     column(EUL + "/diag.csv", "alpha", lambda c: "", slice(1, 2))),
    ("non-numeric-diag-cell",
     f"error: {EUL}/diag.csv: line 3: could not convert string to float: 'abc'",
     column(EUL + "/diag.csv", "w_norm", lambda c: "abc", slice(1, 2))),
    ("non-utf8-diag",  # the byte decodes to U+FFFD
     f"error: {EUL}/diag.csv: line 3: could not convert string to float: '\ufffd.01'",
     raw(EUL + "/diag.csv", lambda b: b.replace(b"\n0.01", b"\n\xff.01"))),
    ("short-diag-row", f"error: {EUL}/diag.csv: line 3 has 9 cells, expected 12",
     edit(EUL + "/diag.csv", lambda lines: [*lines[:2], lines[2].rsplit(",", 3)[0]])),
]]

#: ``run`` of shear.ini with one line edited, refused with one line before
#: any output: (row id, the edit of ``ini``, the reason)
BAD_INI = [
    # sections, keys and INI syntax, which names the file and line
    ("missing-params-key", ("gamma = ", ""), "missing key 'gamma' in [params]"),
    ("unknown-section", ("[params]", "[DEFAULT]\n[params]"), "unknown section [DEFAULT]"),
    ("default-section-with-key", ("[params]", "[DEFAULT]\ncfl = 0.3\n[params]"),
     "unknown section [DEFAULT]"),
    ("no-rho", ("rho = ", ""), "[initial] must define rho"),
    ("no-audits-requested", "audits = ,", "no audits requested"),
    ("empty-audits", "audits = ", "no audits requested"),
    ("blank-audits", "audits =  , ,", "no audits requested"),
    ("no-section-header", ("# ", "garbage line"), "config parse error: File contains no "
     "section headers. file: '{tmp}/case.ini', line: 1 'garbage line\\n'"),
    ("line-without-equals", ("gamma = ", "gamma 1.4 garbage"), "config parse error: Source "
     "contains parsing errors: '{tmp}/case.ini' [line 5]: 'gamma 1.4 garbage\\n'"),
    ("duplicate-section", ("[scheme]", "[params]\n[scheme]"), "config parse error: While "
     "reading from '{tmp}/case.ini' [line 10]: section 'params' already exists"),
    ("duplicate-key", "gamma = 1.4\ngamma = 1.5", "config parse error: While reading from "
     "'{tmp}/case.ini' [line 6]: option 'gamma' in section 'params' already exists"),
    # initial-data descriptors
    ("misspelt-gaussian-argument", "rho = gaussian:base=1.0,amp=0.3,center=0.4,width=0.15,wdith=9",
     "[initial] rho: unknown argument 'wdith' for 'gaussian'"),
    ("unknown-sine-argument", "u1 = sine:k=1,amp=0.1,phase=3",
     "[initial] u1: unknown argument 'phase' for 'sine'"),
    ("table-prefix", "u1 = tablex:file=a,column=b",
     "[initial] u1: unknown velocity descriptor 'tablex'"),
    ("repeated-argument", "rho = constant:value=1,value=2",
     "[initial] rho: duplicate argument 'value'"),
    ("zero-gaussian-width", "rho = gaussian:base=1.0,amp=0.3,center=0.4,width=0",
     "[initial] rho: gaussian width must be positive, got 0.0"),
    ("argument-without-value", "rho = gaussian:base",
     "[initial] rho: expected key=value, got 'base'"),
    ("unknown-density-descriptor", "rho = blob:x=1",
     "[initial] rho: unknown density descriptor 'blob'"),
    ("table-without-file", "u1 = table:column=u1",
     "[initial] u1: missing argument 'file' for table"),
    ("bad-sine-mode", "u1 = sine:k=x,amp=0.1",
     "[initial] u1: bad sine mode (invalid literal for int() with base 10: 'x')"),
    ("non-numeric-constant", "rho = constant:value=abc",
     "[initial] rho: could not convert string to float: 'abc'"),
    ("constant-without-value", "rho = constant",
     "[initial] rho: missing argument 'value' for 'constant'"),
    # every number must be finite and in range
    ("rho-nan", "rho = constant:value=nan", "[initial] rho: value must be finite, got nan"),
    ("gaussian-width-inf", "rho = gaussian:base=1.0,amp=0.3,center=0.4,width=inf",
     "[initial] rho: width must be finite, got inf"),
    ("affine-slope-minus-inf", "rho = affine:base=1.0,slope=-inf",
     "[initial] rho: slope must be finite, got -inf"),
    ("non-finite-amplitude", "u1 = sine:k=1,amp=inf", "[initial] u1: amp must be finite, got inf"),
    ("sine-amp-minus-inf", "u1 = sine:k=1,amp=-inf", "[initial] u1: amp must be finite, got -inf"),
    ("second-mode-amp-nan", "u1 = sine:k=1,amp=0.1 + sine:k=2,amp=nan",
     "[initial] u1: amp must be finite, got nan"),
    ("infinite-t-final", "t_final = inf", "T_final must be finite, got inf"),
    ("pressure-coeff-inf", "pressure_coeff = inf", "K must be finite, got inf"),
    ("gamma-inf", "gamma = inf", "gamma must be finite, got inf"),
    ("gamma-below-one", "gamma = 0.5", "gamma must be > 1, got 0.5"),
    ("viscosity-inf", "viscosity = [[Infinity, 0.03], [0.03, 0.1]]",
     "viscosity matrix M has a non-finite entry"),
    ("viscosity-nan", "viscosity = [[0.12, NaN], [NaN, 0.1]]",
     "viscosity matrix M has a non-finite entry"),
    ("friction-inf", "friction = [[0.0, Infinity], [Infinity, 0.0]]",
     "friction matrix A has a non-finite entry"),
    # an inverse whose residual, which is dimensionless, exceeds 1e-10 at any scale of M
    ("near-singular-viscosity", "viscosity = [[1, 0.999999999], [0.999999999, 1]]",
     "M @ M_inv deviates from identity by 5.000e-10"),
    ("density-floor-inf", ("[scheme]", "[scheme]\ndensity_floor = inf"),
     "artificial_floor must be finite and > 0, got inf"),
    ("snapshot-every-zero", "snapshot_every = 0", "snapshot_every must be >= 1"),
    ("unknown-ini-frame", "frame = sideways",
     "frame must be one of ('eulerian', 'lagrangian', 'both'), got 'sideways'"),
]

#: ``mms`` arguments refused before any level is solved or its directory
#: made: (row id, arguments, reason)
HORIZON = "t_end must be finite and above 1e-13, got "
BAD_MMS = [
    ("mms-levels-not-integer", ("--levels", "32,x"),
     "--levels takes comma-separated integers, got '32,x'"),
    ("mms-one-level", ("--levels", "32"), "need at least two refinement levels"),
    ("mms-repeated-level", ("--levels", "32,32"),
     "refinement levels must strictly increase, got [32, 32]"),
    ("mms-decreasing-levels", ("--levels", "64,32"),
     "refinement levels must strictly increase, got [64, 32]"),
    ("mms-zero-horizon", ("--t-end", "0"), HORIZON + "0.0"),
    ("mms-negative-horizon", ("--t-end", "-0.1"), HORIZON + "-0.1"),
    ("mms-nan-horizon", ("--t-end", "nan"), HORIZON + "nan"),
    ("mms-infinite-horizon", ("--t-end", "inf"), HORIZON + "inf"),
    ("mms-level-below-grid", ("--levels", "4,64,128"),
     "n_cells must lie in [8, 2147483646], got 4"),
    ("mms-horizon-1e-13", ("--t-end", "1e-13"), HORIZON + "1e-13"),  # within the end slack
    ("mms-level-beyond-grid", ("--levels", f"8,{BEYOND_GRID}"),
     f"n_cells must lie in [8, 2147483646], got {BEYOND_GRID}"),
    ("mms-horizon-too-short", ("--levels", "8,16", "--t-end", "1e-14"), HORIZON + "1e-14"),
]

CASES = [
    # exit 0: every verb on clean input; run prints one progress line per frame
    Case("run-two-frames", ("run", *SHEAR_32, "--t-end", "0.01", "--out-dir", "{out}"), 0,
         progress("0.01", "eulerian", "lagrangian"), out_made=True),
    Case("check-clean", CHECK, 0, (), (store,)),
    Case("check-named-audits", (*CHECK, "--audits", "gronwall,alpha_growth,density_bounds"), 0,
         (), (store,)),
    Case("report-clean", ("report", "--traj", "{store}"), 0, (), (store,)),
    Case("check-crlf-ledger", CHECK, 0, (),  # its empty identity_residual column ends in \r
         (store, raw(EUL + "/diag.csv", lambda b: b.replace(b"\n", b"\r\n")))),
    Case("mms-eulerian", ("mms", "--levels", "8,16", "--t-end", "0.01", "--out-dir", "{out}"), 0,
         out_made=True),
    Case("mms-lagrangian-upwind", ("mms", "--frame", "lagrangian", "--advection", "upwind",
                                   "--levels", "8,16,32", "--t-end", "0.01"), 0),
    Case("transform-to-lagrangian", (*TO_LAGRANGIAN, "--out", "{out}"), 0, (), (store,),
         out_made=True),
    Case("tiny-viscosity", (*RUN, "--n-cells", "16", "--t-end", "0.001", "--out-dir", "{out}"), 0,
         progress("0.001", "eulerian", "lagrangian"),
         (ini("shear", "viscosity = [[3e-9, 1e-9], [1e-9, 2e-9]]"),), out_made=True),
    Case("transform-to-eulerian", ("transform", "--snap", "{tmp}/lag.csv", "--frame",
                                   "lagrangian", "--out", "{out}"), 0, (),
         (store, command(*TO_LAGRANGIAN, "--out", "{tmp}/lag.csv", code=0, err=())),
         out_made=True),
    *(Case(f"check-{frame}-{name}", ("check", "--traj", "{out}"), 0, (),
           (command("run", *SHEAR_32, "--t-end", t_end, "--frame", frame, "--scheme", scheme, *cfl,
                    "--out-dir", "{out}", code=0, err=progress(t_end, frame)),), out_made=True)
      for frame, name, scheme, t_end, cfl in [
          ("eulerian", "rk4", "RK4", "0.01", ("--cfl", "0.3")),
          ("eulerian", "imex", "semi-implicit", "0.01", ()),
          ("lagrangian", "rk2", "RK2", "0.01", ()),
          ("lagrangian", "rk4", "RK4", "0.01", ("--cfl", "0.3")),
          ("lagrangian", "imex", "semi-implicit", "0.05", ())]),
    # exit 1: the stored ledger disagrees with its recomputation
    *(Case(id, CHECK, 1, (line, DISAGREE), (store, corrupt)) for id, line, corrupt in [
        ("tampered-energy", "eulerian: stored energy row 1 = {now} != recomputed {was}",
         column(EUL + "/diag.csv", "energy", lambda c: repr(float(c) * 1.02), slice(-1, None))),
        ("doubled-alpha-column", "eulerian: stored alpha row 0 = {now} != recomputed {was}",
         column(EUL + "/diag.csv", "alpha", lambda c: repr(2 * float(c)))),
        ("inf-identity-residual",
         "lagrangian: stored identity_residual row 1 = inf != recomputed {was}",
         column(LAG + "/diag.csv", "identity_residual", lambda c: "inf", slice(1, 2))),
        ("blank-alpha-column", "eulerian: stored diagnostics lack alpha",
         column(EUL + "/diag.csv", "alpha", lambda c: "")),
        ("lagrangian-alpha-column",
         "lagrangian: stored diagnostics have alpha, which does not apply",
         column(LAG + "/diag.csv", "alpha", lambda c: "1.0")),
        ("header-only-ledger", "eulerian: diagnostics rows != snapshots",
         edit(EUL + "/diag.csv", lambda lines: lines[:1]))]),
    # exit 2: arguments and INI files, refused before any output
    *(Case(id, (*RUN, "--out-dir", "{out}"), 2, (f"config error: {reason}",),
           (ini("shear", edit),)) for id, edit, reason in BAD_INI),
    *(Case(id, ("mms", *args, "--out-dir", "{out}"), 2, (f"config error: {reason}",))
      for id, args, reason in BAD_MMS),
    Case("missing-config", ("run", "--config", "{tmp}/missing.ini", "--out-dir", "{out}"), 2,
         ("config error: cannot read config {tmp}/missing.ini: [Errno 2] No such file or "
          "directory: '{tmp}/missing.ini'",)),
    Case("no-sections", (*RUN, "--out-dir", "{out}"), 2,
         ("config error: config needs [params] and [initial] sections",),
         (write("{tmp}/case.ini", ""),)),
    Case("malformed-n-cells", ("run", "--config", SHEAR, "--n-cells", "abc", "--out-dir", "{out}"),
         2, ("config error: [scheme] n_cells: invalid literal for int() with base 10: 'abc'",)),
    Case("malformed-t-end", ("run", "--config", SHEAR, "--t-end", "x", "--out-dir", "{out}"), 2,
         ("config error: [scheme] t_end: could not convert string to float: 'x'",)),
    Case("malformed-cfl", ("run", "--config", SHEAR, "--cfl", "x", "--out-dir", "{out}"), 2,
         ("config error: [scheme] cfl: could not convert string to float: 'x'",)),
    Case("unknown-scheme", ("run", "--config", SHEAR, "--scheme", "bogus", "--out-dir", "{out}"),
         2, ("config error: unknown integrator 'bogus'",)),
    Case("unknown-advection", ("mms", "--advection", "bogus"), 2,
         ("config error: unknown advection 'bogus'",)),
    Case("n-cells-beyond-grid",
         ("run", "--config", SHEAR, "--n-cells", BEYOND_GRID, "--out-dir", "{out}"), 2,
         (f"config error: n_cells must lie in [8, 2147483646], got {BEYOND_GRID}",)),
    # run_loop stops END_SLACK short of t_end, so below it a run records t = 0 alone
    *(Case(id, ("run", "--config", SHEAR, "--t-end", t_end, "--n-cells", "16", "--out-dir",
                "{out}"), 2,
           (f"config error: t_end must lie in (1e-13, T_final = 2.0], got {float(t_end)}",))
      for id, t_end in [("run-horizon-too-short", "1e-14"), ("run-horizon-1e-13", "1e-13"),
                        ("run-horizon-zero", "0")]),
    Case("matrix-entry-beyond-float", (*RUN, "--n-cells", "16", "--t-end", "1e-6", "--out-dir",
                                       "{out}"), 2,
         ("config error: [params] viscosity: expected JSON row lists "
          "(int too large to convert to float)",),
         (ini("shear", f"viscosity = [[{BEYOND_FLOAT}, 0.03], [0.03, 0.1]]"),)),
    Case("non-utf8-config", (*RUN, "--n-cells", "16", "--t-end", "0.001", "--out-dir", "{out}"),
         2, ("config error: cannot read config {tmp}/case.ini: 'utf-8' codec can't decode byte "
             "0xff in position 513: invalid start byte",),
         (ini("shear"), raw("{tmp}/case.ini", lambda b: b + b"\xff"))),
    # exit 2: initial data, refused before any output
    Case("header-only-table", (*RUN, "--out-dir", "{out}"), 2,
         (f"error: {TABLE}: no data rows",),
         (ini("random_smooth", table=lambda lines: lines[:1]),)),
    Case("one-row-table", (*RUN, "--out-dir", "{out}"), 2, (TOO_FEW_ROWS,),
         (ini("random_smooth", table=lambda lines: lines[:2]),)),
    Case("nan-table-cell", (*RUN, "--out-dir", "{out}"), 2, (TOO_FEW_ROWS,),
         (ini("random_smooth", table=lambda lines: lines),
          column(TABLE, "rho", lambda c: "nan", slice(4, 5)))),
    Case("non-numeric-table-cell", (*RUN, "--out-dir", "{out}"), 2,
         (f"error: {TABLE}: line 6: could not convert string to float: 'abc'",),
         (ini("random_smooth", table=lambda lines: lines),
          column(TABLE, "u2", lambda c: "abc", slice(4, 5)))),
    Case("table-is-a-directory", (*RUN, "--out-dir", "{out}"), 2,
         ("error: cannot read {tmp}/adir: Is a directory",),
         (ini("shear", "rho = table:file=adir"), mkdir("{tmp}/adir"))),
    # finite rows whose slope in one column, 1e300 over a gap of 1e-300, overflows
    *(Case(id, (*RUN, "--n-cells", "16", "--out-dir", "{out}"), 2,
           (f"error: table {TABLE} column '{name}' interpolates to non-finite values",),
           (ini("random_smooth", table=lambda lines, row=row: [lines[0], "0.0,1.0,0,0,0", row,
                                                               "1.0,1.0,0,0,0"]),))
      for id, name, row in [("table-slope-overflow", "u1", "1e-300,1.0,1e300,0,0"),
                            ("table-rho-slope-overflow", "rho", "1e-300,1e300,0,0,0")]),
    Case("table-lacks-column", (*RUN, "--out-dir", "{out}"), 2,
         (f"error: table {TABLE} lacks column 'u9' (header: ['x_or_y', 'rho', 'u1', 'u2', "
          "'u3'])",),
         (ini("random_smooth", "u1 = table:file=random_smooth_init.csv,column=u9",
              table=lambda lines: lines),)),
    Case("table-abscissae-not-increasing", (*RUN, "--out-dir", "{out}"), 2,
         (f"error: table {TABLE} abscissae must strictly increase",),
         (ini("random_smooth", table=lambda lines: [lines[0], lines[2], lines[1], *lines[3:]]),)),
    Case("heavy-mass-run", (*RUN, "--n-cells", "16", "--t-end", "1e-6", "--out-dir", "{out}"), 2,
         ("config error: mass map must be finite, got a total of inf",),
         (ini("shear", "rho = constant:value=1e308"),)),
    Case("density-floor-above-start", (*RUN, "--n-cells", "16", "--t-end", "0.001", "--out-dir",
                                       "{out}"), 2,
         ("config error: density_floor = 1e+300 is not below the least initial density: "
          "eulerian 1, lagrangian 1",),
         (ini("shear", ("[scheme]", "[scheme]\ndensity_floor = 1e300")),)),
    Case("density-floor-lagrangian", (*RUN, "--n-cells", "16", "--t-end", "0.001", "--frame",
                                      "lagrangian", "--out-dir", "{out}"), 2,
         ("config error: density_floor = 1.1 is not below the least initial density: "
          "lagrangian 1",),
         (ini("shear", ("[scheme]", "[scheme]\ndensity_floor = 1.1")),)),
    # exit 2: outputs that cannot be written, snapshots with no mass map
    Case("out-dir-below-a-file",
         ("run", "--config", SHEAR, "--n-cells", "16", "--out-dir", "{tmp}/afile/run"), 2,
         ("error: {tmp}/afile/run: Not a directory",), (write("{tmp}/afile", ""),)),
    Case("mms-out-dir-is-a-file",
         ("mms", "--levels", "8,16", "--t-end", "0.01", "--out-dir", "{tmp}/afile"), 2,
         ("error: {tmp}/afile: File exists",), (write("{tmp}/afile", ""),)),
    Case("transform-into-missing-dir", (*TO_LAGRANGIAN, "--out", "{tmp}/missing/lag.csv"), 2,
         ("error: {tmp}/missing/lag.csv: No such file or directory",), (store,)),
    Case("heavy-mass-transform", (*TO_LAGRANGIAN, "--out", "{out}"), 2,
         ("config error: mass map must be finite, got a total of inf",),
         (store, column(EUL + "/{final}", "rho", lambda c: "1e308"))),
    Case("mass-map-not-monotone", ("transform", "--snap", "{tmp}/lag.csv", "--frame",
                                   "lagrangian", "--out", "{out}"), 2,
         ("config error: mass map must be strictly monotone",),
         (write("{tmp}/lag.csv", DENSE_PAIR),)),
    Case("transform-non-numeric-cell", (*TO_LAGRANGIAN, "--out", "{out}"), 2,
         (FINAL + "line 5: could not convert string to float: 'abc'",),
         (store, column(EUL + "/{final}", "rho", lambda c: "abc", slice(3, 4)))),
    Case("transform-ragged-row", (*TO_LAGRANGIAN, "--out", "{out}"), 2,
         (FINAL + "line 5 has 3 cells, expected 4",),
         (store, edit(EUL + "/{final}",
                      lambda lines: [*lines[:4], lines[4].rsplit(",", 1)[0], *lines[5:]]))),
    Case("transform-digit-group-cell", (*TO_LAGRANGIAN, "--out", "{out}"), 2,
         (FINAL + "line 5: could not convert string to float: '1_0'",),
         (store, column(EUL + "/{final}", "rho", lambda c: "1_0", slice(3, 4)))),
    Case("transform-control-byte-cell", (*TO_LAGRANGIAN, "--out", "{out}"), 2,
         (FINAL + "line 5: could not convert string to float: '1\\x1c'",),
         (store, column(EUL + "/{final}", "rho", lambda c: "1\x1c", slice(3, 4)))),
    Case("transform-non-utf8-header", (*TO_LAGRANGIAN, "--out", "{out}"), 2,  # as in diag.csv
         (FINAL + "expected header x_or_y,rho,u1,..., got ['x_or_y', 'rho', 'u1\ufffd', 'u2']",),
         (store, raw(EUL + "/{final}", lambda b: b.replace(b"u1", b"u1\xff", 1)))),
    Case("transform-negative-density", (*TO_LAGRANGIAN, "--out", "{out}"), 2,
         (FINAL + "min(rho) = -1.0 <= 0",),
         (store, column(EUL + "/{final}", "rho", lambda c: "-1.0", slice(3, 4)))),
    Case("transform-four-row-snapshot", (*TO_LAGRANGIAN, "--out", "{out}"), 2,
         (FINAL + "n_cells must lie in [8, 2147483646], got 3",),
         (store, edit(EUL + "/{final}", lambda lines: lines[:5]))),
    # an OSError without a file name: the reason alone
    Case("transform-onto-full-device", (*TO_LAGRANGIAN, "--out", "/dev/full"), 2,
         ("error: No space left on device",), (store,)),
    # exit 2: stored runs
    Case("no-trajectory-manifest", ("check", "--traj", "{tmp}"), 2,
         ("error: {tmp}: no trajectory manifest",)),
    Case("report-without-trajectory", ("report", "--traj", "{tmp}"), 2,
         ("error: {tmp}: no trajectory manifest",)),
    Case("unknown-audit", ("check", "--traj", "{tmp}", "--audits", "gronwall,bogus"), 2,
         (f"config error: unknown audit 'bogus'; known: {AUDITS}",)),  # before any read
    *(Case(id, ("check", "--traj", "{tmp}", "--audits", audits), 2,
           ("config error: no audits requested",))
      for id, audits in [("check-empty-audits", ""), ("check-comma-audits", ","),
                         ("check-blank-audits", " , ")]),
    Case("blank-diag-cell", CHECK, 2,
         ("error: {store}/eulerian/diag.csv: line 2: energy is empty",),
         (store, column(EUL + "/diag.csv", "energy", lambda c: "", slice(1)))),
    Case("missing-snapshot", CHECK, 2,
         ("error: cannot read {store}/eulerian/{final}: No such file or directory",),
         (store, remove(EUL + "/{final}"))),
    Case("report-on-another-grid", ("report", "--traj", "{store}"), 2,
         ("error: {store}/eulerian/{final}: 33 nodes on (0, 1.0) and 2 velocities, the manifest "
          "gives 33 nodes on (0, 3.0) and 2",),
         (store, manifest(lambda m: m.update(domain_length=3.0)))),
    Case("manifest-entry-beyond-float", CHECK, 2,
         ("error: {store}/eulerian/manifest.json: int too large to convert to float",),
         (store, manifest(lambda m: m["times"].__setitem__(1, 10**400)))),
    Case("frames-with-different-params", CHECK, 2,
         ("error: {store}: the frames' manifests give different params",),
         (store, manifest(other_params, "lagrangian"))),
    Case("two-stores-of-one-frame", CHECK, 2,
         ("error: need one or two distinct frames, got ['lagrangian', 'lagrangian']",),
         (store, manifest(lambda m: m.update(frame="lagrangian")))),
    # exit 3: a blow-up saves the last valid trajectory, with no numpy warning
    *(Case(id, (*RUN, "--n-cells", "32", "--t-end", "0.001", "--frame", frame, "--out-dir",
                "{out}"), 3, blowup("0.001", frame, reason),
           (ini("shear", f"{key} = {value}"),), out_made=True)
      for id, key, value, frame, reason in [
          ("overflowing-run", "u1", SINE_1E200, "eulerian", "non-finite values in RK2 stage"),
          ("overflowing-velocity-lagrangian", "u1", SINE_1E200, "lagrangian",
           "min(rho) = -3.906e-196 <= floor 1.0e-12 in RK2 stage"),
          ("overflowing-friction-eulerian", "friction", FRICTION_1E308, "eulerian",
           "non-finite values in step result"),
          ("overflowing-friction-lagrangian", "friction", FRICTION_1E308, "lagrangian",
           "non-finite values in step result")]),
    # exit 0: report plots the partial run of an overflow without a finite energy
    Case("report-without-finite-energy", ("report", "--traj", "{out}"), 0, (),
         (ini("shear", "u1 = sine:k=1,amp=1e160"),
          command(*RUN, "--n-cells", "32", "--t-end", "1e-7", "--frame", "eulerian", "--out-dir",
                  "{out}", code=3,
                  err=blowup("1e-07", "eulerian", "non-finite values in RK2 stage"))),
         out_made=True),
]


#: every row
ROWS = [*CASES, *STORE_FAULTS]


# -- runners -----------------------------------------------------------------

def json_files(root: str) -> dict[str, tuple[int, bytes]]:
    """The modification time and bytes of every ``*.json`` file under ``root``."""
    found = {}
    for folder, _, names in os.walk(root):
        for path in (os.path.join(folder, name) for name in names if name.endswith(".json")):
            with open(path, "rb") as fh:
                found[path] = (os.stat(path).st_mtime_ns, fh.read())
    return found


def no_nan(constant: str) -> float:
    """``parse_constant`` of strict JSON: ``Infinity`` and ``-Infinity``, never ``NaN``."""
    if constant == "NaN":
        raise ValueError("NaN")
    return float(constant)


def faults(case: Case, tmp: str, mixflow, pristine: str) -> list[str]:
    """What ``case`` gets wrong, run in the empty directory ``tmp`` by
    ``mixflow(argv) -> (code, stdout, stderr)``; store rows copy ``pristine``.
    Every JSON file the command writes must be strict JSON without NaN."""
    fields = {"tmp": tmp, "out": os.path.join(tmp, "out"), "store": os.path.join(tmp, "store"),
              "data": DATA, "pristine": pristine}
    for step in case.setup:
        step(fields, mixflow)
    before = json_files(tmp)
    code, out, err = mixflow([arg.format(**fields) for arg in case.argv])
    want = [line.format(**fields) for line in case.err]
    found = [f"{text} in the output" for text in FORBIDDEN if text in out + err]
    for path, (stamp, data) in json_files(tmp).items():
        try:
            if before.get(path) != (stamp, data):
                json.loads(data, parse_constant=no_nan)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
            found.append(f"{path} is not strict JSON: {exc}")
    if code != case.code:
        found.append(f"exit code {code}, expected {case.code}")
    if err.splitlines() != want:
        found.append(f"stderr {err.splitlines()}, expected {want}")
    if code >= 2 and out:
        found.append(f"stdout {out!r} on exit code {code}")
    if os.path.exists(fields["out"]) != case.out_made:
        found.append(f"{fields['out']} {'is missing' if case.out_made else 'was made'}")
    return found


def in_process(argv):
    """(exit code, stdout, stderr) of ``cli_main(argv)`` in this process; each
    warning is written to stderr as Python prints it, and an uncaught
    exception as its traceback with exit code 1."""
    from mixflow.cli import cli_main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli_main(argv)
        except Exception:
            code = 1
            traceback.print_exc()
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def script(argv):
    """(exit code, stdout, stderr) of the ``mixflow`` script on ``PATH``."""
    proc = subprocess.run(["mixflow", *argv], capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def stored_run(root: str, mixflow) -> str:
    """The two-frame shear run the store rows copy, written under ``root``."""
    out = os.path.join(root, "stored")
    code, _, err = mixflow(["run", "--config", os.path.join(DATA, "shear.ini"), "--t-end", "0.01",
                            "--n-cells", "32", "--out-dir", out])
    assert code == 0, err
    return out


def main(ids: list[str]) -> int:
    unknown = set(ids) - {case.id for case in ROWS}
    if unknown:
        sys.exit(f"unknown row ids: {sorted(unknown)}")
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        pristine = stored_run(root, script)
        for k, case in enumerate(c for c in ROWS if not ids or c.id in ids):
            tmp = os.path.join(root, f"row{k}")
            os.mkdir(tmp)
            try:
                found = faults(case, tmp, script, pristine)
            except Exception:  # a failed setup step fails its row, not the run
                found = traceback.format_exc().splitlines()
            failed += bool(found)
            print("FAIL" if found else "ok", case.id, flush=True)
            for fault in found:
                print("   ", fault)
    print(f"{failed} of {len(ids) or len(ROWS)} rows failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
