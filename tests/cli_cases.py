"""The CLI's exit-code contract, one row per case.

A row is a ``mixflow`` command line, the setup it needs (an edited shipped
INI file, a corrupted copy of a stored run, an earlier command), the exit
code it must end with and its exact stderr lines.  Every row also requires
that neither output stream holds a traceback or a warning, that exit codes
2 and above print nothing on stdout, and that the row's output path
``{out}`` exists afterwards exactly when ``out_made`` says so.

Arguments and lines are templates over the row's empty directory
``{tmp}``, its output path ``{out}``, its copy of the stored run
``{store}`` and the shipped data directory ``{data}``; a setup step may add
fields of its own.

``tests/test_io_cli.py`` runs every row in-process through ``cli_main``:
``CASES`` as ``test_cli_case`` and ``STORE_FAULTS`` as
``test_corrupt_store``; ``python tests/cli_cases.py [ID ...]`` runs every
row, or the named ones, in subprocesses through the ``mixflow`` script on
``PATH`` and exits 1 when a row fails.
"""

from __future__ import annotations

import contextlib
import io
import json
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
    starts with an edit's prefix replaced by its text; ``table(lines)``, when
    given, writes ``{tmp}/random_smooth_init.csv`` from the shipped table."""
    def step(fields, mixflow):
        shutil.copy(os.path.join(DATA, f"{name}.ini"), os.path.join(fields["tmp"], "case.ini"))
        for prefix, text in edits:
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


def manifest(change):
    """Apply ``change`` to the parsed Eulerian manifest of ``{store}``."""
    def step(fields, mixflow):
        path = os.path.join(fields["store"], "eulerian", "manifest.json")
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


def write(path, text):
    """Write ``text`` to the file at ``path``."""
    def step(fields, mixflow):
        with open(path.format(**fields), "w") as fh:
            fh.write(text)
    return step


def command(*argv, code):
    """Run ``mixflow argv`` first; it must exit with ``code``."""
    def step(fields, mixflow):
        got, _, err = mixflow([a.format(**fields) for a in argv])
        assert got == code, f"setup command exited {got}, expected {code}: {err}"
    return step


# -- rows --------------------------------------------------------------------

SHEAR = "{data}/shear.ini"
RUN = ("run", "--config", "{tmp}/case.ini")
BEYOND_FLOAT = "1" + "0" * 400
BEYOND_GRID = "1" + "0" * 20
BLOWUP = ("running eulerian solver to t = 0.001", "solver blow-up: non-finite values in RK2 stage",
          "last valid trajectory saved under {out}/eulerian")
DISAGREE = "stored diagnostics disagree with the snapshots"
# a mass-coordinate snapshot whose two densest nodes add nothing to the volume
DENSE_PAIR = "x_or_y,rho,u1,u2\n" + "".join(
    f"{k / 64!r},{1e300 if k in (30, 31) else 62 / 64!r},0.0,0.0\n" for k in range(65))


# finite table rows whose u1 slope, 1e300 over a gap of 1e-300, overflows
SLOPE_OVERFLOW = ["x_or_y,rho,u1,u2,u3", "0.0,1.0,0,0,0", "1e-300,1.0,1e300,0,0", "1.0,1.0,0,0,0"]


CHECK = ("check", "--traj", "{store}")
EUL = "{store}/eulerian"
MANIFEST, STATES = f"error: {EUL}/manifest.json: ", f"error: {EUL}/states.npy: "
FINAL = f"error: {EUL}/{{final}}: "
NOT_NPY = STATES + "not a whole .npy file"
TIMES = MANIFEST + "times must be finite, non-negative and strictly increasing"
SCHEME_KEYS = ("field 'scheme' must have the keys ['advection', 'artificial_floor', 'cfl', "
               "'time_integrator'], got [\"advection\", \"artificial_floor\", \"time_integrator\"]")


#: a corrupted stored run: ``check`` exits 2 with one line naming the file
STORE_FAULTS = [
    # states.npy: missing or unreadable, not a whole .npy file, another dtype
    # or shape, another sha256, and records Trajectory refuses
    Case("missing-states", CHECK, 2,
         (f"error: cannot read {EUL}/states.npy: No such file or directory",),
         (store, remove(EUL + "/states.npy"))),
    Case("unreadable-states", CHECK, 2, (f"error: cannot read {EUL}/states.npy: Is a directory",),
         (store, remove(EUL + "/states.npy", os.mkdir))),
    Case("bad-magic", CHECK, 2, (NOT_NPY,),
         (store, raw(EUL + "/states.npy", lambda b: b"x" + b[1:]))),
    Case("header-only-states", CHECK, 2, (NOT_NPY,),
         (store, raw(EUL + "/states.npy", lambda b: b[:10 + int.from_bytes(b[8:10], "little")]))),
    Case("truncated-data", CHECK, 2, (NOT_NPY,),
         (store, raw(EUL + "/states.npy", lambda b: b[:-8]))),
    Case("float32-states", CHECK, 2, (STATES + "<f4 (2, 3, 33), expected <f8 (2, 3, 33)",),
         (store, new_records(lambda s: s.astype("<f4")))),
    Case("rho-only-states", CHECK, 2, (STATES + "<f8 (2, 1, 33), expected <f8 (2, 3, 33)",),
         (store, new_records(lambda s: s[:, :1]))),
    Case("node-count", CHECK, 2, (STATES + "<f8 (2, 3, 32), expected <f8 (2, 3, 33)",),
         (store, new_records(lambda s: s[..., :-1]))),
    Case("states-digest", CHECK, 2, (STATES + "sha256 does not match the manifest",),
         (store, raw(EUL + "/states.npy", lambda b: b[:-1] + bytes([b[-1] ^ 1])))),
    Case("final-snapshot-digest", CHECK, 2,
         (FINAL + "sha256 does not match the manifest",),
         (store, column(EUL + "/{final}", "u1", lambda c: "0.5", slice(3, 4)))),
    Case("non-finite-record", CHECK, 2, (STATES + "state contains non-finite values",),
         (store, new_records(put((0, 1, 5), float("nan"))))),
    Case("non-positive-density", CHECK, 2, (STATES + "min(rho) = -1.0 <= 0",),
         (store, new_records(put((1, 0, 5), -1.0)))),
    Case("non-zero-wall", CHECK, 2, (STATES + "boundary velocities must be exactly zero",),
         (store, new_records(put((1, 2, 0), 0.5)))),
    # the final snapshot, rewritten with its sha256: read as transform reads
    # it, then on the manifest's grid and velocity count
    Case("header-only-snapshot", CHECK, 2, (FINAL + "no data rows",),
         (store, final_snapshot(lambda lines: lines[:1]))),
    Case("two-column-snapshot", CHECK, 2,
         (FINAL + "2 columns for the 2 of header x_or_y,rho; expected x_or_y, rho and one "
          "column per velocity",),
         (store, final_snapshot(lambda lines: [",".join(r.split(",")[:2]) for r in lines]))),
    Case("columns-differ-from-header", CHECK, 2,
         (FINAL + "3 columns for the 4 of header x_or_y,rho,u1,u2",),
         (store, final_snapshot(lambda lines: lines[:1] + [r.rsplit(",", 1)[0]
                                                           for r in lines[1:]]))),
    Case("velocity-name", CHECK, 2,
         (FINAL + "expected header x_or_y,rho,u1,..., got ['x_or_y', 'rho', 'u1', 'v2']",),
         (store, final_snapshot(lambda lines: ["x_or_y,rho,u1,v2", *lines[1:]]))),
    Case("interior-x", CHECK, 2, (FINAL + "x_or_y is not the uniform grid on (0, 1.0)",),
         (store, final_snapshot(lambda lines: lines[:5] + ["0.5" + lines[5][lines[5].index(","):]]
                                + lines[6:]))),
    Case("velocity-count", CHECK, 2,
         (FINAL + "33 nodes on (0, 1.0) and 1 velocities, the manifest gives 33 nodes on "
          "(0, 1.0) and 2",),
         (store, final_snapshot(lambda lines: [r.rsplit(",", 1)[0] for r in lines]))),
    Case("domain-length", CHECK, 2,  # states.npy holds no x column; the final snapshot does
         (FINAL + "33 nodes on (0, 1.0) and 2 velocities, the manifest gives 33 nodes on "
          "(0, 3.0) and 2",),
         (store, manifest(lambda m: m.update(domain_length=3.0)))),
    # manifest.json
    Case("version", CHECK, 2, (MANIFEST + "version 1 is not 2",),  # a store of format 1
         (store, manifest(lambda m: m.update(version=1)))),
    Case("non-utf8-manifest", CHECK, 2,
         (f"error: bad manifest {EUL}/manifest.json: 'utf-8' codec can't decode byte 0xff in "
          "position 74: invalid start byte",),
         (store, raw(EUL + "/manifest.json", lambda b: b.replace(b"eulerian", b"euler\xffan")))),
    Case("scheme-key", CHECK, 2, (MANIFEST + SCHEME_KEYS,),
         (store, manifest(lambda m: m["scheme"].pop("cfl")))),
    Case("scheme-cfl", CHECK, 2, (MANIFEST + "cfl must be in (0, 1], got 1.5",),
         (store, manifest(lambda m: m["scheme"].update(cfl=1.5)))),
    Case("scheme-cfl-type", CHECK, 2, (MANIFEST + "field 'cfl' must be a number, got \"0.4\"",),
         (store, manifest(lambda m: m["scheme"].update(cfl="0.4")))),
    Case("gamma-one", CHECK, 2, (MANIFEST + "gamma must be > 1, got 1.0",),
         (store, manifest(lambda m: m["params"].update(gamma=1.0)))),
    Case("asymmetric-viscosity", CHECK, 2, (MANIFEST + "viscosity matrix M is not symmetric",),
         (store, manifest(lambda m: m["params"]["viscosity"][0].__setitem__(1, 0.05)))),
    Case("viscosity-beyond-float", CHECK, 2, (MANIFEST + "int too large to convert to float",),
         (store, manifest(lambda m: m["params"]["viscosity"][0].__setitem__(0, 10**400)))),
    Case("params-hash", CHECK, 2,
         (MANIFEST + "params_hash does not match the stored parameters",),
         (store, manifest(lambda m: m["params"].update(pressure_coeff=1.5)))),
    Case("reversed-times", CHECK, 2, (TIMES,), (store, manifest(lambda m: m["times"].reverse()))),
    Case("non-finite-time", CHECK, 2, (TIMES,),
         (store, manifest(lambda m: m["times"].__setitem__(1, float("nan"))))),
    Case("negative-time", CHECK, 2, (TIMES,),
         (store, manifest(lambda m: m.update(times=[t - 1.0 for t in m["times"]])))),
    Case("unknown-frame", CHECK, 2, (MANIFEST + "unknown frame 'physical'",),
         (store, manifest(lambda m: m.update(frame="physical")))),
    Case("snapshot-index", CHECK, 2, (MANIFEST + "snapshots must be a list of one file name",),
         (store, manifest(lambda m: m["snapshots"].__setitem__(0, 7)))),
    Case("params-type", CHECK, 2, (MANIFEST + "field 'params' must be an object, got [1, 2]",),
         (store, manifest(lambda m: m.update(params=[1, 2])))),
    Case("n-cells-type", CHECK, 2, (MANIFEST + "field 'n_cells' must be an integer, got \"x\"",),
         (store, manifest(lambda m: m.update(n_cells="x")))),
    Case("domain-length-type", CHECK, 2,
         (MANIFEST + "field 'domain_length' must be a number, got null",),
         (store, manifest(lambda m: m.update(domain_length=None)))),
    Case("gamma-type", CHECK, 2, (MANIFEST + "field 'gamma' must be a number, got \"1.4\"",),
         (store, manifest(lambda m: m["params"].update(gamma="1.4")))),
    Case("ragged-friction", CHECK, 2,
         (MANIFEST + "field 'friction' must be a matrix of numbers, got [[0.0, 0.4], [0.4]]",),
         (store, manifest(lambda m: m["params"]["friction"][1].pop()))),
    Case("times-type", CHECK, 2,
         (MANIFEST + "field 'times' must be a list of numbers, got [0.0, \"0.1\"]",),
         (store, manifest(lambda m: m["times"].__setitem__(1, "0.1")))),
    # diag.csv: a state field must be complete; a time field complete or empty throughout
    Case("empty-cell", CHECK, 2, (f"error: {EUL}/diag.csv: line 3: energy is empty",),
         (store, column(EUL + "/diag.csv", "energy", lambda c: "", slice(1, 2)))),
    Case("partly-empty-time-column", CHECK, 2, (f"error: {EUL}/diag.csv: line 3: alpha is empty",),
         (store, column(EUL + "/diag.csv", "alpha", lambda c: "", slice(1, 2)))),
    Case("non-numeric-diag-cell", CHECK, 2,
         (f"error: {EUL}/diag.csv: line 3: could not convert string to float: 'abc'",),
         (store, column(EUL + "/diag.csv", "w_norm", lambda c: "abc", slice(1, 2)))),
    Case("non-utf8-diag", CHECK, 2,  # the byte decodes to U+FFFD
         (f"error: {EUL}/diag.csv: line 3: could not convert string to float: '\ufffd.01'",),
         (store, raw(EUL + "/diag.csv", lambda b: b.replace(b"\n0.01", b"\n\xff.01")))),
]

CASES = [
    # exit 1: the stored ledger disagrees with its recomputation
    Case("doubled-alpha-column", ("check", "--traj", "{store}"), 1,
         ("eulerian: stored alpha row 0 = {now} != recomputed {was}", DISAGREE),
         (store, column("{store}/eulerian/diag.csv", "alpha", lambda c: repr(2 * float(c))))),
    Case("blank-alpha-column", ("check", "--traj", "{store}"), 1,
         ("eulerian: stored diagnostics lack alpha", DISAGREE),
         (store, column("{store}/eulerian/diag.csv", "alpha", lambda c: ""))),
    Case("lagrangian-alpha-column", ("check", "--traj", "{store}"), 1,
         ("lagrangian: stored diagnostics have alpha, which does not apply", DISAGREE),
         (store, column("{store}/lagrangian/diag.csv", "alpha", lambda c: "1.0"))),
    Case("header-only-ledger", ("check", "--traj", "{store}"), 1,
         ("eulerian: diagnostics rows != snapshots", DISAGREE),
         (store, edit("{store}/eulerian/diag.csv", lambda lines: lines[:1]))),
    # exit 2: arguments and INI files, refused before any output
    Case("malformed-n-cells", ("run", "--config", SHEAR, "--n-cells", "abc", "--out-dir", "{out}"),
         2, ("config error: [scheme] n_cells: invalid literal for int() with base 10: 'abc'",)),
    Case("malformed-cfl", ("run", "--config", SHEAR, "--cfl", "x", "--out-dir", "{out}"), 2,
         ("config error: [scheme] cfl: could not convert string to float: 'x'",)),
    Case("unknown-scheme", ("run", "--config", SHEAR, "--scheme", "bogus", "--out-dir", "{out}"),
         2, ("config error: unknown integrator 'bogus'",)),
    Case("unknown-advection", ("mms", "--advection", "bogus"), 2,
         ("config error: unknown advection 'bogus'",)),
    Case("n-cells-beyond-grid",
         ("run", "--config", SHEAR, "--n-cells", BEYOND_GRID, "--out-dir", "{out}"), 2,
         (f"config error: n_cells must lie in [8, 2147483646], got {BEYOND_GRID}",)),
    Case("mms-level-beyond-grid", ("mms", "--levels", f"8,{BEYOND_GRID}", "--out-dir", "{out}"), 2,
         (f"config error: n_cells must lie in [8, 2147483646], got {BEYOND_GRID}",)),
    Case("run-horizon-too-short",
         ("run", "--config", SHEAR, "--t-end", "1e-14", "--n-cells", "16", "--out-dir", "{out}"),
         2, ("config error: t_end must lie in (1e-13, T_final = 2.0], got 1e-14",)),
    Case("mms-horizon-too-short",
         ("mms", "--levels", "8,16", "--t-end", "1e-14", "--out-dir", "{out}"), 2,
         ("config error: t_end must be finite and above 1e-13, got 1e-14",)),
    Case("missing-params-key", (*RUN, "--out-dir", "{out}"), 2,
         ("config error: missing key 'gamma' in [params]",), (ini("shear", ("gamma = ", "")),)),
    Case("unknown-section", (*RUN, "--out-dir", "{out}"), 2,
         ("config error: unknown section [DEFAULT]",),
         (ini("shear", ("[params]", "[DEFAULT]\n[params]")),)),
    Case("non-finite-amplitude", (*RUN, "--out-dir", "{out}"), 2,
         ("config error: [initial] u1: amp must be finite, got inf",),
         (ini("shear", ("u1 = ", "u1 = sine:k=1,amp=inf")),)),
    Case("infinite-t-final", (*RUN, "--out-dir", "{out}"), 2,
         ("config error: T_final must be finite, got inf",),
         (ini("shear", ("t_final = ", "t_final = inf")),)),
    Case("matrix-entry-beyond-float", (*RUN, "--n-cells", "16", "--t-end", "1e-6", "--out-dir",
                                       "{out}"), 2,
         ("config error: [params] viscosity: expected JSON row lists "
          "(int too large to convert to float)",),
         (ini("shear", ("viscosity = ", f"viscosity = [[{BEYOND_FLOAT}, 0.03], [0.03, 0.1]]")),)),
    Case("no-audits-requested", (*RUN, "--out-dir", "{out}"), 2,
         ("config error: no audits requested",), (ini("shear", ("audits = ", "audits = ,")),)),
    Case("non-utf8-config", (*RUN, "--n-cells", "16", "--t-end", "0.001", "--out-dir", "{out}"),
         2, ("config error: cannot read config {tmp}/case.ini: 'utf-8' codec can't decode byte "
             "0xff in position 513: invalid start byte",),
         (ini("shear"), raw("{tmp}/case.ini", lambda b: b + b"\xff"))),
    # exit 2: initial data, refused before any output
    Case("header-only-table", (*RUN, "--out-dir", "{out}"), 2,
         ("error: {tmp}/random_smooth_init.csv: no data rows",),
         (ini("random_smooth", table=lambda lines: lines[:1]),)),
    Case("one-row-table", (*RUN, "--out-dir", "{out}"), 2,
         ("error: table {tmp}/random_smooth_init.csv needs 2 or more rows of finite x_or_y "
          "and rho",), (ini("random_smooth", table=lambda lines: lines[:2]),)),
    Case("table-slope-overflow", (*RUN, "--n-cells", "16", "--out-dir", "{out}"), 2,
         ("error: table {tmp}/random_smooth_init.csv column 'u1' interpolates to non-finite "
          "values",), (ini("random_smooth", table=lambda lines: SLOPE_OVERFLOW),)),
    Case("heavy-mass-run", (*RUN, "--n-cells", "16", "--t-end", "1e-6", "--out-dir", "{out}"), 2,
         ("config error: mass map must be finite, got a total of inf",),
         (ini("shear", ("rho = ", "rho = constant:value=1e308")),)),
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
    Case("transform-into-missing-dir", ("transform", "--snap", "{store}/eulerian/{final}",
                                        "--frame", "eulerian", "--out", "{tmp}/missing/lag.csv"),
         2, ("error: {tmp}/missing/lag.csv: No such file or directory",), (store,)),
    Case("heavy-mass-transform", ("transform", "--snap", "{store}/eulerian/{final}",
                                  "--frame", "eulerian", "--out", "{out}"), 2,
         ("config error: mass map must be finite, got a total of inf",),
         (store, column("{store}/eulerian/{final}", "rho", lambda c: "1e308"))),
    Case("mass-map-not-monotone", ("transform", "--snap", "{tmp}/lag.csv", "--frame",
                                   "lagrangian", "--out", "{out}"), 2,
         ("config error: mass map must be strictly monotone",),
         (write("{tmp}/lag.csv", DENSE_PAIR),)),
    # exit 2: stored runs
    Case("no-trajectory-manifest", ("check", "--traj", "{tmp}"), 2,
         ("error: {tmp}: no trajectory manifest",)),
    Case("unknown-audit", ("check", "--traj", "{tmp}", "--audits", "bogus"), 2,  # before any read
         (f"config error: unknown audit 'bogus'; known: {AUDITS}",)),
    Case("blank-diag-cell", ("check", "--traj", "{store}"), 2,
         ("error: {store}/eulerian/diag.csv: line 2: energy is empty",),
         (store, column("{store}/eulerian/diag.csv", "energy", lambda c: "", slice(1)))),
    Case("missing-snapshot", ("check", "--traj", "{store}"), 2,
         ("error: cannot read {store}/eulerian/{final}: No such file or directory",),
         (store, remove("{store}/eulerian/{final}"))),
    Case("report-on-another-grid", ("report", "--traj", "{store}"), 2,
         ("error: {store}/eulerian/{final}: 33 nodes on (0, 1.0) and 2 velocities, the manifest "
          "gives 33 nodes on (0, 3.0) and 2",),
         (store, manifest(lambda m: m.update(domain_length=3.0)))),
    Case("manifest-entry-beyond-float", ("check", "--traj", "{store}"), 2,
         ("error: {store}/eulerian/manifest.json: int too large to convert to float",),
         (store, manifest(lambda m: m["times"].__setitem__(1, 10**400)))),
    # exit 3: a blow-up saves the last valid trajectory
    Case("overflowing-run", (*RUN, "--n-cells", "32", "--t-end", "0.001", "--frame", "eulerian",
                             "--out-dir", "{out}"), 3, BLOWUP,
         (ini("shear", ("u1 = ", "u1 = sine:k=1,amp=1e200")),), out_made=True),
    # exit 0: report plots the partial run of an overflow without a finite energy
    Case("report-without-finite-energy", ("report", "--traj", "{out}"), 0, (),
         (ini("shear", ("u1 = ", "u1 = sine:k=1,amp=1e160")),
          command(*RUN, "--n-cells", "32", "--t-end", "1e-7", "--frame", "eulerian", "--out-dir",
                  "{out}", code=3)), out_made=True),
]


#: every row: ``CASES`` and, under the test ids ``test_corrupt_store`` gives
#: them, ``STORE_FAULTS``
ROWS = [*CASES, *STORE_FAULTS]


# -- runners -----------------------------------------------------------------

def faults(case: Case, tmp: str, mixflow, pristine: str) -> list[str]:
    """What ``case`` gets wrong, run in the empty directory ``tmp`` by
    ``mixflow(argv) -> (code, stdout, stderr)``; store rows copy ``pristine``."""
    fields = {"tmp": tmp, "out": os.path.join(tmp, "out"), "store": os.path.join(tmp, "store"),
              "data": DATA, "pristine": pristine}
    for step in case.setup:
        step(fields, mixflow)
    code, out, err = mixflow([arg.format(**fields) for arg in case.argv])
    want = [line.format(**fields) for line in case.err]
    found = [f"{text} in the output" for text in FORBIDDEN if text in out + err]
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
            found = faults(case, tmp, script, pristine)
            failed += bool(found)
            print("FAIL" if found else "ok", case.id, flush=True)
            for fault in found:
                print("   ", fault)
    print(f"{failed} of {len(ids) or len(ROWS)} rows failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
