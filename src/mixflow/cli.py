"""Command line interface.

Verbs::

    run        integrate a config, write trajectory + diagnostics + report
    check      re-audit a stored trajectory directory (exit 1 on FAIL)
    mms        manufactured-solution convergence study
    report     SVG plots of a stored trajectory (read-only)
    transform  map a snapshot between the two coordinate frames

Exit codes: 0 success / all audits PASS, 1 audit FAIL, 2 usage, config or
input error or out of memory, 3 solver blow-up, 4 a forked worker died.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict

import numpy as np

from . import estimates, io, lagrange, mms
from .config import FRAMES, advection, audit_names, parse_config_file
from .errors import (
    FileFormatError, MixflowError, ParseError, SolverBlowup, ValidationError, WorkerDied,
)
from .field import EULERIAN, LAGRANGIAN
from .model import derive_matrices
from .runner import execute, initial_states, save_result
from .timestepping import CENTRAL

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3
EXIT_WORKER_DIED = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; ``cli_main`` calls ``_cmd_<verb>`` by name per call."""
    ap = argparse.ArgumentParser(prog="mixflow", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="integrate a configured problem")
    run.add_argument("--config", required=True)
    # each flag below sets the INI key its dest names as <section>.<key>
    run.add_argument("--out-dir", dest="output.out_dir", metavar="OUT_DIR",
                     help="override [output] out_dir")
    run.add_argument("--frame", dest="scheme.frame", choices=FRAMES)
    run.add_argument("--n-cells", dest="scheme.n_cells", metavar="N_CELLS")
    run.add_argument("--t-end", dest="scheme.t_end", metavar="T_END")
    run.add_argument("--scheme", dest="scheme.integrator", metavar="SCHEME",
                     help="override the time integrator")
    run.add_argument("--cfl", dest="scheme.cfl", metavar="CFL")

    chk = sub.add_parser("check", help="re-audit a stored trajectory")
    chk.add_argument("--traj", required=True, help="run output directory")
    chk.add_argument("--audits", default="all")

    ms = sub.add_parser("mms", help="manufactured-solution convergence study")
    ms.add_argument("--frame", default=EULERIAN, choices=(EULERIAN, LAGRANGIAN))
    ms.add_argument("--advection", default=CENTRAL)
    ms.add_argument("--levels", default="32,64,128")
    ms.add_argument("--t-end", type=float, default=0.25)
    ms.add_argument("--out-dir", default=None)

    rep = sub.add_parser(
        "report",
        help="render SVG plots for a stored run from diag.csv and the last snapshot "
        "(check validates every record)",
    )
    rep.add_argument("--traj", required=True)
    rep.add_argument("--out-dir", default=None,
                     help="defaults next to the trajectory; a two-frame run's plots go to "
                     "OUT_DIR/<frame>")

    tr = sub.add_parser("transform", help="map a snapshot between frames")
    tr.add_argument("--snap", required=True, help="snapshot CSV file")
    tr.add_argument("--frame", required=True, choices=(EULERIAN, LAGRANGIAN),
                    help="frame the snapshot is currently in")
    tr.add_argument("--out", required=True)
    return ap


def _settings(args) -> list[tuple[str, str, str]]:
    """``run``'s flags as the (section, key, value) INI settings they make."""
    return [(*dest.split("."), value) for dest, value in vars(args).items()
            if "." in dest and value is not None]


def _cmd_run(args) -> int:
    rc = parse_config_file(args.config, _settings(args))
    starts = initial_states(rc)  # initial data it refuses leaves no output behind
    os.makedirs(rc.out_dir, exist_ok=True)  # a path that cannot be one fails before the solve
    try:
        result = execute(rc, progress=lambda msg: print(msg, file=sys.stderr), starts=starts)
    except SolverBlowup as exc:
        print(f"solver blow-up: {exc}", file=sys.stderr)
        if exc.trajectory is not None:
            sub = os.path.join(rc.out_dir, exc.trajectory.frame)
            io.save_trajectory(sub, exc.trajectory, rc.params, rc.scheme)
            print(f"last valid trajectory saved under {sub}", file=sys.stderr)
        return EXIT_BLOWUP
    save_result(result, rc.out_dir)
    print(result.report.render_text())
    print(f"outputs under {rc.out_dir}")
    return EXIT_OK if result.report.passed else EXIT_AUDIT_FAIL


def _trajectory_dirs(root: str) -> list[str]:
    """``root`` when it holds a manifest, else its per-frame subdirectories."""
    if os.path.exists(os.path.join(root, "manifest.json")):
        return [root]
    subs = [os.path.join(root, frame) for frame in (EULERIAN, LAGRANGIAN)]
    subs = [sub for sub in subs if os.path.exists(os.path.join(sub, "manifest.json"))]
    if not subs:
        raise FileFormatError(f"{root}: no trajectory manifest")
    return subs


def _ledger_fault(stored, fresh) -> str | None:
    """Why the stored ledger disagrees with its recomputation ``fresh`` (a row
    count, a field on one side only, the first differing value in row order),
    else None.  Two values agree when they are identical (equal infinities, or
    both NaN) or finite and within a relative 1e-9."""
    if len(stored.get("time", ())) != len(fresh["time"]):
        return "diagnostics rows != snapshots"
    for name in estimates.FIELDS:
        if (name in stored) != (name in fresh):
            return (f"stored diagnostics lack {name}" if name in fresh
                    else f"stored diagnostics have {name}, which does not apply")
    names = [f for f in estimates.FIELDS if f in fresh]
    a, b = (np.stack([led[f] for f in names], axis=-1) for led in (stored, fresh))
    close = np.isfinite(b) & (np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))
    if len(bad := np.argwhere(~((a == b) | (np.isnan(a) & np.isnan(b)) | close))):
        k, name = int(bad[0, 0]), names[bad[0, 1]]
        return (f"stored {name} row {k} = {stored[name][k].item()!r} "
                f"!= recomputed {fresh[name][k].item()!r}")


def _cmd_check(args) -> int:
    """Recompute the diagnostics from the stored records, cross-check the
    stored ledger, then re-run the audits; any mismatch or FAIL exits 1.
    Huge stored values overflow to inf or NaN: the ledger reason and the
    verdicts report them."""
    root = args.traj
    audits = audit_names(args.audits)
    loaded = [io.load_trajectory(sub)[:2] for sub in _trajectory_dirs(root)]
    params = loaded[0][1]
    if any(p != params for _, p in loaded[1:]):
        raise FileFormatError(f"{root}: the frames' manifests give different params")
    stored = [traj.diagnostics for traj, _ in loaded]
    trajs = [estimates.diagnose(traj, params) for traj, _ in loaded]
    report = estimates.build_report(params, derive_matrices(params), trajs, audits)
    faults = [f"{traj.frame}: {why}" for traj, led in zip(trajs, stored)
              if (why := _ledger_fault(led, traj.diagnostics)) is not None]
    for line in faults:
        print(line, file=sys.stderr)
    io.save_report(os.path.join(root, "report.json"), report)
    print(report.render_text())
    if faults:
        print("stored diagnostics disagree with the snapshots", file=sys.stderr)
    return EXIT_OK if (report.passed and not faults) else EXIT_AUDIT_FAIL


def _cmd_mms(args) -> int:
    try:
        levels = tuple(int(s) for s in args.levels.split(","))
    except ValueError:
        raise ParseError(f"--levels takes comma-separated integers, got {args.levels!r}") from None
    adv = advection(args.advection)
    if args.out_dir:  # made before the study runs, as in run, but not for one it refuses
        mms.ladder(args.frame, levels, args.t_end)
        os.makedirs(args.out_dir, exist_ok=True)
    table = mms.mms_study(frame=args.frame, advection=adv, levels=levels, t_end=args.t_end)
    print(table.render_text())
    if args.out_dir:
        io.write_json(os.path.join(args.out_dir, f"mms_{args.frame}_{adv}.json"), asdict(table))
    return EXIT_OK if table.passed else EXIT_AUDIT_FAIL


def _cmd_report(args) -> int:
    subs, made = _trajectory_dirs(args.traj), []
    for sub in subs:
        traj, _, _ = io.load_trajectory(sub, final_only=True)
        out_dir = args.out_dir or sub
        if args.out_dir and len(subs) > 1:  # two frames: one directory each
            out_dir = os.path.join(args.out_dir, traj.frame)
        os.makedirs(out_dir, exist_ok=True)
        made += io.render_report_plots(out_dir, traj)
    for path in made:
        print(path)
    return EXIT_OK


def _cmd_transform(args) -> int:
    state = io.read_snapshot(args.snap, time=0.0, frame=args.frame)
    to_other = lagrange.euler_to_lagrange if args.frame == EULERIAN else lagrange.lagrange_to_euler
    out = to_other(state)
    io.write_snapshot(args.out, out)
    print(f"{args.frame} -> {out.frame}: wrote {args.out}")
    return EXIT_OK


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # overflow and division by zero give inf or NaN without a warning:
        # the stage checks, the verdicts and the file checks report them
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return globals()[f"_cmd_{args.verb}"](args)
    except SolverBlowup as exc:
        print(f"solver blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MixflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an output path that cannot be written, a full disk
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
