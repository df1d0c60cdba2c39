"""Command line interface.

Verbs::

    run        integrate a config, write trajectory + diagnostics + report
    check      re-audit a stored trajectory directory (exit 1 on FAIL)
    mms        manufactured-solution convergence study
    report     SVG plots of a stored trajectory (read-only)
    transform  map a snapshot between the two coordinate frames

Exit codes: 0 success / all audits PASS, 1 audit FAIL, 2 usage or config
error, 3 solver blow-up, 4 a forked frame worker died without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from . import estimates, io, lagrange, mms
from .config import RunConfig, advection, audit_names, integrator, parse_config_file
from .errors import (
    FileFormatError, MixflowError, ParseError, SolverBlowup, ValidationError, WorkerDied,
)
from .field import EULERIAN, LAGRANGIAN
from .model import derive_matrices
from .runner import concurrently, execute, save_result

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3
EXIT_WORKER_DIED = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mixflow", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="integrate a configured problem")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir", default=None, help="override [output] out_dir")
    run.add_argument("--frame", default=None, choices=(EULERIAN, LAGRANGIAN, "both"))
    run.add_argument("--n-cells", type=int, default=None)
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--scheme", default=None, help="override the time integrator")
    run.add_argument("--cfl", type=float, default=None)
    run.add_argument("--plots", action="store_true", help="also emit SVG plots")
    run.set_defaults(command=_cmd_run)

    chk = sub.add_parser("check", help="re-audit a stored trajectory")
    chk.add_argument("--traj", required=True, help="run output directory")
    chk.add_argument("--audits", default="all")
    chk.set_defaults(command=_cmd_check)

    ms = sub.add_parser("mms", help="manufactured-solution convergence study")
    ms.add_argument("--frame", default=EULERIAN, choices=(EULERIAN, LAGRANGIAN))
    ms.add_argument("--advection", default="central-2",
                    choices=("central-2", "first-order-upwind", "central", "upwind"))
    ms.add_argument("--levels", default="32,64,128")
    ms.add_argument("--t-end", type=float, default=0.25)
    ms.add_argument("--out-dir", default=None)
    ms.set_defaults(command=_cmd_mms)

    rep = sub.add_parser(
        "report",
        help="render SVG plots for a stored run from diag.csv and the last snapshot "
        "(check validates every snapshot)",
    )
    rep.add_argument("--traj", required=True)
    rep.add_argument("--out-dir", default=None, help="defaults next to the trajectory")
    rep.set_defaults(command=_cmd_report)

    tr = sub.add_parser("transform", help="map a snapshot between frames")
    tr.add_argument("--snap", required=True, help="snapshot CSV file")
    tr.add_argument("--frame", required=True, choices=(EULERIAN, LAGRANGIAN),
                    help="frame the snapshot is currently in")
    tr.add_argument("--out", required=True)
    tr.set_defaults(command=_cmd_transform)
    return ap


def _apply_overrides(rc: RunConfig, args) -> RunConfig:
    kw = {key: value for key in ("out_dir", "frame", "n_cells", "t_end")
          if (value := getattr(args, key)) is not None}
    if args.scheme is not None or args.cfl is not None:
        kw["scheme"] = replace(
            rc.scheme,
            time_integrator=integrator(args.scheme or rc.scheme.time_integrator),
            cfl=args.cfl if args.cfl is not None else rc.scheme.cfl,
        )
    return replace(rc, **kw)


def _cmd_run(args) -> int:
    rc = _apply_overrides(parse_config_file(args.config), args)
    os.makedirs(rc.out_dir, exist_ok=True)  # a path that cannot be one fails before the solve
    try:
        result = execute(rc, progress=lambda msg: print(msg, file=sys.stderr))
    except SolverBlowup as exc:
        print(f"solver blow-up: {exc}", file=sys.stderr)
        if exc.trajectory is not None and len(exc.trajectory):
            sub = os.path.join(rc.out_dir, exc.trajectory.frame)
            io.save_trajectory(sub, exc.trajectory, rc.params, rc.scheme)
            print(f"last valid trajectory saved under {sub}", file=sys.stderr)
        return EXIT_BLOWUP
    save_result(result, rc.out_dir, plots=args.plots)
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
        raise ParseError(f"no trajectory manifest under {root}")
    return subs


def _recompute(sub: str):
    """A stored trajectory with its diagnostics recomputed from the snapshots,
    its parameters and the stored diagnostics."""
    traj, params, _ = io.load_trajectory(sub)
    stored = traj.diagnostics
    return estimates.diagnose(traj, params, derive_matrices(params)), params, stored


def _ledger_mismatch(stored, fresh) -> tuple[int, str] | None:
    """(row, field) of the first stored state field that differs from its
    recomputation, in row order; None when all agree.  Two values agree when
    they are identical (equal infinities, or both NaN) or finite and within
    a relative 1e-9."""
    names = estimates.DiagnosticsRecord.STATE_FIELDS
    a, b = (np.array([[getattr(r, f) for f in names] for r in recs], dtype=float)
            for recs in (stored, fresh))
    with np.errstate(invalid="ignore", over="ignore"):
        close = np.isfinite(b) & (np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))
    bad = np.argwhere(~((a == b) | (np.isnan(a) & np.isnan(b)) | close))
    return (int(bad[0, 0]), names[bad[0, 1]]) if len(bad) else None


@np.errstate(over="ignore", invalid="ignore")
def _cmd_check(args) -> int:
    """Recompute the diagnostics from the snapshots (one frame per forked
    worker), cross-check the stored ledger, then re-run the audits; any
    mismatch or FAIL exits 1.  Huge stored values overflow to inf or NaN
    without numpy warnings: the ledger reason and the verdicts report them."""
    root = args.traj
    audits = audit_names(args.audits)
    loaded = concurrently([partial(_recompute, sub) for sub in _trajectory_dirs(root)])
    params = loaded[0][1]
    if any(p != params for _, p, _ in loaded[1:]):
        raise FileFormatError(f"{root}: the frames' manifests give different params")
    derived = derive_matrices(params)
    ledger_ok = True
    recomputed = {}
    for traj, _, stored in loaded:
        frame, fresh = traj.frame, traj.diagnostics
        if len(stored) != len(fresh):
            print(f"{frame}: diagnostics rows != snapshots", file=sys.stderr)
            ledger_ok = False
        elif (bad := _ledger_mismatch(stored, fresh)) is not None:
            k, name = bad
            print(f"{frame}: stored {name} row {k} = {getattr(stored[k], name)!r} "
                  f"!= recomputed {getattr(fresh[k], name)!r}", file=sys.stderr)
            ledger_ok = False
        recomputed[frame] = traj

    report = estimates.build_report(
        params, derived,
        eulerian=recomputed.get(EULERIAN),
        lagrangian=recomputed.get(LAGRANGIAN),
        audits=audits,
    )
    io.save_report(os.path.join(root, "report.json"), report)
    print(report.render_text())
    if not ledger_ok:
        print("stored diagnostics disagree with the snapshots", file=sys.stderr)
    return EXIT_OK if (report.passed and ledger_ok) else EXIT_AUDIT_FAIL


def _cmd_mms(args) -> int:
    try:
        levels = tuple(int(s) for s in args.levels.split(","))
    except ValueError:
        raise ParseError(f"--levels takes comma-separated integers, got {args.levels!r}") from None
    adv = advection(args.advection)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)  # before the study, as in run
    table = mms.mms_study(frame=args.frame, advection=adv, levels=levels, t_end=args.t_end)
    print(table.render_text())
    if args.out_dir:
        out = os.path.join(args.out_dir, f"mms_{args.frame}_{adv}.json")
        with open(out, "w") as fh:
            json.dump(asdict(table), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if table.passed else EXIT_AUDIT_FAIL


def _cmd_report(args) -> int:
    made = []
    for sub in _trajectory_dirs(args.traj):
        traj, _, _ = io.load_trajectory(sub, final_only=True)
        out_dir = args.out_dir or sub
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
        return args.command(args)
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
    except OSError as exc:  # an output path that cannot be written
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
