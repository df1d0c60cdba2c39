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
from functools import partial

from . import estimates, io, lagrange, mms
from .config import RunConfig, parse_config_file
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

    chk = sub.add_parser("check", help="re-audit a stored trajectory")
    chk.add_argument("--traj", required=True, help="run output directory")
    chk.add_argument("--audits", default="all")

    ms = sub.add_parser("mms", help="manufactured-solution convergence study")
    ms.add_argument("--frame", default=EULERIAN, choices=(EULERIAN, LAGRANGIAN))
    ms.add_argument("--advection", default="central-2",
                    choices=("central-2", "first-order-upwind", "central", "upwind"))
    ms.add_argument("--levels", default="32,64,128")
    ms.add_argument("--t-end", type=float, default=0.25)
    ms.add_argument("--out-dir", default=None)

    rep = sub.add_parser(
        "report",
        help="render SVG plots for a stored run from diag.csv and the last snapshot "
        "(check validates every snapshot)",
    )
    rep.add_argument("--traj", required=True)
    rep.add_argument("--out-dir", default=None, help="defaults next to the trajectory")

    tr = sub.add_parser("transform", help="map a snapshot between frames")
    tr.add_argument("--snap", required=True, help="snapshot CSV file")
    tr.add_argument("--frame", required=True, choices=(EULERIAN, LAGRANGIAN),
                    help="frame the snapshot is currently in")
    tr.add_argument("--out", required=True)
    return ap


def _apply_overrides(rc: RunConfig, args) -> RunConfig:
    kw = {}
    if args.out_dir is not None:
        kw["out_dir"] = args.out_dir
    if args.frame is not None:
        kw["frame"] = args.frame
    if args.n_cells is not None:
        kw["n_cells"] = args.n_cells
    if args.t_end is not None:
        kw["t_end"] = args.t_end
    if args.scheme is not None or args.cfl is not None:
        from .config import _INTEGRATOR_ALIASES

        integ = args.scheme.lower() if args.scheme else rc.scheme.time_integrator.lower()
        if integ not in _INTEGRATOR_ALIASES:
            raise ParseError(f"unknown integrator {args.scheme!r}")
        from dataclasses import replace

        kw["scheme"] = replace(
            rc.scheme,
            time_integrator=_INTEGRATOR_ALIASES[integ],
            cfl=args.cfl if args.cfl is not None else rc.scheme.cfl,
        )
    return rc.replace(**kw) if kw else rc


def _cmd_run(args) -> int:
    rc = _apply_overrides(parse_config_file(args.config), args)
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
    derived = derive_matrices(params)
    stored = traj.diagnostics
    traj.diagnostics = [estimates.make_record(s, params, derived) for s in traj.states]
    if len(traj) >= 2:
        estimates.attach_time_fields(traj, params, derived)
    return traj, params, stored


def _cmd_check(args) -> int:
    """Recompute the diagnostics from the snapshots (one frame per forked
    worker), cross-check the stored ledger, then re-run the audits; any
    mismatch or FAIL exits 1."""
    root = args.traj
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
        else:
            for k, (a, b) in enumerate(zip(stored, fresh)):
                for name in estimates.DiagnosticsRecord.STATE_FIELDS:
                    va, vb = getattr(a, name), getattr(b, name)
                    if abs(va - vb) > 1e-9 * max(1.0, abs(vb)):
                        print(
                            f"{frame}: stored {name} row {k} = {va!r} "
                            f"!= recomputed {vb!r}",
                            file=sys.stderr,
                        )
                        ledger_ok = False
                        break
                else:
                    continue
                break
        recomputed[frame] = traj

    audits = estimates.KNOWN_AUDITS if args.audits.strip() == "all" else tuple(
        a.strip() for a in args.audits.split(",") if a.strip()
    )
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
    adv = {"central": "central-2", "upwind": "first-order-upwind"}.get(args.advection, args.advection)
    table = mms.mms_study(frame=args.frame, advection=adv, levels=levels, t_end=args.t_end)
    print(table.render_text())
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        out = os.path.join(args.out_dir, f"mms_{args.frame}_{adv}.json")
        with open(out, "w") as fh:
            json.dump(
                {
                    "frame": table.frame,
                    "advection": table.advection,
                    "levels": table.levels,
                    "errors": table.errors,
                    "orders": table.orders,
                    "slope": table.slope,
                    "threshold": table.threshold,
                    "passed": table.passed,
                },
                fh, indent=1, sort_keys=True,
            )
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
    if args.frame == EULERIAN:
        out = lagrange.euler_to_lagrange(state)
    else:
        out = lagrange.lagrange_to_euler(state)
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
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "check":
            return _cmd_check(args)
        if args.verb == "mms":
            return _cmd_mms(args)
        if args.verb == "report":
            return _cmd_report(args)
        if args.verb == "transform":
            return _cmd_transform(args)
        return EXIT_USAGE
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


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
