"""On-disk layout of a run and minimal SVG plotting.

A trajectory directory contains::

    manifest.json   frame, grid, times, parameter echo + hash, file index
    snap_<k>.csv    one snapshot per recorded time, header x_or_y,rho,u1,...,uN
    diag.csv        one row per record, columns = DiagnosticsRecord fields
    report.json     EstimateReport (written by `run` and `check`)

All numeric formatting is repr-based (locale independent, round-trips float64
exactly), so identical runs produce bit-identical files.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os

import numpy as np

from .errors import FileFormatError
from .estimates import DiagnosticsRecord
from .field import Grid1D, State, Trajectory
from .model import MixtureParams

FORMAT_NAME = "mixflow-trajectory"
FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


def params_to_dict(p: MixtureParams) -> dict:
    return {
        "n_components": p.N,
        "pressure_coeff": p.K,
        "gamma": p.gamma,
        "viscosity": p.M.tolist(),
        "friction": p.A.tolist(),
        "t_final": p.T_final,
    }


def params_from_dict(d: dict) -> MixtureParams:
    return MixtureParams(
        N=d["n_components"],
        K=d["pressure_coeff"],
        gamma=d["gamma"],
        M=np.array(d["viscosity"]),
        A=np.array(d["friction"]),
        T_final=d["t_final"],
    )


def params_hash(p: MixtureParams) -> str:
    blob = json.dumps(params_to_dict(p), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_snapshot(path: str, state: State):
    n_comp = state.U.shape[0]
    header = "x_or_y,rho," + ",".join(f"u{i+1}" for i in range(n_comp))
    rows = np.vstack([state.grid.nodes(), state.rho, state.U]).T.tolist()
    lines = [header, *(",".join(map(repr, row)) for row in rows)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path: str, time: float, frame: str) -> State:
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[:2] != ["x_or_y", "rho"]:
        raise FileFormatError(f"{path}: expected header x_or_y,rho,u1,..., got {header}")
    x = data[:, 0]
    n_cells = x.size - 1
    grid = Grid1D(domain_length=float(x[-1]), n_cells=n_cells)
    return State(time=time, frame=frame, grid=grid, rho=data[:, 1], U=data[:, 2:].T)


def write_diagnostics(path: str, records: list[DiagnosticsRecord]):
    values = operator.attrgetter(*DiagnosticsRecord.FIELDS)
    lines = [",".join(DiagnosticsRecord.FIELDS)]
    lines += [",".join("" if v is None else _fmt(v) for v in values(r)) for r in records]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics(path: str) -> list[DiagnosticsRecord]:
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        if header != list(DiagnosticsRecord.FIELDS):
            raise FileFormatError(f"{path}: unexpected diagnostics columns {header}")
        records = []
        for line in fh:
            cells = line.strip().split(",")
            kw = {
                name: (None if cell == "" else float(cell))
                for name, cell in zip(header, cells)
            }
            records.append(DiagnosticsRecord(**kw))
    return records


def save_trajectory(out_dir: str, traj: Trajectory, params: MixtureParams, scheme=None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    snaps = []
    for k, state in enumerate(traj.states):
        name = f"snap_{k:05d}.csv"
        write_snapshot(os.path.join(out_dir, name), state)
        snaps.append(name)
    if traj.diagnostics:
        write_diagnostics(os.path.join(out_dir, "diag.csv"), traj.diagnostics)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "frame": traj.frame,
        "n_cells": traj.grid.n_cells,
        "domain_length": traj.grid.domain_length,
        "times": [s.time for s in traj.states],
        "snapshots": snaps,
        "params": params_to_dict(params),
        "params_hash": params_hash(params),
    }
    if scheme is not None:
        manifest["scheme"] = {
            "time_integrator": scheme.time_integrator,
            "advection": scheme.advection,
            "cfl": scheme.cfl,
            "artificial_floor": scheme.artificial_floor,
        }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out_dir


def load_trajectory(out_dir: str) -> tuple[Trajectory, MixtureParams, dict]:
    mpath = os.path.join(out_dir, "manifest.json")
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {mpath}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"bad manifest {mpath}: {exc}") from None
    if manifest.get("format") != FORMAT_NAME:
        raise FileFormatError(f"{mpath} is not a {FORMAT_NAME} manifest")

    params = params_from_dict(manifest["params"])
    grid = Grid1D(domain_length=manifest["domain_length"], n_cells=manifest["n_cells"])
    traj = Trajectory(manifest["frame"], grid)
    for t, name in zip(manifest["times"], manifest["snapshots"]):
        s = read_snapshot(os.path.join(out_dir, name), t, manifest["frame"])
        traj.states.append(s)
    dpath = os.path.join(out_dir, "diag.csv")
    if os.path.exists(dpath):
        traj.diagnostics = read_diagnostics(dpath)
    return traj, params, manifest


def save_report(path: str, report) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# SVG emission (no plotting dependency; plain polylines)


def _svg_polyline(xs, ys, x0, y0, w, h, xmin, xmax, ymin, ymax, color):
    if xmax <= xmin:
        xmax = xmin + 1.0
    if ymax <= ymin:
        ymax = ymin + 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = x0 + (x - xmin) / (xmax - xmin) * w
        py = y0 + h - (y - ymin) / (ymax - ymin) * h
        pts.append(f"{px:.2f},{py:.2f}")
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
        f'points="{" ".join(pts)}"/>'
    )


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def plot_series_svg(path: str, x: np.ndarray, series: dict[str, np.ndarray], title: str,
                    width: int = 640, height: int = 360):
    """One SVG panel with labelled polylines over a shared abscissa."""
    margin = 50
    w, h = width - 2 * margin, height - 2 * margin
    finite = [np.asarray(v)[np.isfinite(v)] for v in series.values()]
    ally = np.concatenate([v for v in finite if v.size]) if finite else np.array([0.0])
    ymin, ymax = float(ally.min()), float(ally.max())
    if ymin == ymax:
        ymin -= 0.5
        ymax += 0.5
    xmin, xmax = float(np.min(x)), float(np.max(x))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{w}" height="{h}" fill="none" stroke="#888"/>',
        f'<text x="{margin}" y="{height-8}" font-size="11">{xmin:.4g}</text>',
        f'<text x="{width-margin}" y="{height-8}" text-anchor="end" font-size="11">{xmax:.4g}</text>',
        f'<text x="{margin-4}" y="{height-margin}" text-anchor="end" font-size="11">{ymin:.4g}</text>',
        f'<text x="{margin-4}" y="{margin+10}" text-anchor="end" font-size="11">{ymax:.4g}</text>',
    ]
    for idx, (label, ys) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        parts.append(_svg_polyline(x, ys, margin, margin, w, h, xmin, xmax, ymin, ymax, color))
        parts.append(
            f'<text x="{width-margin-4}" y="{margin+14+idx*14}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def render_report_plots(out_dir: str, traj: Trajectory):
    """Diagnostics time series and final profiles as standalone SVG files."""
    recs = traj.diagnostics
    written = []
    if recs:
        t = np.array([r.time for r in recs])
        p1 = os.path.join(out_dir, "plot_energy.svg")
        plot_series_svg(
            p1,
            t,
            {
                "energy": np.array([r.energy for r in recs]),
                "visc": np.array([r.dissipation_visc for r in recs]),
                "fric": np.array([r.dissipation_fric for r in recs]),
            },
            "energy and dissipation rates",
        )
        written.append(p1)
        p2 = os.path.join(out_dir, "plot_density.svg")
        plot_series_svg(
            p2,
            t,
            {
                "rho_min": np.array([r.rho_min for r in recs]),
                "rho_max": np.array([r.rho_max for r in recs]),
                "w_norm": np.array([r.w_norm for r in recs]),
            },
            "density bounds and w norm",
        )
        written.append(p2)
    final = traj.final
    x = final.grid.nodes()
    profiles = {"rho": np.asarray(final.rho)}
    for i in range(final.U.shape[0]):
        profiles[f"u{i+1}"] = np.asarray(final.U[i])
    p3 = os.path.join(out_dir, "plot_final_profiles.svg")
    plot_series_svg(p3, x, profiles, f"final profiles, t = {final.time:.4g} ({traj.frame})")
    written.append(p3)
    return written
