"""On-disk layout of a run and minimal SVG plotting.

A trajectory directory contains::

    manifest.json   frame, grid, times, parameter echo + hash, file index
    snap_<k>.csv    one snapshot per recorded time, header x_or_y,rho,u1,...,uN
    diag.csv        the ledger: one column per estimates.FIELDS name, one row
                    per record; a time field that does not apply is empty
                    throughout, every other column complete
    report.json     EstimateReport (written by `run` and `check`)

All numeric formatting is repr-based (locale independent, round-trips float64
exactly), so identical runs produce bit-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import asdict, fields

import numpy as np

from .errors import FileFormatError, MixflowError
from .estimates import FIELDS, STATE_FIELDS
from .field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory
from .model import MixtureParams, validate_params
from .timestepping import SchemeConfig

FORMAT_NAME = "mixflow-trajectory"
FORMAT_VERSION = 1


#: each [params] key of a config file and of a manifest: the MixtureParams
#: field it sets and the JSON kind (a key of ``_KINDS``) a manifest gives it
PARAMS = {
    "n_components": ("N", "an integer"),
    "pressure_coeff": ("K", "a number"),
    "gamma": ("gamma", "a number"),
    "viscosity": ("M", "a matrix of numbers"),
    "friction": ("A", "a matrix of numbers"),
    "t_final": ("T_final", "a number"),
}


def params_to_dict(p: MixtureParams) -> dict:
    return {key: np.asarray(getattr(p, name)).tolist() for key, (name, _) in PARAMS.items()}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# JSON value kinds a manifest field can be required to have
_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": _is_number,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a matrix of numbers": lambda v: (
        isinstance(v, list) and all(isinstance(r, list) and all(map(_is_number, r)) for r in v)
        and len({len(r) for r in v}) <= 1
    ),
}


def _field(d: dict, key: str, kind: str):
    """``d[key]`` if it is ``kind`` (a key of ``_KINDS``), else an error naming ``key``."""
    value = d[key]
    if not _KINDS[kind](value):
        raise FileFormatError(f"field {key!r} must be {kind}, got {json.dumps(value)[:60]}")
    return value


def params_from_dict(d: dict) -> MixtureParams:
    return MixtureParams(**{name: _field(d, key, kind) for key, (name, kind) in PARAMS.items()})


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


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """The header cells and the (rows, columns) numbers of a CSV table; an
    unreadable file, a cell that is not a number, a ragged row, no data rows
    or a column count other than the header's raises :class:`FileFormatError`."""
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows: checked below
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # a cell that is not a number, a ragged row
        raise FileFormatError(f"{path}: {exc}") from None
    if data.shape[0] == 0:
        raise FileFormatError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise FileFormatError(
            f"{path}: {data.shape[1]} columns for the {len(header)} of header {','.join(header)}")
    return header, data


def read_snapshot(path: str, time: float, frame: str, expect=None) -> State:
    """Read one snapshot; every format fault raises :class:`FileFormatError`:
    a header other than ``x_or_y,rho,u1,...``, a malformed row or value, a
    grid and velocity count other than ``expect`` (a manifest's ``(grid,
    N)``, when given) and an ``x_or_y`` column off the uniform grid."""
    header, data = read_table(path)
    if header != ["x_or_y", "rho", *(f"u{i + 1}" for i in range(data.shape[1] - 2))]:
        raise FileFormatError(f"{path}: expected header x_or_y,rho,u1,..., got {header}")
    if data.shape[1] < 3:  # the header is x_or_y,rho and nothing else
        raise FileFormatError(f"{path}: 2 columns for the 2 of header x_or_y,rho; expected "
                              "x_or_y, rho and one column per velocity")
    try:
        grid = Grid1D(domain_length=float(data[-1, 0]), n_cells=data.shape[0] - 1)
        # C-contiguous copies: reductions over strided columns can round
        # differently from the same reductions in `run`
        state = State(time=time, frame=frame, grid=grid, rho=np.ascontiguousarray(data[:, 1]),
                      U=np.ascontiguousarray(data[:, 2:].T))
    except MixflowError as exc:  # too few nodes, non-finite or non-positive values
        raise FileFormatError(f"{path}: {exc}") from None
    if expect is not None and (grid, state.n_components) != expect:
        raise FileFormatError(
            f"{path}: {grid.n_nodes} nodes on (0, {grid.domain_length}) and "
            f"{state.n_components} velocities, the manifest gives {expect[0].n_nodes} nodes on "
            f"(0, {expect[0].domain_length}) and {expect[1]}"
        )
    if not np.abs(data[:, 0] - grid.nodes()).max() <= 1e-9 * grid.domain_length:
        raise FileFormatError(
            f"{path}: x_or_y is not the uniform grid on (0, {grid.domain_length})")
    return state


def write_diagnostics(path: str, ledger: dict[str, np.ndarray]):
    rows = len(ledger["time"])
    cols = [map(repr, ledger[f].tolist()) if f in ledger else [""] * rows for f in FIELDS]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(FIELDS), *map(",".join, zip(*cols))]) + "\n")


def _cell(path: str, k: int, name: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise FileFormatError(f"{path}: line {k}: {exc if cell else f'{name} is empty'}") from None


def read_diagnostics(path: str) -> dict[str, np.ndarray]:
    """The ledger stored in ``path``, empty for a file without rows.  A time
    field whose column is empty throughout is absent; any other empty cell,
    a cell that is not a number or a row of the wrong length raises
    :class:`FileFormatError` naming its line."""
    try:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc.strerror}") from None
    header = lines[0].strip().split(",") if lines else []
    if header != list(FIELDS):
        raise FileFormatError(f"{path}: unexpected diagnostics columns {header}")
    rows = [line.strip().split(",") for line in lines[1:]]
    for k, cells in enumerate(rows, start=2):
        if len(cells) != len(header):
            raise FileFormatError(f"{path}: line {k} has {len(cells)} cells, expected {len(header)}")
    if not rows:
        return {}
    names = [f for i, f in enumerate(FIELDS) if f in STATE_FIELDS or any(r[i] for r in rows)]
    values = [[_cell(path, k, f, c) for f, c in zip(FIELDS, cells) if f in names]
              for k, cells in enumerate(rows, start=2)]
    return dict(zip(names, np.array(values).T.copy()))


def save_trajectory(out_dir: str, traj: Trajectory, params: MixtureParams, scheme) -> str:
    os.makedirs(out_dir, exist_ok=True)
    snaps = [f"snap_{k:05d}.csv" for k in range(len(traj))]
    for k, name in enumerate(snaps):
        write_snapshot(os.path.join(out_dir, name), traj.state(k))
    if traj.diagnostics:
        write_diagnostics(os.path.join(out_dir, "diag.csv"), traj.diagnostics)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "frame": traj.frame,
        "n_cells": traj.grid.n_cells,
        "domain_length": traj.grid.domain_length,
        "times": traj.times.tolist(),
        "snapshots": snaps,
        "params": params_to_dict(params),
        "params_hash": params_hash(params),
        "scheme": asdict(scheme),
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return out_dir


def load_trajectory(
    out_dir: str, final_only: bool = False
) -> tuple[Trajectory, MixtureParams, dict]:
    """Read a trajectory directory; with ``final_only`` only its last snapshot.

    Every format fault raises :class:`FileFormatError` naming the file: a
    missing or unreadable file, a manifest field that is missing or of the
    wrong JSON type, a version other than this one, a scheme that
    :class:`~mixflow.timestepping.SchemeConfig` rejects or that lacks a
    key, parameters that fail :func:`~mixflow.model.validate_params` or do
    not match the stored ``params_hash``, an unknown frame, times that are
    not finite, non-negative and strictly increasing, a snapshot index that
    is not a list of file names, and any fault :func:`read_snapshot` finds,
    a grid or velocity count other than the manifest's included.
    """
    mpath = os.path.join(out_dir, "manifest.json")
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {mpath}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"bad manifest {mpath}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise FileFormatError(f"{mpath} is not a {FORMAT_NAME} manifest")

    try:
        if _field(manifest, "version", "an integer") != FORMAT_VERSION:
            raise FileFormatError(f"version {manifest['version']} is not {FORMAT_VERSION}")
        scheme = _field(manifest, "scheme", "an object")
        if sorted(scheme) != (keys := sorted(f.name for f in fields(SchemeConfig))):
            raise FileFormatError(
                f"field 'scheme' must have the keys {keys}, got {json.dumps(sorted(scheme))[:60]}")
        for key in ("cfl", "artificial_floor"):
            _field(scheme, key, "a number")
        SchemeConfig(**scheme)  # its own checks of the values
        params = validate_params(params_from_dict(_field(manifest, "params", "an object")))
        grid = Grid1D(domain_length=_field(manifest, "domain_length", "a number"),
                      n_cells=_field(manifest, "n_cells", "an integer"))
        frame, snaps = manifest["frame"], manifest["snapshots"]
        times = _field(manifest, "times", "a list of numbers")
        stored_hash = manifest["params_hash"]
        stamps = np.array(times, dtype=float)
    except KeyError as exc:
        raise FileFormatError(f"{mpath}: missing field {exc}") from None
    except (MixflowError, OverflowError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{mpath}: {exc}") from None
    if stored_hash != params_hash(params):
        raise FileFormatError(f"{mpath}: params_hash does not match the stored parameters")
    if frame not in (EULERIAN, LAGRANGIAN):
        raise FileFormatError(f"{mpath}: unknown frame {frame!r}")
    if (stamps.ndim != 1 or not np.isfinite(stamps).all() or (stamps[:1] < 0).any()
            or (np.diff(stamps) <= 0).any()):
        raise FileFormatError(
            f"{mpath}: times must be finite, non-negative and strictly increasing"
        )
    if not isinstance(snaps, list) or not all(isinstance(name, str) for name in snaps):
        raise FileFormatError(f"{mpath}: snapshots must be a list of file names")
    if not snaps or len(times) != len(snaps):
        raise FileFormatError(f"{mpath}: {len(times)} times for {len(snaps)} snapshots")
    pairs = list(zip(times, snaps))
    if final_only:
        pairs = pairs[-1:]
    traj = Trajectory.stack([read_snapshot(os.path.join(out_dir, name), t, frame, (grid, params.N))
                             for t, name in pairs])
    dpath = os.path.join(out_dir, "diag.csv")
    if os.path.exists(dpath):
        traj.diagnostics = read_diagnostics(dpath)
    return traj, params, manifest


def write_json(path: str, obj) -> None:
    """``obj`` as JSON with sorted keys and a one-space indent, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_report(path: str, report) -> None:
    write_json(path, report.to_dict())


# ---------------------------------------------------------------------------
# SVG emission (no plotting dependency; plain polylines)


def _svg_polyline(xs, ys, x0, y0, w, h, xmin, xmax, ymin, ymax, color):
    if xmax <= xmin:
        xmax = xmin + 1.0
    pts = []
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        px = x0 + (x - xmin) / (xmax - xmin) * w
        py = y0 + h - (y - ymin) / (ymax - ymin) * h
        pts.append(f"{px:.2f},{py:.2f}")
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
        f'points="{" ".join(pts)}"/>'
    )


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def plot_series_svg(path: str, x: np.ndarray, series: dict[str, np.ndarray], title: str):
    """One SVG panel with labelled polylines over a shared abscissa."""
    width, height, margin = 640, 360, 50
    w, h = width - 2 * margin, height - 2 * margin
    ally = np.concatenate([np.asarray(v, dtype=float) for v in series.values()] or [[0.0]])
    ally = ally[np.isfinite(ally)]
    ymin, ymax = (float(ally.min()), float(ally.max())) if ally.size else (0.0, 0.0)
    if ymin == ymax:  # a flat panel: +-0.5, or one ulp where 0.5 rounds away
        pad = max(0.5, math.ulp(ymin))
        ymin, ymax = ymin - pad, ymax + pad
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


#: the ledger's panels: file, title and {label: field}
_PANELS = (
    ("plot_energy.svg", "energy and dissipation rates",
     {"energy": "energy", "visc": "dissipation_visc", "fric": "dissipation_fric"}),
    ("plot_density.svg", "density bounds and w norm",
     {"rho_min": "rho_min", "rho_max": "rho_max", "w_norm": "w_norm"}),
)


def render_report_plots(out_dir: str, traj: Trajectory):
    """Ledger time series and final profiles as standalone SVG files."""
    led = traj.diagnostics
    written = []
    for name, title, series in _PANELS if led else ():
        written.append(os.path.join(out_dir, name))
        plot_series_svg(written[-1], led["time"], {k: led[f] for k, f in series.items()}, title)
    final = traj.final
    x = final.grid.nodes()
    profiles = {"rho": np.asarray(final.rho)}
    for i in range(final.U.shape[0]):
        profiles[f"u{i+1}"] = np.asarray(final.U[i])
    p3 = os.path.join(out_dir, "plot_final_profiles.svg")
    plot_series_svg(p3, x, profiles, f"final profiles, t = {final.time:.4g} ({traj.frame})")
    written.append(p3)
    return written
