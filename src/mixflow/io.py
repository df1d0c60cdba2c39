"""On-disk layout of a run and minimal SVG plotting.

A trajectory directory contains::

    manifest.json   frame, grid, times, parameter echo + hash, file index
                    with the shape and sha256 of each file
    states.npy      the records, <f8 (R, 1 + N, n): rho, then u1..uN (NEP 1)
    snap_<R-1>.csv  the final record, header x_or_y,rho,u1,...,uN
    diag.csv        the ledger: one column per estimates.FIELDS name, one row
                    per record; a time field that does not apply is empty
                    throughout, every other column complete
    report.json     EstimateReport (written by `run` and `check`)

Text numbers are repr-based (locale independent, exact for float64) and
states.npy holds the raw float64, so identical runs give bit-identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import operator
import os
import warnings
from dataclasses import asdict, fields
from io import BytesIO
from itertools import chain, compress, cycle

import numpy as np

from .errors import FileFormatError, MixflowError
from .estimates import FIELDS, STATE_FIELDS
from .field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory
from .model import MixtureParams, validate_params
from .timestepping import SchemeConfig

FORMAT_NAME = "mixflow-trajectory"
FORMAT_VERSION = 2


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
    header = "x_or_y,rho," + ",".join(f"u{i + 1}" for i in range(len(state.U)))
    rows = np.vstack([state.grid.nodes(), state.rho, state.U]).T.tolist()
    lines = [header, *(",".join(map(repr, row)) for row in rows)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str, header=None, optional=()) -> tuple[list[str], np.ndarray]:
    """The header cells and the (rows, columns) numbers of the CSV file ``path``,
    whose header must be ``header`` when one is given; a column named in
    ``optional`` that is empty throughout is dropped, header cell and all.

    Lines end at ``\\n`` (or ``\\r\\n``) and nowhere else, text from a ``#`` on
    is a comment and a blank line is skipped.  An unreadable file, another
    header, a line with a cell count other than the header's or a cell
    :func:`_cell` refuses raises :class:`FileFormatError` naming its line."""
    text = _read(path).decode(errors="replace").replace("\r\n", "\n")  # stray byte: a bad cell
    head, _, body = text.partition("\n")
    names, lines = head.strip().split(","), body.removesuffix("\n").split("\n")
    split = operator.methodcaller("split", ",")
    if header is not None and names != list(header):
        raise FileFormatError(f"{path}: unexpected columns {names}")
    plain = body.isascii() and "_" not in body  # so float() reads each cell as _cell does
    if plain and {line.count(",") for line in lines} == {len(names) - 1}:
        keep = [bool(cell) or name not in optional for name, cell in zip(names, split(lines[0]))]

        def masked(mask):  # row by row, the cells of the columns where ``mask`` holds
            return compress(chain.from_iterable(map(split, lines)), cycle(mask))
        with contextlib.suppress(ValueError):  # float() refuses a cell: named below
            if all(keep) or not any(masked(map(operator.not_, keep))):
                data = np.fromiter(map(float, masked(keep)), float, len(lines) * sum(keep))
                return list(compress(names, keep)), data.reshape(len(lines), -1)
    rows = [(k, row.split(",")) for k, line in enumerate(lines, start=2)
            if (row := line.partition("#")[0]).strip()]
    for k, row in rows:
        if len(row) != len(names):
            raise FileFormatError(f"{path}: line {k} has {len(row)} cells, expected {len(names)}")
    keep = [name not in optional or any(row[i] for _, row in rows) for i, name in enumerate(names)]
    data = [[_cell(path, k, *cell) for cell in compress(zip(names, row), keep)] for k, row in rows]
    return list(compress(names, keep)), np.array(data, dtype=float).reshape(len(rows), sum(keep))


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """:func:`read_csv` of a file with one or more data rows."""
    header, data = read_csv(path)
    if not len(data):
        raise FileFormatError(f"{path}: no data rows")
    return header, data


def read_snapshot(path: str, time: float, frame: str) -> State:
    """Read one snapshot; every format fault raises :class:`FileFormatError`:
    a header other than ``x_or_y,rho,u1,...``, a malformed row or value and
    an ``x_or_y`` column off the uniform grid."""
    header, data = read_table(path)
    if header != ["x_or_y", "rho", *(f"u{i + 1}" for i in range(data.shape[1] - 2))]:
        raise FileFormatError(f"{path}: expected header x_or_y,rho,u1,..., got {header}")
    if data.shape[1] < 3:  # the header is x_or_y,rho and nothing else
        raise FileFormatError(f"{path}: 2 columns for the 2 of header x_or_y,rho; expected "
                              "x_or_y, rho and one column per velocity")
    try:
        grid = Grid1D(domain_length=float(data[-1, 0]), n_cells=data.shape[0] - 1)
        # C-contiguous copies: reductions over strided columns can round differently
        state = State(time=time, frame=frame, grid=grid, rho=np.ascontiguousarray(data[:, 1]),
                      U=np.ascontiguousarray(data[:, 2:].T))
    except MixflowError as exc:  # too few nodes, non-finite or non-positive values
        raise FileFormatError(f"{path}: {exc}") from None
    if not np.abs(data[:, 0] - grid.nodes()).max() <= 1e-9 * grid.domain_length:
        raise FileFormatError(
            f"{path}: x_or_y is not the uniform grid on (0, {grid.domain_length})")
    return state


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc.strerror}") from None


def write_diagnostics(path: str, ledger: dict[str, np.ndarray]):
    rows = len(ledger["time"])
    cols = [map(repr, ledger[f].tolist()) if f in ledger else [""] * rows for f in FIELDS]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(FIELDS), *map(",".join, zip(*cols))]) + "\n")


def _cell(path: str, k: int, name: str, cell: str) -> float:
    """Cell ``cell`` of column ``name`` on line ``k``: the number float() reads
    in it, without digit groups or non-ASCII digits."""
    try:
        if "_" in cell or not cell.isascii():
            raise ValueError(f"could not convert string to float: {cell!r}")
        return float(cell)
    except ValueError as exc:
        raise FileFormatError(f"{path}: line {k}: {exc if cell else f'{name} is empty'}") from None


def read_diagnostics(path: str) -> dict[str, np.ndarray]:
    """The ledger stored in ``path``, empty for a file without rows; a time
    field whose column is empty throughout is absent (:func:`read_csv`)."""
    names, data = read_csv(path, FIELDS, FIELDS[len(STATE_FIELDS):])
    return dict(zip(names, data.T.copy())) if len(data) else {}


def save_trajectory(out_dir: str, traj: Trajectory, params: MixtureParams, scheme):
    os.makedirs(out_dir, exist_ok=True)
    states = np.concatenate([traj.rho[:, None], traj.U], axis=1, dtype="<f8")
    spath, final = os.path.join(out_dir, "states.npy"), f"snap_{len(traj) - 1:05d}.csv"
    np.save(spath, states)
    write_snapshot(os.path.join(out_dir, final), traj.final)
    if traj.diagnostics:
        write_diagnostics(os.path.join(out_dir, "diag.csv"), traj.diagnostics)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "frame": traj.frame,
        "n_cells": traj.grid.n_cells,
        "domain_length": traj.grid.domain_length,
        "times": traj.times.tolist(),
        "states_shape": list(states.shape),
        "states_sha256": hashlib.sha256(_read(spath)).hexdigest(),
        "snapshots": [final],
        "snapshot_sha256": hashlib.sha256(_read(os.path.join(out_dir, final))).hexdigest(),
        "params": params_to_dict(params),
        "params_hash": params_hash(params),
        "scheme": asdict(scheme),
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def load_trajectory(out_dir: str, final_only=False) -> tuple[Trajectory, MixtureParams, dict]:
    """Read a trajectory directory; with ``final_only`` only its last record.

    Every format fault raises :class:`FileFormatError` naming the file: a
    missing or unreadable file; a manifest field that is missing, of the
    wrong JSON type or refused (a version other than this one, a scheme or
    parameters their own checks reject, a stale ``params_hash``, times not
    finite, non-negative and strictly increasing, a ``states_shape`` other
    than ``[len(times), 1 + N, n_cells + 1]``); a ``states.npy`` that is not
    a whole ``<f8`` .npy file of that shape; a sha256 other than the
    manifest's; a final snapshot :func:`read_snapshot` refuses or on
    another grid or velocity count; and records :class:`Trajectory` refuses.
    """
    mpath = os.path.join(out_dir, "manifest.json")
    try:
        manifest = json.loads(_read(mpath))
    except ValueError as exc:  # not JSON, or not UTF-8
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
        stored_hash, stored_shape = manifest["params_hash"], manifest["states_shape"]
        digests = manifest["states_sha256"], manifest["snapshot_sha256"]
        stamps = np.array(_field(manifest, "times", "a list of numbers"), dtype=float)
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
        raise FileFormatError(f"{mpath}: times must be finite, non-negative and strictly increasing")
    if stored_shape != list(shape := (len(stamps), 1 + params.N, grid.n_nodes)):
        raise FileFormatError(f"{mpath}: states_shape {json.dumps(stored_shape)[:60]} is not {list(shape)}")
    if not (isinstance(snaps, list) and len(snaps) == 1 and isinstance(snaps[0], str)):
        raise FileFormatError(f"{mpath}: snapshots must be a list of one file name")
    spath, cpath = os.path.join(out_dir, "states.npy"), os.path.join(out_dir, snaps[0])
    blob = _read(spath)
    try:  # an .npz archive becomes the array of its member names, refused below
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's repair of a Python 2 header
            states = np.asarray(np.load(BytesIO(blob), allow_pickle=False))
    except MemoryError:
        raise
    except Exception:  # np.load raises errors of many types for a malformed file
        raise FileFormatError(f"{spath}: not a whole .npy file") from None
    if states.dtype.str != "<f8" or states.shape != shape:
        raise FileFormatError(f"{spath}: {states.dtype.str} {states.shape}, expected <f8 {shape}")
    for path, data, digest in zip((spath, cpath), (blob, _read(cpath)), digests):
        if hashlib.sha256(data).hexdigest() != digest:
            raise FileFormatError(f"{path}: sha256 does not match the manifest")
    del blob  # states holds the records: one copy fewer while Trajectory copies them
    final = read_snapshot(cpath, stamps[-1], frame)  # states.npy has no x column: this one does
    if (final.grid, final.n_components) != (grid, params.N):
        raise FileFormatError(
            f"{cpath}: {final.grid.n_nodes} nodes on (0, {final.grid.domain_length}) and "
            f"{final.n_components} velocities, the manifest gives {grid.n_nodes} nodes on "
            f"(0, {grid.domain_length}) and {params.N}")
    keep = slice(-1 if final_only else 0, None)
    try:  # C-contiguous copies, validated as any trajectory
        traj = Trajectory(frame, grid, stamps[keep], states[keep, 0], states[keep, 1:])
    except MixflowError as exc:
        raise FileFormatError(f"{spath}: {exc}") from None
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
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{" ".join(pts)}"/>'


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
        parts.append(f'<text x="{width-margin-4}" y="{margin+14+idx*14}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{label}</text>')
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
    written.append(os.path.join(out_dir, "plot_final_profiles.svg"))
    plot_series_svg(written[-1], final.grid.nodes(),
                    {"rho": final.rho, **{f"u{i + 1}": u for i, u in enumerate(final.U)}},
                    f"final profiles, t = {final.time:.4g} ({traj.frame})")
    return written
