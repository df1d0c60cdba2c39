"""Run configuration: INI parsing, validation and the initial-data library.

Config files carry four sections::

    [params]   n_components, pressure_coeff, gamma, viscosity, friction, t_final
    [scheme]   integrator, advection, cfl, density_floor, n_cells, t_end, frame
    [initial]  rho = <descriptor>, u1 ... uN = <descriptor>
    [output]   out_dir, snapshot_every, audits

Matrices are JSON row lists.  Initial-data descriptors look like
``gaussian:base=1.0,amp=0.4,center=0.5,width=0.1`` or ``sine:k=1,amp=0.1``;
velocity descriptors may sum several sine terms with ``+``.  Unknown sections
or keys are rejected.  Serialization round-trips exactly (floats via repr).
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    FileFormatError,
    NonPositiveDensity,
    ParseError,
    ValidationError,
)
from .estimates import KNOWN_AUDITS
from .euler import CENTRAL, UPWIND, SchemeConfig
from .field import EULERIAN, LAGRANGIAN, Grid1D, State, pchip
from .model import MixtureParams, validate_params
from .timestepping import INTEGRATORS, RK2, RK4, SEMI_IMPLICIT

FRAMES = (EULERIAN, LAGRANGIAN, "both")

_INTEGRATOR_ALIASES = {
    "rk2": RK2,
    "rk4": RK4,
    "semi-implicit": SEMI_IMPLICIT,
    **{name.lower(): name for name in INTEGRATORS},
}
_ADVECTION_ALIASES = {
    "upwind": UPWIND,
    "central": CENTRAL,
    UPWIND: UPWIND,
    CENTRAL: CENTRAL,
}


def integrator(name: str) -> str:
    """The time integrator named by ``name`` or its alias, case-insensitively
    (the INI ``integrator`` key and ``run --scheme``)."""
    try:
        return _INTEGRATOR_ALIASES[name.lower()]
    except KeyError:
        raise ParseError(f"unknown integrator {name!r}") from None


def advection(name: str) -> str:
    """The advection scheme named by ``name`` or its alias (the INI
    ``advection`` key and ``mms --advection``)."""
    try:
        return _ADVECTION_ALIASES[name]
    except KeyError:
        raise ParseError(f"unknown advection {name!r}") from None


def audit_names(text: str) -> tuple[str, ...]:
    """The audits an ``audits`` value requests: ``all`` or a comma-separated
    list (the INI ``audits`` key and ``check --audits``), never none."""
    if text.strip() == "all":
        return KNOWN_AUDITS
    names = tuple(a.strip() for a in text.split(",") if a.strip())
    if not names:
        raise ParseError("no audits requested")
    return names


# ---------------------------------------------------------------------------
# initial data descriptors


@dataclass(frozen=True)
class RhoSpec:
    kind: str  # constant | affine | gaussian | table
    args: tuple[tuple[str, object], ...]

    def argdict(self):
        return dict(self.args)


@dataclass(frozen=True)
class VelocitySpec:
    kind: str  # zero | sine | table
    # sine: modes = ((k, amp), ...); table: file/column
    args: tuple[tuple[str, object], ...]

    def argdict(self):
        return dict(self.args)


@dataclass(frozen=True)
class InitialData:
    rho: RhoSpec
    u: tuple[VelocitySpec, ...]
    base_dir: str = "."


def _parse_kv(body: str, context: str) -> dict[str, str]:
    out = {}
    body = body.strip()
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ParseError(f"{context}: expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def parse_rho_spec(text: str, context: str = "rho") -> RhoSpec:
    kind, _, body = text.partition(":")
    kind = kind.strip()
    kv = _parse_kv(body, context)
    try:
        if kind == "constant":
            return RhoSpec("constant", (("value", float(kv.pop("value"))),))
        if kind == "affine":
            return RhoSpec("affine", (("base", float(kv.pop("base"))), ("slope", float(kv.pop("slope")))))
        if kind == "gaussian":
            return RhoSpec(
                "gaussian",
                (
                    ("base", float(kv.pop("base"))),
                    ("amp", float(kv.pop("amp"))),
                    ("center", float(kv.pop("center"))),
                    ("width", float(kv.pop("width"))),
                ),
            )
        if kind == "table":
            return RhoSpec("table", (("file", kv.pop("file")), ("column", kv.pop("column", "rho"))))
    except KeyError as exc:
        raise ParseError(f"{context}: missing argument {exc} for {kind!r}") from None
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from None
    raise ParseError(f"{context}: unknown density descriptor {kind!r}")


def parse_velocity_spec(text: str, context: str = "u") -> VelocitySpec:
    text = text.strip()
    if text == "zero":
        return VelocitySpec("zero", ())
    if text.startswith("table"):
        _, _, body = text.partition(":")
        kv = _parse_kv(body, context)
        try:
            return VelocitySpec("table", (("file", kv.pop("file")), ("column", kv.pop("column"))))
        except KeyError as exc:
            raise ParseError(f"{context}: missing argument {exc} for table") from None
    modes = []
    for term in text.split("+"):
        term = term.strip()
        kind, _, body = term.partition(":")
        if kind.strip() != "sine":
            raise ParseError(f"{context}: unknown velocity descriptor {kind.strip()!r}")
        kv = _parse_kv(body, context)
        try:
            modes.append((int(kv.pop("k")), float(kv.pop("amp"))))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{context}: bad sine mode ({exc})") from None
    return VelocitySpec("sine", (("modes", tuple(modes)),))


def _read_table_column(path: str, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read (x, column) from a snapshot-format CSV."""
    try:
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise FileFormatError(f"cannot read table {path}: {exc}") from None
    except ValueError as exc:
        raise FileFormatError(f"bad table {path}: {exc}") from None
    if header[0] != "x_or_y" or column not in header:
        raise FileFormatError(f"table {path} lacks column {column!r} (header: {header})")
    return data[:, 0], data[:, header.index(column)]


def _sample_table(path: str, column: str, x: np.ndarray) -> np.ndarray:
    xs, vals = _read_table_column(path, column)
    if xs.size == x.size and np.allclose(xs, x, atol=1e-14):
        return vals.copy()
    if np.any(np.diff(xs) <= 0):
        raise FileFormatError(f"table {path} abscissae must strictly increase")
    return pchip(xs, vals, x)


def make_initial(data: InitialData, grid: Grid1D) -> State:
    """Sample an initial-data descriptor onto a grid as an Eulerian state.

    Density must be strictly positive; boundary velocities are zeroed exactly.
    """
    x = grid.nodes()
    kv = data.rho.argdict()
    if data.rho.kind == "constant":
        rho = np.full_like(x, kv["value"])
    elif data.rho.kind == "affine":
        rho = kv["base"] + kv["slope"] * x
    elif data.rho.kind == "gaussian":
        rho = kv["base"] + kv["amp"] * np.exp(-(((x - kv["center"]) / kv["width"]) ** 2))
    elif data.rho.kind == "table":
        rho = _sample_table(os.path.join(data.base_dir, kv["file"]), kv["column"], x)
    else:
        raise ValidationError(f"unknown rho spec {data.rho.kind!r}")
    if rho.min() <= 0:
        raise NonPositiveDensity(f"initial density must be positive, min = {rho.min()}")

    U = np.zeros((len(data.u), x.size))
    for i, spec in enumerate(data.u):
        if spec.kind == "zero":
            continue
        if spec.kind == "sine":
            for k, amp in spec.argdict()["modes"]:
                U[i] += amp * np.sin(k * math.pi * x)
        elif spec.kind == "table":
            skv = spec.argdict()
            U[i] = _sample_table(os.path.join(data.base_dir, skv["file"]), skv["column"], x)
        else:
            raise ValidationError(f"unknown velocity spec {spec.kind!r}")
    U[:, 0] = 0.0
    U[:, -1] = 0.0
    return State(time=0.0, frame=EULERIAN, grid=grid, rho=rho, U=U)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    params: MixtureParams
    scheme: SchemeConfig
    n_cells: int
    t_end: float
    frame: str
    initial: InitialData
    snapshot_every: int = 20
    audit_set: tuple[str, ...] = KNOWN_AUDITS
    out_dir: str = "out"

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ValidationError(f"frame must be one of {FRAMES}, got {self.frame!r}")
        if self.n_cells < 8:
            raise ValidationError("n_cells must be >= 8")
        if not 0 < self.t_end <= self.params.T_final:
            raise ValidationError(
                f"t_end must lie in (0, T_final = {self.params.T_final}], got {self.t_end}"
            )
        if self.snapshot_every < 1:
            raise ValidationError("snapshot_every must be >= 1")
        if len(self.initial.u) != self.params.N:
            raise ValidationError(
                f"initial data lists {len(self.initial.u)} velocities for N = {self.params.N}"
            )
        for name in self.audit_set:
            if name not in KNOWN_AUDITS:
                raise ValidationError(f"unknown audit {name!r}; known: {KNOWN_AUDITS}")


_SECTION_KEYS = {
    "params": {"n_components", "pressure_coeff", "gamma", "viscosity", "friction", "t_final"},
    "scheme": {"integrator", "advection", "cfl", "density_floor", "n_cells", "t_end", "frame"},
    "output": {"out_dir", "snapshot_every", "audits"},
}


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and fully validate an INI config; unknown keys are rejected."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"config parse error: {exc}") from None

    for section in cp.sections():
        if section not in ("params", "scheme", "initial", "output"):
            raise ParseError(f"unknown section [{section}]")
        if section != "initial":
            for key in cp[section]:
                if key not in _SECTION_KEYS[section]:
                    raise ParseError(f"unknown key {key!r} in [{section}]")
    if "params" not in cp or "initial" not in cp:
        raise ParseError("config needs [params] and [initial] sections")

    p = cp["params"]

    def need(sec, key):
        if key not in sec:
            raise ParseError(f"missing key {key!r} in [{sec.name}]")
        return sec[key]

    def matrix(key):
        try:
            return np.array(json.loads(need(p, key)), dtype=float)
        except (json.JSONDecodeError, ValueError) as exc:
            raise ParseError(f"[params] {key}: expected JSON row lists ({exc})") from None

    try:
        params = MixtureParams(
            N=int(need(p, "n_components")),
            K=float(need(p, "pressure_coeff")),
            gamma=float(need(p, "gamma")),
            M=matrix("viscosity"),
            A=matrix("friction"),
            T_final=float(need(p, "t_final")),
        )
    except ValueError as exc:
        raise ParseError(f"[params]: {exc}") from None
    params = validate_params(params)

    s = cp["scheme"] if "scheme" in cp else {}

    def get(sec, key, default, cast=str):
        try:
            return cast(sec[key]) if key in sec else default
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {exc}") from None

    scheme = SchemeConfig(
        time_integrator=integrator(get(s, "integrator", RK2)),
        advection=advection(get(s, "advection", UPWIND)),
        cfl=get(s, "cfl", 0.4, float),
        artificial_floor=get(s, "density_floor", 1e-12, float),
    )
    n_cells = get(s, "n_cells", 256, int)
    t_end = get(s, "t_end", params.T_final, float)
    frame = get(s, "frame", EULERIAN)

    ini = cp["initial"]
    if "rho" not in ini:
        raise ParseError("[initial] must define rho")
    rho_spec = parse_rho_spec(ini["rho"], "[initial] rho")
    u_specs = []
    for i in range(1, params.N + 1):
        key = f"u{i}"
        if key not in ini:
            raise ParseError(f"[initial] must define {key} (N = {params.N})")
        u_specs.append(parse_velocity_spec(ini[key], f"[initial] {key}"))
    for key in ini:
        if key != "rho" and not (key.startswith("u") and key[1:].isdigit() and 1 <= int(key[1:]) <= params.N):
            raise ParseError(f"unknown key {key!r} in [initial]")
    initial = InitialData(rho=rho_spec, u=tuple(u_specs), base_dir=base_dir)

    o = cp["output"] if "output" in cp else {}
    return RunConfig(
        params=params,
        scheme=scheme,
        n_cells=n_cells,
        t_end=t_end,
        frame=frame,
        initial=initial,
        snapshot_every=get(o, "snapshot_every", 20, int),
        audit_set=audit_names(get(o, "audits", "all")),
        out_dir=get(o, "out_dir", "out"),
    )


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
