"""Run configuration: INI parsing, validation and the initial-data library.

Config files carry four sections::

    [params]   n_components, pressure_coeff, gamma, viscosity, friction, t_final
    [scheme]   integrator, advection, cfl, density_floor, n_cells, t_end, frame
    [initial]  rho = <descriptor>, u1 ... uN = <descriptor>
    [output]   out_dir, snapshot_every, audits

:data:`KEYS` gives each ``[params]``, ``[scheme]`` and ``[output]`` key its
parser and the field it sets.  Every ``[params]`` key is required; an absent
other key keeps its field's default (``t_end`` that of ``t_final``), and
``run``'s flags set keys before parsing.  Matrices are JSON row lists.
Initial-data descriptors look like
``gaussian:base=1.0,amp=0.4,center=0.5,width=0.1`` or ``sine:k=1,amp=0.1``;
velocity descriptors may sum several sine terms with ``+``.  Unknown sections
or keys are rejected.  Serialization round-trips exactly (floats via repr).
"""

from __future__ import annotations

import configparser
import functools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import FileFormatError, ParseError, ValidationError
from .estimates import KNOWN_AUDITS
from .field import EULERIAN, LAGRANGIAN, Grid1D, State, pchip
from .io import PARAMS, read_table
from .model import MixtureParams, validate_params
from .timestepping import (
    CENTRAL, END_SLACK, INTEGRATORS, RK2, RK4, SEMI_IMPLICIT, UPWIND, SchemeConfig,
)

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
    list of known names (the INI ``audits`` key and ``check --audits``),
    never none."""
    if text.strip() == "all":
        return KNOWN_AUDITS
    names = tuple(a.strip() for a in text.split(",") if a.strip())
    if not names:
        raise ParseError("no audits requested")
    for name in names:
        if name not in KNOWN_AUDITS:
            raise ValidationError(f"unknown audit {name!r}; known: {KNOWN_AUDITS}")
    return names


# ---------------------------------------------------------------------------
# initial data descriptors


@dataclass(frozen=True)
class Descriptor:
    """A parsed initial-data descriptor: a density or velocity kind, or
    ``table``, and its arguments in order (``sine`` has ``modes``, its
    ``(k, amp)`` pairs)."""

    kind: str
    args: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class InitialData:
    rho: Descriptor
    u: tuple[Descriptor, ...]
    base_dir: str = "."


def _parse_kv(body: str, context: str) -> dict[str, str]:
    out = {}
    body = body.strip()
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ParseError(f"{context}: expected key=value, got {item!r}")
        k, v = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise ParseError(f"{context}: duplicate argument {k!r}")
        out[k] = v
    return out


def _no_more(kv: dict[str, str], context: str, kind: str):
    """Reject what is left in ``kv`` once the arguments of ``kind`` are taken."""
    if kv:
        raise ParseError(f"{context}: unknown argument {next(iter(kv))!r} for {kind!r}")


def _finite(kv: dict[str, str], name: str, context: str) -> float:
    """The number ``kv[name]``, removed from ``kv``; a non-finite one is rejected."""
    value = float(kv.pop(name))
    if not math.isfinite(value):
        raise ParseError(f"{context}: {name} must be finite, got {value}")
    return value


#: each analytic density kind: its float arguments, in order, and its profile on the nodes x
_RHO_KINDS = {
    "constant": (("value",), lambda x, value: np.full_like(x, value)),
    "affine": (("base", "slope"), lambda x, base, slope: base + slope * x),
    "gaussian": (("base", "amp", "center", "width"), lambda x, base, amp, center, width:
                 base + amp * np.exp(-(((x - center) / width) ** 2))),
}
#: the profile on the nodes x of every kind but table, given its arguments
_PROFILES = {**{kind: profile for kind, (_, profile) in _RHO_KINDS.items()},
             "zero": np.zeros_like,
             "sine": lambda x, modes: sum(amp * np.sin(k * math.pi * x) for k, amp in modes)}


def parse_rho_spec(text: str, context: str = "rho") -> Descriptor:
    kind, _, body = text.partition(":")
    kind = kind.strip()
    kv = _parse_kv(body, context)
    try:
        if kind in _RHO_KINDS:
            args = tuple((name, _finite(kv, name, context)) for name in _RHO_KINDS[kind][0])
        elif kind == "table":
            args = (("file", kv.pop("file")), ("column", kv.pop("column", "rho")))
        else:
            raise ParseError(f"{context}: unknown density descriptor {kind!r}")
    except KeyError as exc:
        raise ParseError(f"{context}: missing argument {exc} for {kind!r}") from None
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from None
    _no_more(kv, context, kind)
    if kind == "gaussian" and not dict(args)["width"] > 0:
        raise ParseError(f"{context}: gaussian width must be positive, got {dict(args)['width']}")
    return Descriptor(kind, args)


def parse_velocity_spec(text: str, context: str = "u") -> Descriptor:
    text = text.strip()
    if text == "zero":
        return Descriptor("zero", ())
    kind, _, body = text.partition(":")
    if kind.strip() == "table":
        kv = _parse_kv(body, context)
        try:
            spec = Descriptor("table", (("file", kv.pop("file")), ("column", kv.pop("column"))))
        except KeyError as exc:
            raise ParseError(f"{context}: missing argument {exc} for table") from None
        _no_more(kv, context, "table")
        return spec
    modes = []
    for term in text.split("+"):
        term = term.strip()
        kind, _, body = term.partition(":")
        if kind.strip() != "sine":
            raise ParseError(f"{context}: unknown velocity descriptor {kind.strip()!r}")
        kv = _parse_kv(body, context)
        try:
            modes.append((int(kv.pop("k")), _finite(kv, "amp", context)))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{context}: bad sine mode ({exc})") from None
        _no_more(kv, context, "sine")
    return Descriptor("sine", (("modes", tuple(modes)),))


def _sample_table(path: str, column: str, x: np.ndarray, read) -> np.ndarray:
    """``column`` of the snapshot-format CSV ``read(path)`` (2+ rows, finite values) on ``x``."""
    header, data = read(path)
    if header[0] != "x_or_y" or column not in header:
        raise FileFormatError(f"table {path} lacks column {column!r} (header: {header})")
    xs, vals = data[:, 0], data[:, header.index(column)]
    if len(xs) < 2 or not (np.isfinite(xs).all() and np.isfinite(vals).all()):
        raise FileFormatError(f"table {path} needs 2 or more rows of finite x_or_y and {column}")
    if xs.size == x.size and np.allclose(xs, x, atol=1e-14):
        return vals.copy()
    if np.any(np.diff(xs) <= 0):
        raise FileFormatError(f"table {path} abscissae must strictly increase")
    out = pchip(xs, vals, x)
    if not np.isfinite(out).all():  # a secant that overflows
        raise FileFormatError(f"table {path} column {column!r} interpolates to non-finite values")
    return out


def _profile(spec: Descriptor, x: np.ndarray, base_dir: str, read) -> np.ndarray:
    """``spec`` sampled on the nodes ``x``; a table's file is read from ``base_dir``."""
    kv = dict(spec.args)
    if spec.kind == "table":
        return _sample_table(os.path.join(base_dir, kv["file"]), kv["column"], x, read)
    return _PROFILES[spec.kind](x, **kv)


def make_initial(data: InitialData, grid: Grid1D) -> State:
    """Sample an initial-data descriptor onto a grid as an Eulerian state.

    Density must be strictly positive; boundary velocities are zeroed exactly.
    """
    x = grid.nodes()
    read = functools.cache(read_table)  # a table file named by several descriptors is read once
    rho = _profile(data.rho, x, data.base_dir, read)
    if rho.min() <= 0:
        raise ValidationError(f"initial density must be positive, min = {rho.min()}")
    U = np.array([_profile(spec, x, data.base_dir, read) for spec in data.u])
    U[:, 0] = 0.0
    U[:, -1] = 0.0
    return State(time=0.0, frame=EULERIAN, grid=grid, rho=rho, U=U)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    params: MixtureParams
    scheme: SchemeConfig
    initial: InitialData
    t_end: float
    n_cells: int = 256
    frame: str = EULERIAN
    snapshot_every: int = 20
    audit_set: tuple[str, ...] = KNOWN_AUDITS
    out_dir: str = "out"

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ValidationError(f"frame must be one of {FRAMES}, got {self.frame!r}")
        Grid1D(domain_length=1.0, n_cells=self.n_cells)  # the grid of the run checks n_cells
        if not END_SLACK < self.t_end <= self.params.T_final:  # then run_loop takes a step
            raise ValidationError(f"t_end must lie in ({END_SLACK}, T_final = "
                                  f"{self.params.T_final}], got {self.t_end}")
        if self.snapshot_every < 1:
            raise ValidationError("snapshot_every must be >= 1")


def _matrix(text: str) -> np.ndarray:
    try:
        return np.array(json.loads(text), dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"expected JSON row lists ({exc})") from None


_PARSERS = {"an integer": int, "a number": float, "a matrix of numbers": _matrix}
#: every [params], [scheme] and [output] key: the parser of its text and the
#: MixtureParams (:data:`mixflow.io.PARAMS`), SchemeConfig or RunConfig field it sets
KEYS = {
    "params": {key: (_PARSERS[kind], name) for key, (name, kind) in PARAMS.items()},
    "scheme": {"integrator": (integrator, "time_integrator"),
               "advection": (advection, "advection"), "cfl": (float, "cfl"),
               "density_floor": (float, "artificial_floor"), "n_cells": (int, "n_cells"),
               "t_end": (float, "t_end"), "frame": (str, "frame")},
    "output": {"out_dir": (str, "out_dir"), "snapshot_every": (int, "snapshot_every"),
               "audits": (audit_names, "audit_set")},
}


def _fields(cp: configparser.ConfigParser, section: str) -> dict[str, object]:
    """The fields that the keys present in ``section`` set, in table order;
    every [params] key must be present."""
    present = cp[section] if section in cp else {}
    out = {}
    for key, (parse, field) in KEYS[section].items():
        if key in present:
            try:
                out[field] = parse(present[key])
            except ValueError as exc:
                raise ParseError(f"[{section}] {key}: {exc}") from None
        elif section == "params":
            raise ParseError(f"missing key {key!r} in [params]")
    return out


def parse_config(text: str, base_dir: str = ".", overrides=(),
                 source: str = "<string>") -> RunConfig:
    """Parse and fully validate an INI config; unknown keys are rejected.
    Each ``(section, key, value)`` of ``overrides`` sets that key first;
    a syntax error names ``source`` and its line."""
    # a default-section name no one-line INI header can spell, so that
    # [DEFAULT] is an ordinary section and is rejected as unknown
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:  # its message spans up to three lines
        raise ParseError(f"config parse error: {' '.join(str(exc).split())}") from None
    for section, key, value in overrides:
        cp.read_dict({section: {key: value}})

    for section in cp.sections():
        if section not in (*KEYS, "initial"):
            raise ParseError(f"unknown section [{section}]")
        if section != "initial":
            for key in cp[section]:
                if key not in KEYS[section]:
                    raise ParseError(f"unknown key {key!r} in [{section}]")
    if "params" not in cp or "initial" not in cp:
        raise ParseError("config needs [params] and [initial] sections")

    params = validate_params(MixtureParams(**_fields(cp, "params")))
    kw = {"t_end": params.T_final, **_fields(cp, "scheme")}
    scheme = SchemeConfig(**{f.name: kw.pop(f.name) for f in fields(SchemeConfig) if f.name in kw})

    ini = cp["initial"]
    if "rho" not in ini:
        raise ParseError("[initial] must define rho")
    rho_spec = parse_rho_spec(ini["rho"], "[initial] rho")
    u_keys = [f"u{i}" for i in range(1, params.N + 1)]
    u_specs = []
    for key in u_keys:
        if key not in ini:
            raise ParseError(f"[initial] must define {key} (N = {params.N})")
        u_specs.append(parse_velocity_spec(ini[key], f"[initial] {key}"))
    for key in ini:
        if key not in ("rho", *u_keys):
            raise ParseError(f"unknown key {key!r} in [initial]")
    initial = InitialData(rho=rho_spec, u=tuple(u_specs), base_dir=base_dir)
    return RunConfig(params, scheme, initial, **kw, **_fields(cp, "output"))


def parse_config_file(path: str, overrides=()) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, os.path.dirname(os.path.abspath(path)), overrides, path)
