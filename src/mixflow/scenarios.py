"""The shipped scenario corpus.

Six named configurations exercise the regimes the audits care about: a rest
state, an equal-velocity run that must collapse to single-fluid flow, a
two-component shear, a pressure-driven gaussian density bump, a near-vacuum
stress test (initial density dipping to 0.05; exploratory, gentle amplitudes
so positivity is stressed but not violated) and smooth random fields from a
frozen table.  The INI files live in ``mixflow/data`` and are ordinary run
configs; load them by name here or point the CLI at the files directly.
"""

from __future__ import annotations

from importlib import resources

from .config import RunConfig, parse_config
from .errors import ValidationError

CORPUS = (
    "rest",
    "equal_velocity",
    "shear",
    "gaussian_bump",
    "near_vacuum",
    "random_smooth",
)


def scenario_config(name: str) -> RunConfig:
    if name not in CORPUS:
        raise ValidationError(f"unknown scenario {name!r}; corpus: {CORPUS}")
    data = resources.files("mixflow.data")
    text = data.joinpath(f"{name}.ini").read_text()
    with resources.as_file(data) as base:
        return parse_config(text, base_dir=str(base))
