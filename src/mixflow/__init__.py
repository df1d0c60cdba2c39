"""mixflow: 1D viscous compressible multi-velocity mixture flows.

Dual Eulerian / mass-coordinate solvers for a model where N components share
one density but carry their own velocities, plus diagnostics that audit the
discrete counterparts of the model's a priori bounds (energy budget, density
bounds, log-density balance, derivative norms) along every run.
"""

from . import config, errors, estimates, euler, field, io, lagrange, mms, model, runner
from .config import InitialData, RunConfig, make_initial, parse_config
from .estimates import EstimateReport
from .field import EULERIAN, LAGRANGIAN, Grid1D, State, Trajectory
from .model import DerivedMatrices, MixtureParams, derive_matrices, make_params, validate_params
from .timestepping import CENTRAL, UPWIND, SchemeConfig

__version__ = "0.1.0"

__all__ = [
    "CENTRAL",
    "DerivedMatrices",
    "EstimateReport",
    "EULERIAN",
    "Grid1D",
    "InitialData",
    "LAGRANGIAN",
    "MixtureParams",
    "RunConfig",
    "SchemeConfig",
    "State",
    "Trajectory",
    "config",
    "derive_matrices",
    "errors",
    "estimates",
    "euler",
    "field",
    "io",
    "lagrange",
    "make_initial",
    "make_params",
    "mms",
    "model",
    "parse_config",
    "runner",
    "validate_params",
]
