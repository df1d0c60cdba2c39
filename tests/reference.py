"""Single-fluid reference solver used as a reduction oracle.

When every component starts with the same velocity and the viscosity matrix
is a multiple of the identity, the friction terms vanish identically and all
momentum equations coincide, so the mixture collapses to classical
single-component flow:

    d rho/dt + d(rho u)/dx = 0
    rho (du/dt + u du/dx) + K d(rho^gamma)/dx = mu u''

This runs the very same discrete operators with one component (the N >= 2
validation is deliberately bypassed; a one-component parameter set is legal
for the kernels even though the mixture model rejects it), so a matching
mixture run must agree with it to round-off accumulation.
"""

from __future__ import annotations

import numpy as np

from mixflow.errors import ValidationError
from mixflow.field import EULERIAN, Grid1D, State, Trajectory
from mixflow.model import MixtureParams, derive_matrices
from mixflow.runner import integrate
from mixflow.timestepping import SchemeConfig


def single_fluid_params(K: float, gamma: float, mu: float, T_final: float) -> MixtureParams:
    if not mu > 0:
        raise ValidationError(f"viscosity mu must be > 0, got {mu}")
    if not (K > 0 and gamma > 1 and T_final > 0):
        raise ValidationError("K > 0, gamma > 1 and T_final > 0 required")
    # no validate_params here: N = 1 is the whole point of the oracle
    return MixtureParams(N=1, K=K, gamma=gamma, M=[[mu]], A=[[0.0]], T_final=T_final)


def single_fluid_reference(
    rho0: np.ndarray,
    u0: np.ndarray,
    K: float,
    gamma: float,
    mu: float,
    scheme: SchemeConfig,
    grid: Grid1D,
    t_end: float,
    T_final: float | None = None,
    snapshot_every: int = 20,
) -> Trajectory:
    params = single_fluid_params(K, gamma, mu, T_final or max(t_end, 1.0))
    derived = derive_matrices(params)
    initial = State(
        time=0.0, frame=EULERIAN, grid=grid, rho=np.asarray(rho0, dtype=float),
        U=np.asarray(u0, dtype=float).reshape(1, -1),
    )
    return integrate(initial, params, derived, scheme, t_end, snapshot_every=snapshot_every)
