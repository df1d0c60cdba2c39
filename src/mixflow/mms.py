"""Manufactured-solution convergence studies for both formulations.

The manufactured fields are

    rho*(x, t) = 2 + 0.5 sin(2 pi x) cos(t)
    u_i*(x, t) = sin(pi x) g_i(t),      g_i(t) = c_i cos(t)

(with x replaced by y/d on the mass-coordinate domain (0, d)).  The forcing
that makes these exact solutions is derived by hand in
``docs/verification.md`` and implemented in closed form below; the
zero-residual rest configuration doubles as a sign check on the derivation.

The orders are measured on the full fields, walls included.  With upwind
fluxes the density error is dominated by the O(h |v|) face diffusion and the
observed order sits near one; with centered fluxes everything is second
order except the conservative wall closure of the continuity update, whose
first-order wall cells carry a small enough constant that the measured
slope stays at two through these refinement levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .field import EULERIAN, Grid1D, State, l2_norm
from .model import MixtureParams, derive_matrices, make_params
from .runner import concurrently, integrate
from .timestepping import CENTRAL, END_SLACK, RK2, UPWIND, SchemeConfig

#: observed spatial order must not fall below these
ORDER_THRESHOLDS = {CENTRAL: 1.7, UPWIND: 0.8}

_DEFAULT_C = (0.14, 0.10)


def default_params(T_final: float = 2.0) -> MixtureParams:
    return make_params(
        N=2,
        K=1.0,
        gamma=1.4,
        M=[[0.10, 0.02], [0.02, 0.08]],
        A=[[0.0, 0.3], [0.3, 0.0]],
        T_final=T_final,
    )


@dataclass(frozen=True)
class ManufacturedFields:
    """Closed-form fields plus the forcing that makes them exact solutions."""

    params: MixtureParams
    frame: str = EULERIAN
    domain_length: float = 1.0
    c: tuple[float, ...] = _DEFAULT_C
    rho_base: float = 2.0
    rho_amp: float = 0.5

    def __post_init__(self):
        if len(self.c) != self.params.N:
            raise ValidationError("need one velocity amplitude per component")
        if self.frame == EULERIAN and self.domain_length != 1.0:
            raise ValidationError(
                f"the Eulerian frame lives on the unit interval, got domain_length = "
                f"{self.domain_length}"
            )
        # evaluation state; the fields are frozen, so what it holds stays valid
        object.__setattr__(self, "_c", np.array(self.c))
        object.__setattr__(self, "_cache", _ForcingCache())

    # -- exact fields --------------------------------------------------------

    def g(self, t: float) -> np.ndarray:
        return self._c * math.cos(t)

    def rho(self, x: np.ndarray, t: float) -> np.ndarray:
        s = 2.0 * math.pi / self.domain_length
        return self.rho_base + self.rho_amp * np.sin(s * x) * math.cos(t)

    def u(self, x: np.ndarray, t: float) -> np.ndarray:
        s = math.pi / self.domain_length
        return np.outer(self.g(t), np.sin(s * x))

    def state(self, grid: Grid1D, t: float = 0.0) -> State:
        if abs(grid.domain_length - self.domain_length) > 1e-12:
            raise ValidationError("grid does not match the manufactured domain")
        x = grid.nodes()
        U = self.u(x, t)
        U[:, 0] = 0.0
        U[:, -1] = 0.0
        return State(time=t, frame=self.frame, grid=grid, rho=self.rho(x, t), U=U)

    # -- forcing -------------------------------------------------------------

    def forcing(self, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Source terms ``(s_rho, s_U)`` at time ``t`` on the nodes ``x``.

        The factors that depend on ``x`` alone are kept for the last node
        array, keyed by its values (a study solves one grid at a time per
        process), and the result for the last ``(t, x)`` is returned again
        for a repeat: in RK2 the second stage of one step and the first
        stage of the next run at the same time.  The returned arrays are
        shared between such calls and therefore read-only.  Every
        precomputed product keeps the factor order of the closed form, so
        the result is bit-equal to evaluating it from scratch.
        """
        x = np.asarray(x, dtype=float)
        # hex: the signs of zero sources follow the sign of a zero t
        key = (float(t).hex(), x.shape, x.tobytes())
        cache = self._cache
        if cache.last[0] == key:
            return cache.last[1]
        if cache.grid[0] != key[1:]:
            cache.grid = (key[1:], self._spatial_factors(x))
        out = self._evaluate(t, cache.grid[1])
        for a in out:
            a.flags.writeable = False
        cache.last = (key, out)
        return out

    def _spatial_factors(self, x):
        s1, s2 = math.pi / self.domain_length, 2.0 * math.pi / self.domain_length
        sin1 = np.sin(s1 * x)
        cos1 = np.cos(s1 * x)
        sin2 = np.sin(s2 * x)
        return _Spatial(
            sin1=sin1,
            cos1=cos1,
            amp_sin2=self.rho_amp * sin2,
            neg_amp_sin2=-self.rho_amp * sin2,
            amp_s2_cos2=self.rho_amp * s2 * np.cos(s2 * x),
            s1_cos1=s1 * cos1,
            neg_pi2_sin1=-(math.pi**2) * sin1,
        )

    def _evaluate(self, t, f):
        """``(s_rho, s_U)`` at ``t`` from the spatial factors ``f``, in either frame."""
        p = self.params
        ct, st = math.cos(t), math.sin(t)
        g = self._c * ct
        gbar = np.add.reduce(g) / g.size  # the sum and division of g.mean()
        dg = -self._c * st
        rho = self.rho_base + f.amp_sin2 * ct
        drho_dt = f.neg_amp_sin2 * st
        drho_dx = f.amp_s2_cos2 * ct  # d/dy in mass coordinates, as dv_dx below
        dv_dx = f.s1_cos1 * gbar
        dpress_dx = p.gamma * rho ** (p.gamma - 1.0) * drho_dx
        mu_g = p.M @ g
        exch = p.exchange(g)
        du_dt = f.sin1 * dg[:, None]
        fric = f.sin1 * exch[:, None] / rho
        if self.frame == EULERIAN:
            v = f.sin1 * gbar
            s_rho = drho_dt + drho_dx * v + rho * dv_dx
            conv = (v * math.pi * f.cos1) * g[:, None]
            visc = f.neg_pi2_sin1 * mu_g[:, None] / rho
            return s_rho, du_dt + conv + p.K * dpress_dx / rho - visc - fric
        s1 = math.pi / self.domain_length
        s_rho = drho_dt + rho * rho * dv_dx
        # d/dy (rho du_j/dy) = g_j s1 (drho/dy cos - rho s1 sin)
        visc = mu_g[:, None] * (s1 * (drho_dx * f.cos1 - rho * s1 * f.sin1))
        return s_rho, du_dt + p.K * dpress_dx - visc - fric


class _Spatial(NamedTuple):
    """Forcing factors that depend on the nodes alone (s1 = pi/d, s2 = 2 pi/d)."""

    sin1: np.ndarray  # sin(s1 x)
    cos1: np.ndarray  # cos(s1 x)
    amp_sin2: np.ndarray  # rho_amp sin(s2 x)
    neg_amp_sin2: np.ndarray  # -rho_amp sin(s2 x)
    amp_s2_cos2: np.ndarray  # rho_amp s2 cos(s2 x)
    s1_cos1: np.ndarray  # s1 cos(s1 x)
    neg_pi2_sin1: np.ndarray  # -pi^2 sin(s1 x), physical-space viscous shape


class _ForcingCache:
    """The spatial factors of the last node array and the last evaluated ``(t, x)``."""

    def __init__(self):
        self.grid = (None, None)  # (node key, factors)
        self.last = (None, None)  # (key, result)


@dataclass
class ConvergenceTable:
    frame: str
    advection: str
    levels: list[int]
    errors: list[dict[str, float]]  # per level: rho, u1..uN, combined
    orders: list[float] = dataclass_field(default_factory=list)  # successive pairs
    slope: float = 0.0
    threshold: float = 0.0
    passed: bool = False

    def render_text(self) -> str:
        lines = [f"MMS {self.frame}, advection={self.advection}"]
        lines.append(f"{'n_cells':>8} " + " ".join(f"{k:>12}" for k in self.errors[0]))
        for n, errs in zip(self.levels, self.errors):
            lines.append(f"{n:>8} " + " ".join(f"{errs[k]:12.4e}" for k in errs))
        pairs = " ".join(f"{o:.3f}" for o in self.orders)
        lines.append(
            f"orders: [{pairs}]  slope: {self.slope:.3f}  "
            f"threshold: {self.threshold}  {'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def _run_level(fields: ManufacturedFields, grid: Grid1D, scheme: SchemeConfig, t_end: float):
    derived = derive_matrices(fields.params)
    initial = fields.state(grid, 0.0)
    final = integrate(initial, fields.params, derived, scheme, t_end,
                      snapshot_every=10**9, forcing=fields.forcing).final
    exact = fields.state(grid, final.time)
    errs = {"rho": l2_norm(final.rho - exact.rho, grid)}
    for i in range(fields.params.N):
        errs[f"u{i+1}"] = l2_norm(final.U[i] - exact.U[i], grid)
    errs["combined"] = math.sqrt(sum(e**2 for e in errs.values()))
    return errs


def ladder(frame: str, levels: tuple[int, ...], t_end: float) -> list[Grid1D]:
    """The grids of the refinement ``levels``, checked with the horizon ``t_end``."""
    if len(levels) < 2:
        raise ValidationError("need at least two refinement levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValidationError(f"refinement levels must strictly increase, got {list(levels)}")
    if not (math.isfinite(t_end) and t_end > END_SLACK):  # then run_loop takes a step
        raise ValidationError(f"t_end must be finite and above {END_SLACK}, got {t_end}")
    d = 1.0 if frame == EULERIAN else 2.0
    return [Grid1D(domain_length=d, n_cells=n) for n in levels]


def mms_study(
    frame: str = EULERIAN,
    advection: str = CENTRAL,
    levels: tuple[int, ...] = (32, 64, 128),
    t_end: float = 0.25,
) -> ConvergenceTable:
    """Run the refinement ladder and measure the observed spatial order.

    Explicit RK2 keeps dt at the viscous h^2 limit, so the temporal error is
    subdominant and the measured slope is the spatial order.  The finest
    level, most of the work, runs in this process while the coarser ones run
    one after another in one forked worker (:func:`runner.concurrently`);
    every level's grid is checked before either starts.
    """
    *coarse, finest = ladder(frame, levels, t_end)
    fields = ManufacturedFields(default_params(), frame, finest.domain_length)
    scheme = SchemeConfig(time_integrator=RK2, advection=advection)

    finest_errors, coarse_errors = concurrently([
        lambda: _run_level(fields, finest, scheme, t_end),
        lambda: [_run_level(fields, grid, scheme, t_end) for grid in coarse],
    ])
    errors = [*coarse_errors, finest_errors]
    combined = [e["combined"] for e in errors]
    orders = [
        math.log2(combined[i] / combined[i + 1]) / math.log2(levels[i + 1] / levels[i])
        for i in range(len(levels) - 1)
    ]
    logn = np.log([float(n) for n in levels])
    loge = np.log(combined)
    slope = float(-np.polyfit(logn, loge, 1)[0])
    threshold = ORDER_THRESHOLDS[advection]
    return ConvergenceTable(
        frame=frame,
        advection=advection,
        levels=list(levels),
        errors=errors,
        orders=orders,
        slope=slope,
        threshold=threshold,
        passed=slope >= threshold,
    )
