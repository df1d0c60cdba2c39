"""The implicit viscous solve of both kernels and its failure modes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded

from mixflow import timestepping
from mixflow.errors import MixflowError, NonFinite
from mixflow.euler import EulerKernel
from mixflow.field import Grid1D
from mixflow.lagrange import LagrangeKernel
from mixflow.model import derive_matrices, make_params
from mixflow.timestepping import SEMI_IMPLICIT, SchemeConfig, _dgtsv, run_loop

from conftest import bits, scenario_config

IMEX = SchemeConfig(time_integrator=SEMI_IMPLICIT)
KERNELS = (EulerKernel, LagrangeKernel)


def banded_reference(kernel, rho, B, coef):
    """The band assembly and per-component ``solve_banded`` calls the
    kernels used before they called LAPACK ``gtsv`` directly."""
    d = kernel.derived
    h = kernel.grid.h
    n = rho.size
    W = d.Q.T @ B
    out = np.empty_like(W)
    for k in range(kernel.params.N):
        ab = np.zeros((3, n))
        if isinstance(kernel, EulerKernel):
            c = d.lam[k] * (coef / (rho * h * h))
            c[0] = 0.0
            c[-1] = 0.0
            ab[0, 1:] = -c[:-1]
            ab[1, :] = 1.0 + 2.0 * c
            ab[1, 0] = 1.0
            ab[1, -1] = 1.0
            ab[2, :-1] = -c[1:]
        else:
            rho_hat = 2.0 * rho[1:] * rho[:-1] / (rho[1:] + rho[:-1])
            c = coef * d.lam[k] * (rho_hat / (h * h))
            ab[1, 0] = 1.0
            ab[1, -1] = 1.0
            ab[1, 1:-1] = 1.0 + c[:-1] + c[1:]
            ab[0, 2:] = -c[1:]
            ab[2, :-2] = -c[:-1]
        out[k] = solve_banded((1, 1), ab, W[k])
    return d.Q @ out


def dense_viscous_operator(kernel, rho):
    """L_visc(rho) on all N * n unknowns, wall rows zero."""
    n = rho.size
    h = kernel.grid.h
    D = np.zeros((n, n))
    for j in range(1, n - 1):
        if isinstance(kernel, EulerKernel):
            D[j, j - 1 : j + 2] = np.array([1.0, -2.0, 1.0]) / (rho[j] * h * h)
        else:
            lo = 2.0 * rho[j] * rho[j - 1] / (rho[j] + rho[j - 1])
            hi = 2.0 * rho[j + 1] * rho[j] / (rho[j + 1] + rho[j])
            D[j, j - 1 : j + 2] = np.array([lo, -(lo + hi), hi]) / (h * h)
    return np.kron(kernel.params.M, D)


def make_kernel(kernel_cls, M, n_cells):
    N = M.shape[0]
    A = np.full((N, N), 0.4) - 0.4 * np.eye(N)
    params = make_params(N=N, K=1.0, gamma=1.4, M=M, A=A, T_final=1.0)
    return kernel_cls(Grid1D(1.0, n_cells), params, derive_matrices(params), IMEX)


@st.composite
def solve_inputs(draw):
    N = draw(st.sampled_from([2, 3]))
    R = draw(arrays(float, (N, N), elements=st.floats(-1.0, 1.0)))
    M = R @ R.T + 0.05 * np.eye(N)
    M = 0.5 * (M + M.T)
    n_cells = draw(st.integers(8, 48))
    rho = draw(arrays(float, n_cells + 1, elements=st.floats(0.05, 20.0)))
    B = draw(arrays(float, (N, n_cells + 1), elements=st.floats(-5.0, 5.0)))
    coef = draw(st.floats(1e-6, 1e-2))
    return M, n_cells, rho, B, coef


@pytest.mark.parametrize("kernel_cls", KERNELS)
@given(inputs=solve_inputs())
@settings(max_examples=40, deadline=None)
def test_viscous_solve_matches_banded_and_dense(kernel_cls, inputs):
    M, n_cells, rho, B, coef = inputs
    kern = make_kernel(kernel_cls, M, n_cells)
    got = kern.viscous_solve(rho, B, coef)
    assert np.array_equal(got, banded_reference(kern, rho, B, coef))
    system = np.eye(B.size) - coef * dense_viscous_operator(kern, rho)
    dense = np.linalg.solve(system, B.ravel()).reshape(B.shape)
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-12 * max(np.abs(B).max(), 1.0))


@pytest.mark.parametrize("kernel_cls", KERNELS)
@given(inputs=solve_inputs())
@settings(max_examples=20, deadline=None)
def test_viscous_solve_into_out_equals_a_fresh_solve(kernel_cls, inputs):
    M, n_cells, rho, B, coef = inputs
    kern = make_kernel(kernel_cls, M, n_cells)
    want = make_kernel(kernel_cls, M, n_cells).viscous_solve(rho, B, coef)
    out = np.full_like(B, np.nan)
    assert kern.viscous_solve(rho, B, coef, out) is out
    assert np.array_equal(bits(out), bits(want))
    inplace = B.copy()  # the step's second solve: out is B
    assert kern.viscous_solve(rho, inplace, coef, inplace) is inplace
    assert np.array_equal(bits(inplace), bits(want))


# a density whose band overflows: coef / (rho h^2) in physical coordinates,
# the harmonic face density in mass coordinates
@pytest.mark.parametrize("kernel_cls, rho", [(EulerKernel, 1e-308), (LagrangeKernel, 1e305)])
def test_overflowing_band_is_refused_by_its_scan(kernel_cls, rho):
    rc = scenario_config("shear")
    grid = Grid1D(1.0, rc.n_cells)
    kern = kernel_cls(grid, rc.params, derive_matrices(rc.params), IMEX)
    B = np.zeros((rc.params.N, grid.n_cells + 1))
    with np.errstate(over="ignore"), pytest.raises(NonFinite) as info:
        kern.viscous_solve(np.full(grid.n_cells + 1, rho), B, 1.0)
    assert str(info.value) == "non-finite input to the tridiagonal solve"


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_overflowing_projection_is_refused_by_its_scan(kernel_cls):
    # a finite band and right-hand side whose eigenbasis projection Q^T B overflows
    rc = scenario_config("shear")
    grid = Grid1D(1.0, rc.n_cells)
    kern = kernel_cls(grid, rc.params, derive_matrices(rc.params), IMEX)
    B = np.full((rc.params.N, grid.n_cells + 1), 1.5e308)
    with np.errstate(over="ignore"):
        assert not np.isfinite(kern.derived.Q.T @ B).all()
        with pytest.raises(NonFinite) as info:
            kern.viscous_solve(np.ones(grid.n_cells + 1), B, 1.0)
    assert str(info.value) == "non-finite input to the tridiagonal solve"


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_dgtsv_solves_in_the_rows_it_is_passed(kernel_cls, params2, derived2, shear_state):
    # the solve reads its result from the kernel's own rows: a LAPACK wrapper
    # that copied them would leave W[k] unsolved
    kern = kernel_cls(shear_state.grid, params2, derived2, IMEX)
    n = shear_state.grid.n_cells + 1
    rng = np.random.default_rng(5)
    for k, (lower, diag, upper, w) in enumerate(kern._systems):
        lower[:], diag[:], upper[:] = -rng.random(n - 1), 3.0 + rng.random(n), -rng.random(n - 1)
        w[:] = rng.random(n)
        system = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        want = np.linalg.solve(system, w)
        _, d, _, x, info = _dgtsv()(lower, diag, upper, w, 1, 1, 1, 1)
        assert info == 0
        assert np.shares_memory(x, kern._eig[k]) and np.shares_memory(d, kern._diag[k])
        np.testing.assert_allclose(kern._eig[k], want, rtol=1e-12)


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_zero_pivot_is_refused(kernel_cls, params2, derived2, shear_state, monkeypatch):
    # the bands are diagonally dominant, so only a stand-in for dgtsv reports a zero pivot
    monkeypatch.setattr(timestepping, "_dgtsv", lambda: lambda *args: (None,) * 4 + (3,))
    kern = kernel_cls(shear_state.grid, params2, derived2, IMEX)
    with pytest.raises(MixflowError) as info:
        kern.viscous_solve(np.array(shear_state.rho), np.array(shear_state.U), 1e-3)
    assert str(info.value) == "tridiagonal system 0 is singular (zero pivot 3)"


@pytest.mark.parametrize("kernel_cls", KERNELS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_viscous_solve_non_finite_rhs(kernel_cls, bad, params2, derived2, shear_state):
    kern = kernel_cls(shear_state.grid, params2, derived2, IMEX)
    B = np.array(shear_state.U)
    B[1, 20] = bad
    with pytest.raises(NonFinite):
        kern.viscous_solve(np.array(shear_state.rho), B, 1e-3)


class InfVelocityTendency(EulerKernel):
    def _rhs(self, t, Y, rho, include_viscous, out, shared=None):
        out[0] = 0.0
        out[1:] = np.inf
        return out


def test_imex_blowup_in_solve_keeps_trajectory(params2, derived2, shear_state):
    kern = InfVelocityTendency(shear_state.grid, params2, derived2, IMEX)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFinite) as info:
            run_loop(kern, shear_state, 0.1)
    # the non-finite right-hand side is rejected before any arithmetic on it
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    traj = info.value.trajectory
    assert traj is not None and len(traj) == 1
    assert traj.times[0] == 0.0
