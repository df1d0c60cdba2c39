import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixflow.errors import LengthMismatch, NonPositiveDensity, ValidationError, WrongFrame
from mixflow.field import (
    EULERIAN,
    LAGRANGIAN,
    Grid1D,
    State,
    Trajectory,
    cumulative_trapezoid,
    diff,
    face_gradient,
    face_harmonic_mean,
    integrate,
    l2_norm,
    pchip,
    sbp_derivative,
)


def make_state(grid, rho, U, frame=EULERIAN, time=0.0):
    return State(time=time, frame=frame, grid=grid, rho=rho, U=U)


class TestGridState:
    def test_grid_spacing(self):
        g = Grid1D(domain_length=2.0, n_cells=10)
        assert g.h == pytest.approx(0.2)
        assert g.n_nodes == 11
        assert g.nodes()[0] == 0.0 and g.nodes()[-1] == pytest.approx(2.0)

    def test_grid_too_coarse(self):
        with pytest.raises(ValidationError):
            Grid1D(domain_length=1.0, n_cells=4)

    def test_state_requires_positive_density(self, grid64):
        rho = np.ones(grid64.n_nodes)
        rho[3] = 0.0
        with pytest.raises(NonPositiveDensity):
            make_state(grid64, rho, np.zeros((2, grid64.n_nodes)))

    def test_state_requires_zero_boundary_velocity(self, grid64):
        U = np.zeros((2, grid64.n_nodes))
        U[0, 0] = 1e-15
        with pytest.raises(ValidationError):
            make_state(grid64, np.ones(grid64.n_nodes), U)

    def test_state_length_mismatch(self, grid64):
        with pytest.raises(LengthMismatch):
            make_state(grid64, np.ones(5), np.zeros((2, 5)))

    def test_state_arrays_immutable(self, grid64):
        s = make_state(grid64, np.ones(grid64.n_nodes), np.zeros((1, grid64.n_nodes)))
        with pytest.raises(ValueError):
            s.rho[0] = 2.0

    def test_trajectory_rejects_time_regression(self, grid64):
        s0 = make_state(grid64, np.ones(grid64.n_nodes), np.zeros((1, grid64.n_nodes)))
        with pytest.raises(ValidationError):
            Trajectory.stack([s0, s0])

    def test_trajectory_frame_guard(self, grid64):
        s0 = make_state(grid64, np.ones(grid64.n_nodes), np.zeros((1, grid64.n_nodes)))
        s1 = make_state(grid64, np.ones(grid64.n_nodes), np.zeros((1, grid64.n_nodes)),
                        frame=LAGRANGIAN, time=1.0)
        with pytest.raises(WrongFrame):
            Trajectory.stack([s1, s0])


class TestQuadrature:
    def test_constant(self):
        g = Grid1D(1.0, 16)
        assert integrate(np.full(g.n_nodes, 2.0), g) == pytest.approx(2.0, abs=1e-15)

    def test_affine_exact(self):
        g = Grid1D(1.0, 13)
        x = g.nodes()
        assert integrate(x, g) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_second_order(self):
        g = Grid1D(1.0, 100)
        x = g.nodes()
        assert integrate(x**2, g) == pytest.approx(1 / 3, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            integrate(np.ones(7), Grid1D(1.0, 16))

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b):
        g = Grid1D(1.0, 32)
        x = g.nodes()
        f, w = np.sin(3 * x), np.cos(2 * x)
        lhs = integrate(a * f + b * w, g)
        rhs = a * integrate(f, g) + b * integrate(w, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestCumulativeTrapezoid:
    def test_zero_at_the_first_sample(self):
        assert cumulative_trapezoid(np.array([3.0, -1.0, 2.0]), 0.5)[0] == 0.0
        assert cumulative_trapezoid(np.array([3.0, -1.0]), np.array([0.25]))[0] == 0.0

    def test_affine_exact_with_a_spacing(self):
        g = Grid1D(2.0, 13)
        x = g.nodes()
        got = cumulative_trapezoid(1.5 - 0.75 * x, g.h)
        assert got == pytest.approx(1.5 * x - 0.375 * x**2, abs=1e-14)

    def test_affine_exact_with_gaps(self):
        x = np.sort(np.random.default_rng(5).uniform(0.0, 3.0, 20))
        got = cumulative_trapezoid(2.0 + 0.5 * x, np.diff(x))
        want = 2.0 * (x - x[0]) + 0.25 * (x**2 - x[0] ** 2)
        assert got.shape == x.shape
        assert got == pytest.approx(want, abs=1e-13)

    def test_last_value_is_the_quadrature(self):
        g = Grid1D(1.0, 40)
        f = np.exp(np.sin(3.0 * g.nodes()))
        assert cumulative_trapezoid(f, g.h)[-1] == pytest.approx(integrate(f, g), rel=1e-14)


class TestDiff:
    def test_constant_is_zero(self):
        g = Grid1D(1.0, 16)
        assert np.all(diff(np.full(g.n_nodes, 3.0), g) == 0.0)

    def test_linear_exact(self):
        g = Grid1D(1.0, 16)
        assert np.allclose(diff(g.nodes(), g), 1.0, atol=1e-13)

    def test_sine_second_order(self):
        g = Grid1D(1.0, 128)
        x = g.nodes()
        err = np.abs(diff(np.sin(2 * np.pi * x), g) - 2 * np.pi * np.cos(2 * np.pi * x))
        assert err.max() <= 1e-2
        g2 = Grid1D(1.0, 256)
        x2 = g2.nodes()
        err2 = np.abs(diff(np.sin(2 * np.pi * x2), g2) - 2 * np.pi * np.cos(2 * np.pi * x2))
        # halving h quarters the error
        assert err2.max() <= err.max() / 3.5

    def test_integration_by_parts(self):
        # discrete counterpart of int f' w = [f w] - int f w'
        g = Grid1D(1.0, 64)
        x = g.nodes()
        f = np.sin(2 * np.pi * x) + x
        w = np.exp(-x)
        lhs = integrate(diff(f, g) * w, g)
        rhs = f[-1] * w[-1] - f[0] * w[0] - integrate(f * diff(w, g), g)
        assert lhs == pytest.approx(rhs, abs=5e-4)  # O(h^2)

    def test_sbp_derivative_exact_total(self):
        # the SBP closure telescopes exactly: integral of Df = f(1) - f(0)
        g = Grid1D(1.0, 32)
        x = g.nodes()
        f = np.cos(3 * x) + x**2
        assert integrate(sbp_derivative(f, g), g) == pytest.approx(f[-1] - f[0], abs=1e-14)


class TestNorms:
    def test_unit_constant(self):
        g = Grid1D(1.0, 16)
        f = np.ones(g.n_nodes)
        assert l2_norm(f, g) == pytest.approx(1.0, abs=1e-14)

    def test_linear_profile(self):
        g = Grid1D(1.0, 1000)
        assert l2_norm(g.nodes(), g) == pytest.approx(1 / math.sqrt(3), abs=1e-6)

    def test_zero(self):
        g = Grid1D(1.0, 16)
        z = np.zeros(g.n_nodes)
        assert l2_norm(z, g) == 0.0

    @given(lam=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, lam):
        g = Grid1D(1.0, 32)
        f = np.sin(5 * g.nodes())
        assert l2_norm(lam * f, g) == pytest.approx(abs(lam) * l2_norm(f, g), abs=1e-12)


class TestFaceHelpers:
    def test_face_gradient_matches_slope(self):
        g = Grid1D(1.0, 16)
        assert np.allclose(face_gradient(2.0 * g.nodes(), g), 2.0, atol=1e-13)

    def test_face_harmonic_mean_hand_values(self):
        # 2 * 1 * 3 / 4 = 1.5, and equal neighbours give their common value
        assert np.array_equal(face_harmonic_mean(np.array([1.0, 3.0, 3.0])), [1.5, 3.0])

    def test_face_harmonic_mean_operation_order(self):
        rho = np.random.default_rng(3).uniform(0.05, 5.0, 97)
        expect = 2.0 * rho[1:] * rho[:-1] / (rho[1:] + rho[:-1])
        assert np.array_equal(face_harmonic_mean(rho), expect)


@st.composite
def pchip_cases(draw):
    """Strictly increasing ``x`` (n >= 2, uneven or even gaps), a stack of
    rows ``y`` drawn largely from a few values, so that flat stretches, exact
    zeros, -0.0 and sign changes are common, and points ``at`` on every
    breakpoint, at both ends, between them and beyond them."""
    n = draw(st.integers(2, 24))
    gap = st.one_of(st.sampled_from([0.25, 1.0]), st.floats(1e-3, 10.0))
    x = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(draw(
        st.lists(gap, min_size=n - 1, max_size=n - 1)))])
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-1e6, 1e6))
    rows = draw(st.integers(1, 3))
    y = np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n),
                               min_size=rows, max_size=rows)))
    inside = draw(st.lists(st.floats(x[0] - 3.0, x[-1] + 3.0), max_size=12))
    at = np.concatenate([x, [x[0] - 1.0, x[-1] + 0.5], inside])
    return x, y, at


class TestPchip:
    # at x = 1 every term of the cubic is -0.0; scipy's sum starts at 0.0
    NEGATIVE_ZERO_SUM = (np.array([0.0, 1.0, 3.0]), np.array([[1.0, -0.0, -3.0]]),
                         np.array([1.0]))

    @given(pchip_cases())
    @example(NEGATIVE_ZERO_SUM)
    @settings(max_examples=200, deadline=None)
    def test_bits_of_scipy(self, case):
        from scipy.interpolate import PchipInterpolator

        x, y, at = case
        assert np.all(np.diff(x) > 0)
        got = pchip(x, y, at)
        assert got.shape == (len(y), len(at))
        for row, out in zip(y, got):
            with np.errstate(over="ignore"):  # scipy's w / m for a subnormal secant m
                want = PchipInterpolator(x, row)(at).view(np.int64)
            assert np.array_equal(out.view(np.int64), want)
            assert np.array_equal(pchip(x, row, at).view(np.int64), want)

    def test_monotone_data_no_overshoot(self):
        x = np.array([0.0, 1.0, 1.5, 4.0, 4.1])
        y = np.array([1.0, 1.0, 3.0, 3.0, 10.0])
        got = pchip(x, y, np.linspace(0.0, 4.1, 200))
        assert np.all(np.diff(got) >= 0) and got.min() == 1.0 and got.max() == 10.0
