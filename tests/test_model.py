import re

import numpy as np
import pytest

from mixflow.errors import ValidationError
from mixflow.model import MixtureParams, derive_matrices, make_params, validate_params


def base_params(**overrides):
    kw = dict(
        N=2, K=1.0, gamma=1.4,
        M=[[1.0, 0.0], [0.0, 1.0]],
        A=[[0.0, 1.0], [1.0, 0.0]],
        T_final=1.0,
    )
    kw.update(overrides)
    return MixtureParams(**kw)


class TestValidate:
    def test_identity_viscosity_ok(self):
        p = base_params()
        assert validate_params(p) is p

    def test_indefinite_matrix_rejected(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1 (characteristic polynomial
        # (1-l)^2 - 4), so Cholesky must fail
        with pytest.raises(ValidationError, match="viscosity matrix M is not positive definite"):
            validate_params(base_params(M=[[1.0, 2.0], [2.0, 1.0]]))

    def test_gamma_boundary_rejected(self):
        with pytest.raises(ValidationError, match="gamma must be > 1, got 1.0"):
            validate_params(base_params(gamma=1.0))

    @pytest.mark.parametrize("field,value,match", [
        ("N", 1, "N must be an integer >= 2, got 1"),
        ("K", 0.0, "K must be > 0, got 0.0"),
        ("K", -1.0, "K must be > 0, got -1.0"),
        ("T_final", 0.0, "T_final must be > 0, got 0.0"),
    ], ids=["N-1-NonPositiveEntry", "K-0.0-NonPositiveEntry", "K--1.0-NonPositiveEntry",
            "T_final-0.0-NonPositiveEntry"])
    def test_scalar_invariants(self, field, value, match):
        with pytest.raises(ValidationError, match=match):
            validate_params(base_params(**{field: value}))

    def test_asymmetric_viscosity_rejected(self):
        with pytest.raises(ValidationError, match="viscosity matrix M is not symmetric"):
            validate_params(base_params(M=[[1.0, 0.1], [0.0, 1.0]]))

    def test_asymmetric_friction_rejected(self):
        with pytest.raises(ValidationError, match="friction matrix A is not symmetric"):
            validate_params(base_params(A=[[0.0, 1.0], [2.0, 0.0]]))

    def test_nonpositive_friction_rejected(self):
        with pytest.raises(ValidationError, match="off-diagonal friction coefficients must be > 0"):
            validate_params(base_params(A=[[0.0, 0.0], [0.0, 0.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match=r"M must be 2x2, got shape \(2, 3\)"):
            validate_params(base_params(M=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(ValidationError, match=r"A must be 2x2, got shape \(3, 3\)"):
            validate_params(base_params(A=np.zeros((3, 3)) + 1.0))
        for A, shape in ((1.0, "()"), ([1.0, 1.0], "(2,)"), (np.ones((2, 2, 2)), "(2, 2, 2)")):
            with pytest.raises(ValidationError, match=re.escape(f"A must be 2x2, got shape {shape}")):
                validate_params(base_params(A=A))

    def test_friction_diagonal_ignored(self):
        # a_ii multiplies (u_i - u_i) = 0, so any diagonal is acceptable
        p = base_params(A=[[5.0, 1.0], [1.0, -3.0]])
        validate_params(p)

    def test_idempotent(self):
        p = base_params()
        assert validate_params(validate_params(p)) is p

    def test_equality_is_by_value(self):
        assert base_params() == base_params(M=np.eye(2), A=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert base_params() != base_params(A=[[0.0, 2.0], [2.0, 0.0]])
        assert base_params() != "params"


class TestDerive:
    def test_identity(self):
        d = derive_matrices(make_params(2, 1.0, 1.4, np.eye(2), [[0, 1], [1, 0]], 1.0))
        assert np.allclose(d.M_inv, np.eye(2))
        assert d.C0 == pytest.approx(1.0)
        # sum of M_inv entries is N, so the effective coefficient equals K
        assert d.K_tilde == pytest.approx(1.0)

    def test_hand_inverted_2x2(self):
        # M = [[2,1],[1,2]]: det 3, inverse [[2/3,-1/3],[-1/3,2/3]],
        # eigenvalues {1, 3}; with K = 3 the effective coefficient is
        # (3/2) * (2/3 - 1/3 - 1/3 + 2/3) = 1
        p = make_params(2, 3.0, 1.4, [[2.0, 1.0], [1.0, 2.0]], [[0, 1], [1, 0]], 1.0)
        d = derive_matrices(p)
        assert np.allclose(d.M_inv, [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=1e-14)
        assert d.C0 == pytest.approx(1.0, rel=1e-10)
        assert d.K_tilde == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(d.V_weights, [1 / 6, 1 / 6], atol=1e-14)

    def test_inverse_residual_tolerance(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(4, 4))
        p = make_params(4, 1.0, 1.4, b.T @ b + 0.1 * np.eye(4), np.ones((4, 4)), 1.0)
        d = derive_matrices(p)
        resid = np.linalg.norm(p.M @ d.M_inv - np.eye(4)) / np.linalg.norm(p.M)
        assert resid < 1e-12

    def test_random_spd_coercivity(self):
        # 1000 random SPD matrices; quadratic form bounded below by C0 |xi|^2
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            b = rng.normal(size=(n, n))
            m = b.T @ b + 1e-3 * np.eye(n)
            p = make_params(n, 1.0, 1.4, m, np.ones((n, n)), 1.0)
            d = derive_matrices(p)
            xi = rng.normal(size=(100, n))
            quad = np.einsum("ki,ij,kj->k", xi, p.M, xi)
            norm2 = (xi**2).sum(axis=1)
            assert np.all(quad >= d.C0 * norm2 * (1.0 - 1e-9) - 1e-12)

    def test_scaling_property(self):
        p1 = make_params(3, 1.0, 1.4, np.eye(3) * 2 + 0.5, np.ones((3, 3)), 1.0)
        lam = 3.7
        p2 = make_params(3, 1.0, 1.4, lam * np.asarray(p1.M), np.ones((3, 3)), 1.0)
        d1, d2 = derive_matrices(p1), derive_matrices(p2)
        assert d2.C0 == pytest.approx(lam * d1.C0, rel=1e-12)
        assert d2.K_tilde == pytest.approx(d1.K_tilde / lam, rel=1e-12)

    def test_eigendecomposition_reconstructs(self):
        p = make_params(3, 1.0, 1.4, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], np.ones((3, 3)), 1.0)
        d = derive_matrices(p)
        assert np.allclose(d.Q @ np.diag(d.lam) @ d.Q.T, p.M, atol=1e-12)
        assert d.C0 == pytest.approx(float(d.lam.min()))


def _friction_params(N):
    rng = np.random.default_rng(N)
    A = rng.uniform(0.1, 2.0, (N, N))
    A = A + A.T
    np.fill_diagonal(A, rng.uniform(-3.0, 3.0, N))  # the diagonal must not enter
    return make_params(N, 1.0, 1.4, np.eye(N), A, 1.0)


class TestExchange:
    """``MixtureParams.exchange`` against the pairwise drag sum_j A_ij (u_j - u_i)."""

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("lead", [(), (7,), (4, 7)], ids=["N", "N-n", "R-N-n"])
    def test_pairwise_definition(self, N, lead):
        p = _friction_params(N)
        shape = (*lead[:-1], N, *lead[-1:])  # (N,), (N, n) or (R, N, n)
        U = np.random.default_rng(1).normal(size=shape)
        Ui = np.moveaxis(U, -2 if lead else 0, 0)  # component axis first
        pairwise = np.moveaxis(np.array([
            sum(p.A[i, j] * (Ui[j] - Ui[i]) for j in range(N) if j != i) for i in range(N)
        ]), 0, -2 if lead else 0)
        out = p.exchange(U)
        assert out.shape == U.shape
        np.testing.assert_allclose(out, pairwise, rtol=1e-13, atol=1e-13 * np.abs(U).max())

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("lead", [(), (7,), (4, 7)], ids=["N", "N-n", "R-N-n"])
    def test_buffered_call_is_bit_equal(self, N, lead):
        p = _friction_params(N)
        U = np.random.default_rng(2).normal(size=(*lead[:-1], N, *lead[-1:]))
        out, scratch = np.full(U.shape, np.nan), np.full(U.shape, np.nan)
        assert p.exchange(U, out, scratch) is out
        np.testing.assert_array_equal(out.view(np.int64), p.exchange(U).view(np.int64))
