"""Physical parameters of the mixture model and derived matrix quantities.

The model couples N velocity fields through a symmetric positive definite
viscosity matrix M and a symmetric friction matrix A with positive
off-diagonal entries.  Everything downstream (solvers, audits) assumes the
invariants enforced by :func:`validate_params`, and several audits consume
the derived quantities (M inverse, the coercivity constant C0 = min eig M,
the effective pressure coefficient and the row weights of M inverse).
:meth:`MixtureParams.exchange` is the one drag law of kernels, audits and forcing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_SYM_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class MixtureParams:
    """Constants of the flow model.

    N : number of components (>= 2)
    K : pressure coefficient in p = K rho^gamma (> 0)
    gamma : polytropic exponent (> 1)
    M : (N, N) viscosity matrix, symmetric positive definite
    A : (N, N) friction matrix, symmetric, positive off-diagonal
        (the diagonal never enters the equations and is ignored)
    T_final : simulation horizon (> 0)
    """

    N: int
    K: float
    gamma: float
    M: np.ndarray
    A: np.ndarray
    T_final: float

    def __post_init__(self):
        M = np.array(self.M, dtype=float)
        A = np.array(self.A, dtype=float)
        M.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "A", A)
        if A.ndim == 2:  # validate_params refuses any other A
            row = A.sum(axis=1)
            object.__setattr__(self, "_row_sums", (row[:, None], row))  # by U.ndim == 1

    def exchange(self, U, out=None, scratch=None):
        """The drag ``sum_j A_ij (u_j - u_i)``, ``A U - rowsum(A) U``, on ``U`` of shape (N,),
        (N, n) or (R, N, n); ``out`` and ``scratch`` shaped like ``U`` make it allocate nothing."""
        out = np.matmul(self.A, U, out=out)
        out -= np.multiply(self._row_sums[U.ndim == 1], U, out=scratch)
        return out

    def __eq__(self, other):
        if not isinstance(other, MixtureParams):
            return NotImplemented
        return (
            self.N == other.N
            and self.K == other.K
            and self.gamma == other.gamma
            and self.T_final == other.T_final
            and np.array_equal(self.M, other.M)
            and np.array_equal(self.A, other.A)
        )


@dataclass(frozen=True, eq=False)
class DerivedMatrices:
    """Quantities computed once from validated parameters.

    M_inv : inverse of the viscosity matrix
    C0 : smallest eigenvalue of M; the viscous coercivity constant
    K_tilde : (K/N) * sum of all entries of M_inv (> 0)
    V_weights : length-N vector, V_weights[j] = (1/N) * sum_i M_inv[i, j];
        the weights of the aggregated velocity V = sum_j V_weights[j] u_j
    lam : eigenvalues of M (ascending)
    Q : orthonormal eigenvectors of M (columns), M = Q diag(lam) Q^T
    """

    M_inv: np.ndarray
    C0: float
    K_tilde: float
    V_weights: np.ndarray
    lam: np.ndarray
    Q: np.ndarray

    @property
    def lam_max(self) -> float:
        return float(self.lam[-1])


def _check_square(name: str, mat: np.ndarray, n: int):
    if mat.ndim != 2 or mat.shape != (n, n):
        raise ValidationError(f"{name} must be {n}x{n}, got shape {mat.shape}")


def validate_params(p: MixtureParams) -> MixtureParams:
    """Check every model invariant; returns ``p`` unchanged if all hold.

    Symmetry is tested entrywise to relative tolerance 1e-12 and positive
    definiteness by attempting a Cholesky factorization, the cheapest
    definitive test for small dense matrices; ``M @ inv(M) - I``, which is
    dimensionless, must have a norm <= 1e-10 at any scale of M.  No structural
    assumptions beyond symmetry and positivity are imposed on M.
    """
    if int(p.N) != p.N or p.N < 2:
        raise ValidationError(f"N must be an integer >= 2, got {p.N}")
    if not p.K > 0:
        raise ValidationError(f"K must be > 0, got {p.K}")
    if not p.gamma > 1:
        raise ValidationError(f"gamma must be > 1, got {p.gamma}")
    if not p.T_final > 0:
        raise ValidationError(f"T_final must be > 0, got {p.T_final}")
    for name, value in (("K", p.K), ("gamma", p.gamma), ("T_final", p.T_final)):
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")

    _check_square("M", p.M, p.N)
    _check_square("A", p.A, p.N)
    for name, mat in (("viscosity matrix M", p.M), ("friction matrix A", p.A)):
        if not np.isfinite(mat).all():
            raise ValidationError(f"{name} has a non-finite entry")

    scale_m = max(np.abs(p.M).max(), 1.0)
    if np.abs(p.M - p.M.T).max() > _SYM_RTOL * scale_m:
        raise ValidationError("viscosity matrix M is not symmetric")
    scale_a = max(np.abs(p.A).max(), 1.0)
    if np.abs(p.A - p.A.T).max() > _SYM_RTOL * scale_a:
        raise ValidationError("friction matrix A is not symmetric")

    off = ~np.eye(p.N, dtype=bool)
    if not np.all(p.A[off] > 0):
        raise ValidationError("off-diagonal friction coefficients must be > 0")

    try:
        np.linalg.cholesky(p.M)
    except np.linalg.LinAlgError:
        raise ValidationError("viscosity matrix M is not positive definite") from None
    if not (resid := np.linalg.norm(p.M @ np.linalg.inv(p.M) - np.eye(p.N))) <= 1e-10:
        raise ValidationError(f"M @ M_inv deviates from identity by {resid:.3e}")
    return p


def derive_matrices(p: MixtureParams) -> DerivedMatrices:
    """Invert M and extract the spectral quantities used by the audits."""
    m_inv = np.linalg.inv(p.M)
    m_inv = 0.5 * (m_inv + m_inv.T)  # symmetrize round-off
    lam, q = np.linalg.eigh(p.M)
    c0 = float(lam[0])

    k_tilde = float(p.K / p.N * m_inv.sum())
    v_weights = m_inv.sum(axis=0) / p.N

    for a in (m_inv, lam, q, v_weights):
        a.setflags(write=False)
    return DerivedMatrices(
        M_inv=m_inv, C0=c0, K_tilde=k_tilde, V_weights=v_weights, lam=lam, Q=q
    )


def make_params(N, K, gamma, M, A, T_final) -> MixtureParams:
    """Construct and validate in one call."""
    return validate_params(MixtureParams(N=N, K=K, gamma=gamma, M=M, A=A, T_final=T_final))
