"""Tangent frames, Levi matrices, null spaces, and the Schur frame transform.

Conventions.  The Levi form of rho on ambient (1,0) vectors X, Y is
levi(X, Y) = sum_{i,j} rho_{z_i zbar_j} X_i conj(Y_j).  The frame matrix is
M[i, j] = levi(X_i, X_j); it is Hermitian.  A combination v = sum_j a_j X_j
is Levi-null iff M conj(a) = 0, so null *coefficient* vectors are conjugated
kernel eigenvectors of M.  The Schur transform Psi = [[I, 0], [-C^{-1}B*,
C^{-1}]] block-diagonalizes M as Psi* M Psi = diag(A - B C^{-1} B*, C^{-1}),
and the transformed frame is [X_1 .. X_{n-1}] conj(Psi).

levi_matrix diagonalizes M with numpy's Hermitian eigensolver and returns
it as NullData together with its null coefficients: an eigenvalue below
NULL_TOL * max(1, spectral radius) counts as null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LeviError",
    "TangentFrame",
    "NullData",
    "SchurResult",
    "tangent_frame",
    "levi_form",
    "levi_matrix",
    "null_basis",
    "schur_frame",
]

NULL_TOL = 1e-7  # eigenvalue < NULL_TOL * max(1, spectral radius) counts as null
SCHUR_COND_LIMIT = 1e8
SCHUR_IDENTITY_TOL = 1e-10  # |Psi* M Psi - diag| relative to |M|


class LeviError(ValueError):
    """Degenerate geometry: vanishing gradient, singular trailing block, ..."""


# -- frames and Levi matrices ---------------------------------------------------

@dataclass(frozen=True)
class TangentFrame:
    """Basis of the holomorphic tangent space at a boundary point.

    basis[j] = grad[pivot] * e_{k_j} - grad[k_j] * e_{pivot}, where pivot is
    the index of the largest gradient component and k_j runs over the other
    coordinates; every basis vector is annihilated by the (1,0) differential.
    """

    basis: np.ndarray       # (n-1, n) complex, rows are frame vectors
    pivot: int


def tangent_frame(w):
    """Pivoted holomorphic tangent frame from Wirtinger data."""
    grad = w.grad
    if np.abs(grad).max() < 1e-300:
        raise LeviError("vanishing complex gradient")
    k = int(np.argmax(np.abs(grad)))
    n = grad.size
    others = [j for j in range(n) if j != k]
    basis = np.zeros((n - 1, n), dtype=complex)
    for row, j in enumerate(others):
        basis[row, j] = grad[k]
        basis[row, k] = -grad[j]
    return TangentFrame(basis=basis, pivot=k)


def levi_form(w, X, Y):
    """Levi form on ambient (1,0) vectors: sum rho_{i jbar} X_i conj(Y_j)."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    return complex(X @ w.hess_mixed @ np.conj(Y))


def _spectral_scale(eigenvalues):
    return max(1.0, float(np.abs(eigenvalues).max(initial=0.0)))


@dataclass(frozen=True)
class NullData:
    """Levi matrix in a tangent frame with its eigenvalues and null space."""

    M: np.ndarray
    eigenvalues: np.ndarray   # ascending
    null_coeffs: np.ndarray   # (m, n-1), see null_basis

    @property
    def m(self):
        return self.null_coeffs.shape[0]

    @property
    def scale(self):
        return _spectral_scale(self.eigenvalues)


def levi_matrix(w, frame):
    """Assemble M[i, j] = levi(X_i, X_j) and attach its eigendata."""
    X = frame.basis
    M = X @ w.hess_mixed @ X.conj().T
    defect = np.abs(M - M.conj().T).max()
    if defect > 1e-13 * max(1.0, np.abs(M).max()):
        raise LeviError(f"Levi matrix not Hermitian (defect {defect:.3e})")
    M = 0.5 * (M + M.conj().T)
    vals, vecs = np.linalg.eigh(M)
    return NullData(M=M, eigenvalues=vals, null_coeffs=null_basis(vals, vecs))


def null_basis(eigenvalues, eigenvectors):
    """Frame-coefficient vectors spanning the numerical Levi null space.

    Takes ascending eigenvalues and eigenvector columns of a frame Levi
    matrix M.  Returns an (m, n-1) array of orthonormal coefficient vectors a
    such that sum_j a_j X_j is annihilated by the Levi form; empty when M is
    positive definite at scale.
    """
    mask = eigenvalues < NULL_TOL * _spectral_scale(eigenvalues)
    if not mask.any():
        return np.zeros((0, eigenvectors.shape[0]), dtype=complex)
    # re-orthonormalize the cluster, then conjugate: M conj(a) = 0
    q, _ = np.linalg.qr(eigenvectors[:, mask])
    return q.conj().T


@dataclass(frozen=True)
class SchurResult:
    Psi: np.ndarray
    block_null: np.ndarray   # A - B C^{-1} B*
    block_pos: np.ndarray    # C^{-1}
    transformed: np.ndarray  # frame-coefficient columns [e_1 .. ] conj(Psi)
    residual: float


def schur_frame(nd, m, frame_vectors=None):
    """Block-diagonalize the Levi matrix around an m-dimensional null block.

    Returns Psi, the diagonal blocks, and the transformed frame (ambient
    vectors when frame_vectors is given, otherwise coefficient columns).
    """
    M = nd.M if isinstance(nd, NullData) else np.asarray(nd, dtype=complex)
    size = M.shape[0]
    if not 0 <= m <= size:
        raise LeviError(f"null block size {m} out of range for {size}x{size}")
    A = M[:m, :m]
    B = M[:m, m:]
    C = M[m:, m:]
    if C.size:
        if np.linalg.cond(C) > SCHUR_COND_LIMIT:
            raise LeviError("trailing block C is singular or ill-conditioned")
        Cinv = np.linalg.inv(C)
    else:
        Cinv = C.copy()
    Psi = np.zeros((size, size), dtype=complex)
    Psi[:m, :m] = np.eye(m)
    if C.size:
        Psi[m:, :m] = -Cinv @ B.conj().T
        Psi[m:, m:] = Cinv
    block_null = A - (B @ Cinv @ B.conj().T if C.size else np.zeros_like(A))

    target = np.zeros_like(M)
    target[:m, :m] = block_null
    target[m:, m:] = Cinv
    residual = float(np.linalg.norm(Psi.conj().T @ M @ Psi - target))
    if residual > SCHUR_IDENTITY_TOL * max(np.linalg.norm(M), 1e-300):
        raise LeviError(f"Schur identity violated (residual {residual:.3e})")

    base = np.asarray(frame_vectors, dtype=complex) if frame_vectors is not None \
        else np.eye(size, dtype=complex)
    transformed = (base.T @ np.conj(Psi)).T  # row j = sum_i X_i conj(Psi)[i, j]
    return SchurResult(Psi=Psi, block_null=block_null, block_pos=Cinv,
                       transformed=transformed, residual=residual)
