"""Tangent frames, Levi matrices, null spaces, and the Schur frame transform.

Conventions.  The Levi form of rho on ambient (1,0) vectors X, Y is
levi(X, Y) = sum_{i,j} rho_{z_i zbar_j} X_i conj(Y_j).  The frame matrix is
M[i, j] = levi(X_i, X_j); it is Hermitian.  A combination v = sum_j a_j X_j
is Levi-null iff M conj(a) = 0, so null *coefficient* vectors are conjugated
kernel eigenvectors of M.  The Schur transform Psi = [[I, 0], [-C^{-1}B*,
C^{-1}]] block-diagonalizes M as Psi* M Psi = diag(A - B C^{-1} B*, C^{-1}),
and the transformed frame, in coefficients of [X_1 .. X_{n-1}], is conj(Psi)
column by column.

levi_batch works on a whole batch of boundary points at once: it builds
every point's pivoted frame and Levi matrix, diagonalizes all of them with
one stacked Hermitian eigensolve, and returns the Levi-null directions of
the batch as flat arrays, which index.criterion_samples hands to
dangelo.null_forms in one pass whatever each point's pivot.  An eigenvalue
below NULL_TOL * max(1, spectral radius) counts as null.  Each point's
entries are bit-identical to those of the same computation on that point
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LeviError",
    "LeviBatch",
    "SchurResult",
    "levi_form",
    "levi_batch",
    "schur_frame",
]

NULL_TOL = 1e-7  # eigenvalue < NULL_TOL * max(1, spectral radius) counts as null
SCHUR_COND_LIMIT = 1e8
# |Psi* M Psi - diag| relative to max(|M|, |C^{-1}|), the larger of the
# scales of the matrix and of its block-diagonal target
SCHUR_IDENTITY_TOL = 1e-10


class LeviError(ValueError):
    """Degenerate geometry: vanishing gradient, singular trailing block, ..."""


# -- frames and Levi matrices ---------------------------------------------------

def levi_form(w, X, Y):
    """Levi form on ambient (1,0) vectors: sum rho_{i jbar} X_i conj(Y_j)."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    return complex(X @ w.hess_mixed @ np.conj(Y))


@dataclass(frozen=True)
class LeviBatch:
    """Levi matrices of a batch of B boundary points and their null directions.

    Per point b: the pivot (index of the largest gradient component), the
    pivoted tangent frame frame[b] with rows
    X_j = grad[pivot] e_{k_j} - grad[k_j] e_{pivot} for the other coordinates
    k_j, the Levi matrix M[b] in that frame, its ascending eigenvalues and
    its spectral scale max(1, max |eigenvalue|).  Per Levi-null direction,
    in point order and then direction order: the point index, the
    orthonormal frame coefficients a with M conj(a) = 0, and the ambient
    (1,0) vector L = sum_j a_j X_j.
    """

    pivot: np.ndarray        # (B,) int
    frame: np.ndarray        # (B, n-1, n) complex
    M: np.ndarray            # (B, n-1, n-1) complex Hermitian
    eigenvalues: np.ndarray  # (B, n-1) ascending
    scale: np.ndarray        # (B,)
    point: np.ndarray        # (K,) int
    coeffs: np.ndarray       # (K, n-1) complex
    L: np.ndarray            # (K, n) complex


def levi_batch(w):
    """Frames, Levi matrices, eigendata and null directions of every point
    of batched Wirtinger data (grad (n, B), hess_mixed (n, n, B)).

    All points share one stacked eigh.  An eigenvalue below
    NULL_TOL * scale counts as null; the null eigenvectors of a point are
    re-orthonormalized by QR and conjugated into coefficients.
    """
    count = np.shape(w.value)[0]
    # batch axis first, each point's block contiguous as for one point alone,
    # so that the stacked matmul rounds as the single one does
    grad, hess = (np.ascontiguousarray(np.moveaxis(a, -1, 0))
                  for a in (w.grad, w.hess_mixed))
    n = grad.shape[1]
    mag = np.abs(grad)
    if np.any(mag.max(axis=1) < 1e-300):
        raise LeviError("vanishing complex gradient")
    pivot = np.argmax(mag, axis=1)
    rows = np.arange(n - 1)
    others = rows + (rows >= pivot[:, None])  # the coordinates but the pivot
    at = np.arange(count)[:, None]
    X = np.zeros((count, n - 1, n), dtype=complex)
    X[at, rows, others] = grad[np.arange(count), pivot][:, None]
    X[at, rows, pivot[:, None]] = -grad[at, others]

    M = X @ hess @ np.swapaxes(X.conj(), 1, 2)
    MH = np.swapaxes(M.conj(), 1, 2)
    defect = np.abs(M - MH).max(axis=(1, 2))
    bad = defect > 1e-13 * np.maximum(1.0, np.abs(M).max(axis=(1, 2)))
    if bad.any():
        raise LeviError(f"Levi matrix not Hermitian "
                        f"(defect {defect[np.argmax(bad)]:.3e})")
    M = 0.5 * (M + MH)
    vals, vecs = np.linalg.eigh(M)
    scale = np.maximum(1.0, np.abs(vals).max(axis=1))

    # eigenvalues ascend, so each point's null eigenvalues come first
    nulls = np.sum(vals < NULL_TOL * scale[:, None], axis=1)
    first = np.cumsum(nulls) - nulls
    coeffs = np.zeros((int(nulls.sum()), n - 1), dtype=complex)
    for m in set(nulls[nulls > 0].tolist()):  # one QR per null dimension
        sel = np.flatnonzero(nulls == m)
        q, _ = np.linalg.qr(vecs[sel, :, :m])
        coeffs[first[sel][:, None] + np.arange(m)] = np.swapaxes(q.conj(), 1, 2)
    point = np.repeat(np.arange(count), nulls)
    L = np.matmul(coeffs[:, None, :], X[point])[:, 0]
    return LeviBatch(pivot=pivot, frame=X, M=M, eigenvalues=vals, scale=scale,
                     point=point, coeffs=coeffs, L=L)


@dataclass(frozen=True)
class SchurResult:
    Psi: np.ndarray
    block_null: np.ndarray   # A - B C^{-1} B*
    block_pos: np.ndarray    # C^{-1}
    residual: float          # Frobenius norm of Psi* M Psi - diag


def schur_frame(M, m):
    """Block-diagonalize a frame Levi matrix M around an m-dimensional null
    block.

    Returns Psi, whose conjugated columns are the frame coefficients of the
    transformed frame, the diagonal blocks, and the identity residual.
    """
    M = np.asarray(M, dtype=complex)
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
    scale = max(np.linalg.norm(M), np.linalg.norm(Cinv), 1e-300)
    if residual > SCHUR_IDENTITY_TOL * scale:
        raise LeviError(f"Schur identity violated (residual {residual:.3e})")
    return SchurResult(Psi=Psi, block_null=block_null, block_pos=Cinv,
                       residual=residual)
