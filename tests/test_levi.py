import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex import domains, jets, levi


# -- tangent frames ------------------------------------------------------------------

def test_tangent_frame_annihilates_gradient():
    dm = domains.worm_rho(3 * math.pi / 4, 0.2)
    pts = domains.boundary_sample(dm, np.array([1.0, 0.0, 1.0, 0.0]), 25,
                                  seed=9)
    for p in pts:
        frame = levi.tangent_frame(p.wirt)
        for X in frame.basis:
            assert abs(p.wirt.grad @ X) < 1e-12 * (1.0 + p.wirt.grad_norm() ** 2)
        assert np.linalg.matrix_rank(frame.basis) == dm.n - 1


def test_levi_matrix_hermitian_and_psd_on_worm():
    dm = domains.worm_rho(3 * math.pi / 4, 0.1)
    pts = domains.boundary_sample(dm, np.array([1.0, 0.0, 1.0, 0.0]), 40,
                                  seed=2)
    for p in pts:
        nd = levi.levi_matrix(p.wirt, levi.tangent_frame(p.wirt))
        assert np.abs(nd.M - nd.M.conj().T).max() < 1e-13 * nd.scale
        assert nd.eigenvalues[0] > -1e-10 * nd.scale  # pseudoconvex side


def test_levi_matrix_rejects_non_hermitian():
    w = jets.WirtingerData(n=2, value=0.0, grad=np.array([1.0, 1.0 + 0j]),
                           hess_mixed=np.diag([1.0, 1.0j]))
    with pytest.raises(levi.LeviError):
        levi.levi_matrix(w, levi.tangent_frame(w))


def test_null_basis_convention():
    # M conj(a) = 0 for returned coefficient vectors a
    rng = np.random.default_rng(12)
    G = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    M = G.conj().T @ G
    vals, vecs = np.linalg.eigh(M)
    coeffs = levi.null_basis(vals, vecs)
    assert coeffs.shape == (2, 4)
    for a in coeffs:
        assert np.linalg.norm(M @ np.conj(a)) < 1e-12


def test_null_basis_empty_for_definite_matrix():
    M = np.diag([1.0, 2.0, 3.0])
    vals, vecs = np.linalg.eigh(M)
    assert levi.null_basis(vals, vecs).shape == (0, 3)


# -- Schur frame transform ------------------------------------------------------------

def schur_case(rng, size, m):
    G = rng.normal(size=(size - m, size)) + 1j * rng.normal(size=(size - m, size))
    M = G.conj().T @ G
    if np.linalg.cond(M[m:, m:]) > 1e6:
        return None
    return M


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_schur_identity_and_null_containment(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 9))
    m = int(rng.integers(1, size))
    M = schur_case(rng, size, m)
    if M is None:
        return
    res = levi.schur_frame(M, m)
    target = np.zeros_like(M)
    target[:m, :m] = res.block_null
    target[m:, m:] = res.block_pos
    err = np.linalg.norm(res.Psi.conj().T @ M @ res.Psi - target)
    assert err < 1e-10 * np.linalg.norm(M)

    vals, vecs = np.linalg.eigh(M)
    kernel = vecs[:, vals < 1e-10 * max(1.0, np.abs(vals).max())]
    span = res.transformed[:m].T
    q, _ = np.linalg.qr(span)
    for k in range(kernel.shape[1]):
        b = np.conj(kernel[:, k])  # null coefficient convention
        assert np.linalg.norm(b - q @ (q.conj().T @ b)) < 1e-8


def test_schur_rejects_singular_trailing_block():
    M = np.zeros((3, 3), dtype=complex)
    M[0, 0] = 1.0
    with pytest.raises(levi.LeviError):
        levi.schur_frame(M, 1)


def test_schur_full_null_block():
    M = np.zeros((2, 2), dtype=complex)
    res = levi.schur_frame(M, 2)
    assert np.array_equal(res.Psi, np.eye(2))


def test_schur_transformed_frame_ambient_vectors():
    rng = np.random.default_rng(3)
    M = schur_case(rng, 3, 1)
    base = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    res = levi.schur_frame(M, 1, frame_vectors=base)
    expected = (base.T @ np.conj(res.Psi)).T
    assert np.abs(res.transformed - expected).max() == 0.0


# -- worm null structure ---------------------------------------------------------------

def test_worm_annulus_has_exact_null_direction():
    pts = domains.annulus_points(3 * math.pi / 4, 9)
    for p in pts:
        nd = levi.levi_matrix(p.wirt, levi.tangent_frame(p.wirt))
        assert nd.m == 1
        assert abs(nd.eigenvalues[0]) < 1e-13


def test_ball_has_no_null_directions():
    dm = domains.ball(2)
    pts = domains.boundary_sample(dm, np.zeros(4), 20, seed=4)
    for p in pts:
        nd = levi.levi_matrix(p.wirt, levi.tangent_frame(p.wirt))
        assert nd.m == 0
