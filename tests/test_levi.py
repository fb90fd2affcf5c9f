import math

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfindex import domains, exprparse, jets, levi


def batch(points):
    """levi_batch over the points' own (order-2) Wirtinger data."""
    return levi.levi_batch(reference.stack_wirtinger([p.wirt for p in points]))


def wirtinger_batch(grads, hesses):
    """Batched Wirtinger data from per-point gradients and mixed Hessians."""
    grads = np.array(grads, dtype=complex)
    return jets.WirtingerData(n=grads.shape[1], value=np.zeros(len(grads)),
                              grad=grads.T,
                              hess_mixed=np.moveaxis(np.array(hesses,
                                                              dtype=complex),
                                                     0, -1))


def frame_matrix(M):
    """Wirtinger data of one point whose frame Levi matrix is M: with
    grad = e_0 the pivot is 0 and the frame rows are e_1 .. e_{n-1}."""
    n = M.shape[0] + 1
    H = np.zeros((n, n), dtype=complex)
    H[0, 0] = 1.0
    H[1:, 1:] = M
    return wirtinger_batch([np.eye(n)[0]], [H])


# -- tangent frames ------------------------------------------------------------------

def test_tangent_frame_annihilates_gradient():
    dm = domains.worm_rho(3 * math.pi / 4, 0.2)
    pts = domains.boundary_sample(dm, np.array([1.0, 0.0, 1.0, 0.0]), 25,
                                  seed=9)
    lb = batch(pts)
    assert lb.frame.shape == (25, dm.n - 1, dm.n)
    for p, frame in zip(pts, lb.frame):
        for X in frame:
            assert abs(p.wirt.grad @ X) < 1e-12 * (
                1.0 + np.linalg.norm(p.wirt.grad) ** 2)
        assert np.linalg.matrix_rank(frame) == dm.n - 1


def test_levi_matrix_hermitian_and_psd_on_worm():
    dm = domains.worm_rho(3 * math.pi / 4, 0.1)
    pts = domains.boundary_sample(dm, np.array([1.0, 0.0, 1.0, 0.0]), 40,
                                  seed=2)
    lb = batch(pts)
    for M, vals, scale in zip(lb.M, lb.eigenvalues, lb.scale):
        assert np.abs(M - M.conj().T).max() < 1e-13 * scale
        assert vals[0] > -1e-10 * scale  # pseudoconvex side


def test_levi_matrix_rejects_non_hermitian():
    # the first point is fine; the second has M = 1 + 1j
    w = wirtinger_batch([[1.0, 0.5], [1.0, 1.0]],
                        [np.eye(2), np.diag([1.0, 1.0j])])
    with pytest.raises(levi.LeviError, match="not Hermitian"):
        levi.levi_batch(w)


@pytest.mark.parametrize("entry", [1e160, math.nan])
def test_levi_matrix_rejects_non_finite(entry):
    # the second point's M = |g|^2 H overflows (1e160^3), or is NaN, whose
    # Hermitian defect NaN > tol would not catch; the tests turn the
    # overflow's RuntimeWarning into an error, so levi_batch must not warn
    w = wirtinger_batch([[1.0, 0.5], [1.0, entry]],
                        [np.eye(2), entry * np.eye(2)])
    with pytest.raises(levi.LeviError, match="not finite"):
        levi.levi_batch(w)


def test_levi_batch_rejects_vanishing_gradient():
    w = wirtinger_batch([[1.0, 0.0], [0.0, 0.0]], [np.eye(2), np.eye(2)])
    with pytest.raises(levi.LeviError, match="vanishing"):
        levi.levi_batch(w)


def test_null_basis_convention():
    # M conj(a) = 0 for returned coefficient vectors a
    rng = np.random.default_rng(12)
    G = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    M = G.conj().T @ G
    lb = levi.levi_batch(frame_matrix(M))
    assert lb.coeffs.shape == (2, 4)
    assert lb.point.tolist() == [0, 0]
    for a, L in zip(lb.coeffs, lb.L):
        assert np.linalg.norm(M @ np.conj(a)) < 1e-12
        assert np.array_equal(L, np.concatenate([[0.0], a]))


def test_null_basis_empty_for_definite_matrix():
    lb = levi.levi_batch(frame_matrix(np.diag([1.0, 2.0, 3.0])))
    assert lb.coeffs.shape == (0, 3)
    assert lb.L.shape == (0, 4) and lb.point.size == 0


@pytest.mark.parametrize("text, zs, pivots, null_count", [
    # C^3 ellipsoid: one point per pivot, no null directions
    ("abs2(z1)+2*abs2(z2)+3*abs2(z3)-1",
     [[1.0, 0.0, 0.0], [0.0, 2 ** -0.5, 0.0], [0.0, 0.0, 3 ** -0.5]],
     [0, 1, 2], 0),
    # the |z2|^8 egg, weak on {z2 = 0}
    ("abs2(z1)+abs2(z2)*abs2(z2)*abs2(z2)*abs2(z2)-1",
     [[1.0, 0.0], [0.0, 1.0], [np.exp(2j), 0.0]], [0, 1], 2),
    # two null directions at z = (e^i, 0, 0), one at each other axis point
    ("abs2(z1)+abs2(z2)*abs2(z2)+abs2(z3)*abs2(z3)-1",
     [[np.exp(1j), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1j]],
     [0, 1, 2], 4),
])
def test_levi_batch_matches_each_point(text, zs, pivots, null_count):
    # every point of a mixed-pivot batch, bit for bit against the frame,
    # X H X^H, eigh and null-space QR computed for that point alone
    dm = exprparse.parse_expression(text)
    pts = [dm.boundary_point(jets.coords_of_point(z)) for z in zs]
    pts += domains.boundary_sample(dm, np.zeros(2 * dm.n), 5, seed=3)
    lb = batch(pts)
    assert sorted(set(lb.pivot.tolist())) == pivots
    assert lb.point.size == null_count
    assert np.all(np.diff(lb.point) >= 0)  # point order, then direction order
    n = pts[0].wirt.n
    for b, p in enumerate(pts):
        grad, H = p.wirt.grad, p.wirt.hess_mixed
        k = int(np.argmax(np.abs(grad)))
        X = np.zeros((n - 1, n), dtype=complex)
        for row, j in enumerate(j for j in range(n) if j != k):
            X[row, j] = grad[k]
            X[row, k] = -grad[j]
        M = X @ H @ X.conj().T
        M = 0.5 * (M + M.conj().T)
        vals, vecs = np.linalg.eigh(M)
        scale = max(1.0, np.abs(vals).max())
        assert lb.pivot[b] == k
        assert np.array_equal(lb.frame[b], X)
        assert np.array_equal(lb.M[b], M)
        assert np.array_equal(lb.eigenvalues[b], vals)
        assert lb.scale[b] == scale
        null = vals < levi.NULL_TOL * scale
        mine = lb.point == b
        assert mine.sum() == null.sum()
        if null.any():
            coeffs = np.linalg.qr(vecs[:, null])[0].conj().T
            assert np.array_equal(lb.coeffs[mine], coeffs)
            assert np.array_equal(lb.L[mine], np.array([a @ X for a in coeffs]))


# -- Schur frame transform ------------------------------------------------------------

def schur_case(rng, size, m):
    G = rng.normal(size=(size - m, size)) + 1j * rng.normal(size=(size - m, size))
    M = G.conj().T @ G
    if np.linalg.cond(M[m:, m:]) > 1e6:
        return None
    return M


@given(st.integers(0, 2 ** 32 - 1))
@example(8159)  # size 3, cond(C) 7.3e4: |C^{-1}| = 6674 exceeds |M| = 15.5
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
    # the residual scales with the larger of M and its target's C^{-1}
    assert err < 1e-10 * max(np.linalg.norm(M), np.linalg.norm(res.block_pos))

    vals, vecs = np.linalg.eigh(M)
    kernel = vecs[:, vals < 1e-10 * max(1.0, np.abs(vals).max())]
    q, _ = np.linalg.qr(np.conj(res.Psi[:, :m]))  # transformed frame vectors
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


# -- worm null structure ---------------------------------------------------------------

def test_worm_annulus_has_exact_null_direction():
    lb = batch(domains.annulus_points(3 * math.pi / 4, 9))
    assert lb.point.tolist() == list(range(9))
    assert np.all(np.abs(lb.eigenvalues[:, 0]) < 1e-13)


def test_ball_has_no_null_directions():
    dm = domains.ball(2)
    lb = batch(domains.boundary_sample(dm, np.zeros(4), 20, seed=4))
    assert lb.point.size == 0 and lb.L.shape == (0, 2)
