import math

import numpy as np
import pytest
import reference

from dfindex import dangelo, domains, jets, levi
from dfindex.dangelo import DAngeloError, PointCalculus
from dfindex.jets import Jet

BETA = 3 * math.pi / 4
BASE = jets.coords_of_point([0.0, 1.0])


def worm_point(coords=BASE, t=0.0):
    dm = domains.worm_rho(BETA, t)
    return dm, dm.boundary_point(coords)


def null_vector(pc):
    coeffs = levi.levi_matrix(pc.wirt, pc.frame).null_coeffs
    assert coeffs.shape[0] == 1
    return pc.ambient_null_vector(coeffs[0])


# -- canonical fields ----------------------------------------------------------------

def test_transversal_normalization_and_imaginarity():
    dm, p = worm_point()
    T10, T01 = reference.transversal(p.wirt)
    assert reference.eta_value(p.wirt, T10, T01) == pytest.approx(1.0)
    # T = N - Nbar is purely imaginary: (0,1) part is minus the conjugate
    assert np.abs(T01 + np.conj(T10)).max() == 0.0
    # real part of d rho(T) vanishes
    drho = p.wirt.grad @ T10 + np.conj(p.wirt.grad) @ T01
    assert abs(drho.real) < 1e-15


def test_eta_annihilates_tangent_vectors():
    dm = domains.worm_rho(BETA, 0.2)
    p = domains.boundary_sample(dm, np.array([1.0, 0.0, 1.0, 0.0]), 1, seed=8)[0]
    pc = PointCalculus(dm, p)
    for X in pc.frame.basis:
        assert abs(reference.eta_value(p.wirt, X)) < 1e-14 * (1.0 + p.wirt.grad_norm())


def test_transversal_jets_match_values():
    dm, p = worm_point()
    pc = PointCalculus(dm, p)
    T = pc.transversal_jets()
    T10, T01 = reference.transversal(p.wirt)
    for i in range(dm.n):
        assert T[i].value == pytest.approx(T10[i], abs=1e-14)
        assert T[dm.n + i].value == pytest.approx(T01[i], abs=1e-14)


# -- regression anchors ---------------------------------------------------------------

def test_omega_and_dbar_at_annulus_base_point():
    dm, p = worm_point()
    L = np.array([0.0, -1.0], dtype=complex)
    om = dangelo.omega_on_null(dm, p, L)
    assert om == pytest.approx(-1j, abs=1e-12)
    assert abs(om) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert dangelo.dbar_omega(dm, p, L) == pytest.approx(0.0, abs=1e-12)


def test_dbar_vanishes_on_whole_annulus():
    dm = domains.worm_rho(BETA, 0.0)
    for p in domains.annulus_points(BETA, 17):
        pc = PointCalculus(dm, p)
        L = null_vector(pc)
        assert abs(dangelo.dbar_omega(dm, pc, L)) < 1e-12 * (np.linalg.norm(L) ** 2)


def test_omega_norm_positive_on_annulus():
    dm = domains.worm_rho(BETA, 0.0)
    for p in domains.annulus_points(BETA, 9):
        pc = PointCalculus(dm, p)
        L = null_vector(pc)
        om = dangelo.omega_on_null(dm, pc, L)
        assert abs(om) ** 2 > 0.1 * np.linalg.norm(L) ** 2


# -- invariances ------------------------------------------------------------------------

def test_invariance_under_admissible_transversal_perturbation():
    dm = domains.worm_rho(BETA, 0.0)
    rng = np.random.default_rng(21)
    for p in domains.annulus_points(BETA, 5):
        pc = PointCalculus(dm, p)
        L = null_vector(pc)
        om0 = dangelo.omega_on_null(dm, pc, L)
        db0 = dangelo.dbar_omega(dm, pc, L)
        for _ in range(4):
            h = rng.normal(size=dm.n - 1) + 1j * rng.normal(size=dm.n - 1)
            Tp = reference.perturbed_transversal(pc, h)
            omp = dangelo.omega_on_null(dm, pc, L, T=Tp)
            dbp = dangelo.dbar_omega(dm, pc, L, T=Tp)
            assert omp == pytest.approx(om0, abs=1e-10)
            assert dbp == pytest.approx(db0, abs=1e-10)


def test_frame_independence():
    dm, p = worm_point()
    pc = PointCalculus(dm, p)
    L = null_vector(pc)
    db0 = dangelo.dbar_omega(dm, pc, L)
    scaled = [[1.7 * x if isinstance(x, Jet) else 0.0 for x in Y]
              for Y in pc.frame_field_jets()]
    db1 = dangelo.dbar_omega(dm, pc, L, frame_jets=scaled)
    assert db1 == pytest.approx(db0, abs=1e-12)


def test_sesquilinear_scaling():
    dm, p = worm_point()
    pc = PointCalculus(dm, p)
    L = null_vector(pc)
    c = 0.7 - 1.3j
    om = dangelo.omega_on_null(dm, pc, L)
    db = dangelo.dbar_omega(dm, pc, L)
    assert dangelo.omega_on_null(dm, pc, c * L) == pytest.approx(c * om, abs=1e-12)
    assert dangelo.dbar_omega(dm, pc, c * L) == pytest.approx(abs(c) ** 2 * db,
                                                              abs=1e-11)


# -- sign convention guard ----------------------------------------------------------------

def scaled_worm(c):
    """Defining function e^{c u^2} rho for the base worm, u = log|w|^2."""
    base = domains.worm_rho(BETA, 0.0)

    def ev(coords, order=3):
        xs = jets.lift(coords, order)
        u = jets.log(xs[2] * xs[2] + xs[3] * xs[3])
        return jets.exp((c * u) * u) * base.rho(coords, order)

    return domains.DomainSpec(n=2, kind="custom", params={"c": c}, eval_fn=ev)


@pytest.mark.parametrize("c", [0.3, -0.25])
def test_conformal_shift_pins_sign(c):
    # replacing rho by e^psi rho shifts dbar_omega(L, Lbar) by exactly
    # -Hess_psi(L, Lbar); for psi = c u^2 that is -2c |L_w|^2 / |w|^2
    base = domains.worm_rho(BETA, 0.0)
    scaled = scaled_worm(c)
    for p in domains.annulus_points(BETA, 7):
        pc = PointCalculus(base, p)
        L = null_vector(pc)
        db_base = dangelo.dbar_omega(base, pc, L)
        q = scaled.boundary_point(p.coords)
        db_scaled = dangelo.dbar_omega(scaled, q, L)
        w = p.z[1]
        pred = db_base - 2.0 * c * abs(L[1]) ** 2 / abs(w) ** 2
        assert db_scaled == pytest.approx(pred, abs=1e-10)


# -- error paths ------------------------------------------------------------------------

def test_rejects_non_null_vector():
    dm = domains.worm_rho(BETA, 0.3)  # strictly pseudoconvex: no null vectors
    p = domains.boundary_sample(dm, np.array([1.0, 0.0, 1.0, 0.0]), 1, seed=1)[0]
    pc = PointCalculus(dm, p)
    with pytest.raises(DAngeloError):
        dangelo.dbar_omega(dm, pc, pc.frame.basis[0])


def test_rejects_wrong_length_vector():
    dm, p = worm_point()
    pc = PointCalculus(dm, p)
    with pytest.raises(DAngeloError):
        dangelo.dbar_omega(dm, pc, np.array([1.0, 0.0, 0.0]))


def test_rejects_vector_outside_tangent_space():
    dm, p = worm_point()
    pc = PointCalculus(dm, p)
    normal = np.conj(pc.wirt.grad)
    with pytest.raises(DAngeloError):
        dangelo.omega_on_null(dm, pc, normal)
