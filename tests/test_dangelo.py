"""The closed-form D'Angelo forms of dangelo against their definition.

The definition is the Cartan vector-field calculus of
tests/reference.py (CartanCalculus), which may take any admissible
transversal T and tangent frame; the program evaluates the closed form in
the Wirtinger derivatives of rho (dangelo.null_forms).
"""

import cmath
import math

import numpy as np
import pytest
import reference

from dfindex import dangelo, domains, index, jets, levi
from dfindex.dangelo import DAngeloError
from dfindex.jets import Jet

BETA = 3 * math.pi / 4
BASE = jets.coords_of_point([0.0, 1.0])


def worm_point(coords=BASE, t=0.0):
    dm = domains.worm_rho(BETA, t)
    return dm, dm.boundary_point(coords)


def null_vector(dm, p):
    """The one ambient Levi-null vector at p, from the order-3 jet."""
    lb = levi.levi_batch(jets.wirtinger(dm.rho(p.coords[:, None], 3), dm.n))
    assert lb.L.shape[0] == 1
    return lb.L[0]


def closed_form(dm, p, L):
    """dangelo.null_forms at the one point p, its Wirtinger data taken once
    for each of the K vectors L, (n, K): a (K,) complex and a (K,) real
    array."""
    w = jets.wirtinger(dm.rho(p.coords[:, None], order=3), dm.n)
    return dangelo.null_forms(w.take(np.zeros(L.shape[1], int)), L)


def forms(dm, p, L):
    """(omega(L), dbar_omega(L, Lbar)) of the closed form at p for one
    vector L."""
    om, db = closed_form(dm, p, np.asarray(L, dtype=complex)[:, None])
    return complex(om[0]), float(db[0])


def ref_forms(pc, L):
    """The same from a reference.CartanCalculus at one point."""
    om, db = pc.forms(np.asarray(L, dtype=complex)[:, None])
    return complex(om[0]), float(db[0])


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
    frame = levi.levi_batch(reference.stack_wirtinger([p.wirt])).frame[0]
    for X in frame:
        assert abs(reference.eta_value(p.wirt, X)) < 1e-14 * (
            1.0 + np.linalg.norm(p.wirt.grad))


def test_transversal_jets_match_values():
    dm, p = worm_point()
    T = reference.cartan_calculus(dm, p).T
    T10, T01 = reference.transversal(p.wirt)
    for i in range(dm.n):
        assert T[i].value == pytest.approx(T10[i], abs=1e-14)
        assert T[dm.n + i].value == pytest.approx(T01[i], abs=1e-14)


# -- regression anchors ---------------------------------------------------------------

def test_omega_and_dbar_at_annulus_base_point():
    dm, p = worm_point()
    om, db = forms(dm, p, [0.0, -1.0])
    assert om == pytest.approx(-1j, abs=1e-12)
    assert abs(om) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert db == pytest.approx(0.0, abs=1e-12)


def test_dbar_vanishes_on_whole_annulus():
    dm = domains.worm_rho(BETA, 0.0)
    for p in domains.annulus_points(BETA, 17):
        L = null_vector(dm, p)
        _, db = forms(dm, p, L)
        assert abs(db) < 1e-12 * (np.linalg.norm(L) ** 2)


def test_omega_norm_positive_on_annulus():
    dm = domains.worm_rho(BETA, 0.0)
    for p in domains.annulus_points(BETA, 9):
        L = null_vector(dm, p)
        om, _ = forms(dm, p, L)
        assert abs(om) ** 2 > 0.1 * np.linalg.norm(L) ** 2


# -- invariances ------------------------------------------------------------------------

def test_invariance_under_admissible_transversal_perturbation():
    # the closed form against the definition under admissible T' = T + H - Hbar
    dm = domains.worm_rho(BETA, 0.0)
    rng = np.random.default_rng(21)
    for p in domains.annulus_points(BETA, 5):
        pc = reference.cartan_calculus(dm, p)
        L = null_vector(dm, p)
        om0, db0 = forms(dm, p, L)
        for _ in range(4):
            h = rng.normal(size=dm.n - 1) + 1j * rng.normal(size=dm.n - 1)
            Tp = reference.perturbed_transversal(pc, h)
            omp, dbp = ref_forms(reference.cartan_calculus(dm, p, T=Tp), L)
            assert omp == pytest.approx(om0, abs=1e-10)
            assert dbp == pytest.approx(db0, abs=1e-10)


def test_frame_independence():
    # the closed form against the definition in a rescaled frame
    dm, p = worm_point()
    L = null_vector(dm, p)
    _, db0 = forms(dm, p, L)
    scaled = [[1.7 * x if isinstance(x, Jet) else 0.0 for x in Y]
              for Y in reference.cartan_calculus(dm, p).frame_fields]
    _, db1 = ref_forms(reference.cartan_calculus(dm, p, frame_fields=scaled),
                       L)
    assert db1 == pytest.approx(db0, abs=1e-12)


@pytest.mark.parametrize("beta", [1.6, 2.0, 0.6 * math.pi, BETA, 1.2 * math.pi])
def test_closed_form_matches_the_cartan_calculus_on_worm_fibers(beta):
    # the base worm and the realized +-psi members of worm_psi_basis, where
    # dbar reaches 1e15, at annulus points and at their w-rotations; omega
    # within 1e-12 |omega|, dbar within 1e-12 max(|dbar|, |omega|^2)
    family = index.RhoFamily(domains.worm_rho(beta, 0.0),
                             index.worm_psi_basis(beta))
    pts = domains.annulus_points(beta, 5, family.base)
    turned = [jets.coords_of_point([p.z[0], cmath.exp(1j * th) * p.z[1]])
              for p, th in zip(pts, np.linspace(0.4, 6.0, len(pts)))]
    checked = 0
    for c in [np.zeros(family.dim), *np.eye(family.dim), *-np.eye(family.dim)]:
        dm = family.realize(c)
        for coords in [p.coords for p in pts] + turned:
            p = dm.boundary_point(coords)
            L = levi.levi_batch(jets.wirtinger(dm.rho(p.coords[:, None], 3),
                                               dm.n)).L.T
            if L.shape[1] == 0:
                continue  # a realization whose factor lifts the null eigenvalue
            checked += L.shape[1]
            om, db = closed_form(dm, p, L)
            om_ref, db_ref = reference.cartan_calculus(dm, p).forms(L)
            assert np.all(np.abs(om - om_ref) <= 1e-12 * np.abs(om_ref))
            assert np.all(np.abs(db - db_ref)
                          <= 1e-12 * np.maximum(np.abs(db_ref),
                                                np.abs(om_ref) ** 2))
    assert checked >= 6 * len(turned)


def test_sesquilinear_scaling():
    dm, p = worm_point()
    L = null_vector(dm, p)
    c = 0.7 - 1.3j
    om, db = forms(dm, p, L)
    om_c, db_c = forms(dm, p, c * L)
    assert om_c == pytest.approx(c * om, abs=1e-12)
    assert db_c == pytest.approx(abs(c) ** 2 * db, abs=1e-11)


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
        L = null_vector(base, p)
        _, db_base = forms(base, p, L)
        q = scaled.boundary_point(p.coords)
        _, db_scaled = forms(scaled, q, L)
        w = p.z[1]
        pred = db_base - 2.0 * c * abs(L[1]) ** 2 / abs(w) ** 2
        assert db_scaled == pytest.approx(pred, abs=1e-10)


# -- error paths ------------------------------------------------------------------------

def test_rejects_vector_outside_tangent_space():
    dm, p = worm_point()
    normal = np.conj(p.wirt.grad)
    with pytest.raises(DAngeloError, match="tangent space"):
        forms(dm, p, normal)
