import math

import numpy as np
import pytest
import reference

from dfindex import domains, exprparse, index, jets

BETA = 3 * math.pi / 4
R = BETA - math.pi / 2


# -- profile function --------------------------------------------------------------

class TestPhi:
    def setup_method(self):
        self.phi = domains.make_phi(BETA)

    def test_interval_parameters(self):
        assert self.phi.r == pytest.approx(R)
        assert self.phi.a == pytest.approx(R + 1.0)

    def test_even_and_nonnegative(self):
        xs = np.linspace(-3.0, 3.0, 801)
        for x in xs:
            assert self.phi.value(x) >= 0.0
            assert self.phi.value(x) == self.phi.value(-x)

    def test_convex(self):
        xs = np.linspace(-3.0, 3.0, 2001)
        assert min(self.phi.d2(x) for x in xs) >= -1e-12

    def test_zero_set(self):
        for x in np.linspace(-R, R, 101):
            assert self.phi.value(x) == 0.0
        assert self.phi.value(R + 0.05) > 0.0
        assert self.phi.value(-R - 0.05) > 0.0

    def test_normalization_at_a(self):
        assert self.phi.value(self.phi.a) == pytest.approx(1.0, abs=1e-10)
        assert self.phi.d1(self.phi.a) > 0.0

    def test_quadrature_cross_check(self):
        assert domains.phi_quadrature_check(self.phi) < 1e-10

    def test_jet_evaluation_matches_pointwise(self):
        x = R + 0.35
        xj = jets.variable(x, 0, 2, order=3)
        pj = self.phi.jet(xj)
        assert pj.value == pytest.approx(self.phi.value(x), rel=1e-14)
        assert pj.d1[0] == pytest.approx(self.phi.d1(x), rel=1e-12)
        assert pj.d2[0, 0] == pytest.approx(self.phi.d2(x), rel=1e-12)
        assert pj.d3[0, 0, 0] == pytest.approx(self.phi.d3(x), rel=1e-10)

    def test_beta_must_exceed_half_pi(self):
        with pytest.raises(domains.DomainError):
            domains.make_phi(math.pi / 2)


def test_mollifier_vanishes_left_of_zero():
    assert domains.mollifier(-1.0) == 0.0
    assert domains.mollifier(0.0) == 0.0
    assert domains.mollifier_d1(0.0) == 0.0
    assert domains.mollifier(0.5) == pytest.approx(math.exp(-2.0))


# -- worm family --------------------------------------------------------------------

class TestWorm:
    def test_value_at_annulus_center(self):
        dm = domains.worm_rho(BETA, 0.0)
        assert dm.value(jets.coords_of_point([0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_deformation_shifts_value(self):
        d0 = domains.worm_rho(BETA, 0.0)
        dt = domains.worm_rho(BETA, 0.2)
        coords = jets.coords_of_point([0.1 + 0.05j, 1.1])
        assert dt.value(coords) == pytest.approx(d0.value(coords) + 0.04)

    def test_singular_at_w_axis(self):
        dm = domains.worm_rho(BETA, 0.0)
        with pytest.raises(domains.DomainError):
            dm.value(jets.coords_of_point([0.5, 0.0]))

    def test_order1_jet_is_truncated_order3_jet(self):
        # the order-1 jet skips phi'' and phi''' but must not change otherwise
        dm = domains.worm_rho(BETA, 0.1)
        for w in (1.1 - 0.2j, 3.0 + 1.0j, 0.2j):  # phi' = 0, > 0 and < 0
            coords = jets.coords_of_point([0.3 - 0.1j, w])
            low, high = dm.rho(coords, order=1), dm.rho(coords, order=3)
            assert low.order == 1
            assert low.value == high.value
            assert np.array_equal(low.d1, high.d1)

    def test_parameter_validation(self):
        with pytest.raises(domains.DomainError):
            domains.worm_rho(BETA, 1.0)

    @pytest.mark.parametrize("beta", [1.6, 1.8, 1.9, 2.1, 3.2, 0.6 * math.pi,
                                      1.2 * math.pi])
    def test_builds_where_phi_underflows_next_to_r(self, beta):
        # exp(-1/s) is 0 in floating point within about 1e-3 of r, so the
        # profile self-check must not demand phi > 0 there
        dm = domains.worm_rho(beta, 0.0)
        phi = dm.params["phi"]
        assert phi.value(phi.r + 0.01) > 0.0
        assert dm.value(jets.coords_of_point([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-15)

    def test_interior_anchor(self):
        dm = domains.worm_rho(BETA, 0.3)
        assert dm.value(np.array([1.0, 0.0, 1.0, 0.0])) < 0.0


def test_ball_and_ellipsoid():
    b = domains.ball(2)
    assert b.value(jets.coords_of_point([1.0, 0.0])) == pytest.approx(0.0)
    assert b.value(jets.coords_of_point([0.5, 0.5])) == pytest.approx(-0.5)
    e = domains.ellipsoid([2.0, 0.5])
    assert e.value(jets.coords_of_point([0.0, 2.0 ** 0.5])) == pytest.approx(0.0)
    with pytest.raises(domains.DomainError):
        domains.ellipsoid([1.0, -1.0])


# -- boundary machinery ---------------------------------------------------------------

class TestBoundarySampling:
    def test_residuals_within_tolerance(self):
        dm = domains.worm_rho(BETA, 0.1)
        pts = domains.boundary_sample(dm, np.array([1.0, 0.0, 1.0, 0.0]), 40,
                                      seed=3)
        assert len(pts) == 40
        for p in pts:
            scale = 1.0 + p.wirt.grad_norm()
            assert abs(p.jet.value) <= 1e-12 * scale

    def test_deterministic_in_seed(self):
        dm = domains.ball(2)
        a = domains.boundary_sample(dm, np.zeros(4), 10, seed=5)
        b = domains.boundary_sample(dm, np.zeros(4), 10, seed=5)
        c = domains.boundary_sample(dm, np.zeros(4), 10, seed=6)
        assert all(np.array_equal(x.coords, y.coords) for x, y in zip(a, b))
        assert not all(np.array_equal(x.coords, y.coords) for x, y in zip(a, c))

    def test_anchor_must_be_interior(self):
        dm = domains.ball(2)
        with pytest.raises(domains.DomainError):
            domains.boundary_sample(dm, np.array([2.0, 0.0, 0.0, 0.0]), 3)

    def test_boundary_point_rejects_off_boundary(self):
        dm = domains.ball(2)
        with pytest.raises(domains.DomainError):
            dm.boundary_point(jets.coords_of_point([0.5, 0.0]))


def _directions(seed, count, nvars):
    # as boundary_sample draws them
    out = []
    for i in range(count):
        d = np.random.default_rng([seed, i]).normal(size=nvars)
        out.append(d / np.linalg.norm(d))
    return out


def _rel_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", [
    "worm 0.05", "worm 0.1", "worm 0.3",
    # expression workload shapes: a pluriharmonic term, the weak quartic
    # egg, and a C^3 egg
    "1.7*abs2(z1)+0.9*re(z1*z1)+abs2(z2)-1",
    "abs2(z1)+abs2(z2)*abs2(z2)-1",
    "abs2(z1)+abs2(z2)+abs2(z3)*abs2(z3)-1",
])
def test_lockstep_roots_match_one_ray_oracle(case, seed):
    if case.startswith("worm"):
        dm = domains.worm_rho(BETA, float(case.split()[1]))
        anchor = index.WORM_ANCHOR
    else:
        dm = exprparse.parse_expression(case)
        anchor = np.zeros(2 * dm.n)
    pts = domains.boundary_sample(dm, anchor, 30, seed=seed)
    for p, d in zip(pts, _directions(seed, 30, 2 * dm.n)):
        assert _rel_gap(p.coords, reference.ray_root(dm, anchor, d)) <= 1e-15


def test_singular_probe_nudges_only_its_ray():
    # from WORM_ANCHOR, the first ray's probe at s = 2 lands exactly on w = 0;
    # the second passes through w = 0 at s = 1, past its sign change at 0.5
    singular = [np.array([-0.5, -math.sqrt(0.5), -0.5, 0.0]),
                np.array([0.0, 0.0, -1.0, 0.0])]
    # these three still probe at s = 2, alongside the first singular ray
    others = [np.array([-0.5, math.sqrt(0.5), 0.5, 0.0]),
              np.array([0.5, 0.5, 0.5, 0.5]),
              np.array([-0.3, 0.6, 0.74, 0.0]) / math.sqrt(0.9976)]
    others += _directions(4, 5, 4)
    dm = domains.worm_rho(BETA, 0.05)
    raised = []

    def spy(coords, order=3):
        try:
            return dm.eval_fn(coords, order)
        except domains.DomainError:
            raised.append(coords.shape)
            raise

    watched = domains.DomainSpec(n=2, kind="worm", eval_fn=spy)
    mixed = others[:3] + singular + others[3:]
    roots = domains._ray_roots(watched, index.WORM_ANCHOR,
                               np.array(mixed).T, domains.SEARCH_RADIUS)
    assert (4, 1) in raised  # the probe on w = 0 was met and singled out
    for root, d in zip(roots, mixed):
        assert _rel_gap(root, reference.ray_root(dm, index.WORM_ANCHOR, d)) <= 1e-15
    assert roots[4][2] == pytest.approx(0.5939, abs=1e-4)
    alone = domains._ray_roots(dm, index.WORM_ANCHOR, np.array(others).T,
                               domains.SEARCH_RADIUS)
    assert np.array_equal(np.delete(roots, [3, 4], axis=0), alone)


class TestAnnulusPoints:
    def test_geometry(self):
        pts = domains.annulus_points(BETA, 33)
        assert len(pts) == 33
        for p in pts:
            assert abs(p.z[0]) == 0.0
            u = math.log(abs(p.z[1]) ** 2)
            assert abs(u) <= R + 1e-12
        us = sorted(math.log(abs(p.z[1]) ** 2) for p in pts)
        assert us[0] == pytest.approx(-R)
        assert us[-1] == pytest.approx(R)

    def test_includes_base_point(self):
        pts = domains.annulus_points(BETA, 9)
        assert any(abs(p.z[1] - 1.0) < 1e-15 for p in pts)


def test_samples_to_csv(tmp_path):
    dm = domains.ball(2)
    pts = domains.boundary_sample(dm, np.zeros(4), 5, seed=0)
    path = tmp_path / "samples.csv"
    domains.samples_to_csv(pts, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re(z1),im(z1),re(z2),im(z2),rho_residual"
    assert len(lines) == 6
    row = [float(v) for v in lines[1].split(",")]
    assert sum(v * v for v in row[:4]) == pytest.approx(1.0)
