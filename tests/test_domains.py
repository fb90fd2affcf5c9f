import math

import numpy as np
import pytest
import reference

from dfindex import domains, exprparse, index, jets

BETA = 3 * math.pi / 4
R = BETA - math.pi / 2


# -- profile function --------------------------------------------------------------

def phi_k(phi, x, k):
    """phi^(k)(x), one order of PhiSpec.derivatives."""
    return phi.derivatives(x, k, k)[0]


class TestPhi:
    def setup_method(self):
        self.phi = domains.make_phi(BETA)

    def test_interval_parameters(self):
        assert self.phi.r == pytest.approx(R)

    def test_even_and_nonnegative(self):
        xs = np.linspace(-3.0, 3.0, 801)
        for x in xs:
            assert phi_k(self.phi, x, 0) >= 0.0
            assert phi_k(self.phi, x, 0) == phi_k(self.phi, -x, 0)

    def test_convex(self):
        xs = np.linspace(-3.0, 3.0, 2001)
        assert min(phi_k(self.phi, x, 2) for x in xs) >= -1e-12

    def test_zero_set(self):
        for x in np.linspace(-R, R, 101):
            assert phi_k(self.phi, x, 0) == 0.0
        assert phi_k(self.phi, R + 0.05, 0) > 0.0
        assert phi_k(self.phi, -R - 0.05, 0) > 0.0

    def test_normalization_at_a(self):
        a = R + 1.0
        assert phi_k(self.phi, a, 0) == pytest.approx(1.0, abs=1e-10)
        assert phi_k(self.phi, a, 1) > 0.0

    def test_quadrature_cross_check(self):
        assert domains.phi_quadrature_check(self.phi) < 1e-10

    def test_quadrature_flags_a_perturbed_ramp(self, monkeypatch):
        # the rule shares no code with ramp_derivatives: a ramp off by 1e-9
        # must fail phi-check's 1e-10 gate
        ramp = domains.ramp_derivatives

        def perturbed(s, first, last):
            out = ramp(s, first, last)
            return [out[0] + 1e-9, *out[1:]] if first == 0 else out

        monkeypatch.setattr(domains, "ramp_derivatives", perturbed)
        assert domains.phi_quadrature_check(self.phi) > 1e-10

    def test_jet_evaluation_matches_pointwise(self):
        x = R + 0.35
        xj = jets.lift([[x], [0.0]], order=3)[0]
        pj = self.phi.jet(xj).take(0)
        assert pj.value == pytest.approx(phi_k(self.phi, x, 0), rel=1e-14)
        assert pj.d1[0] == pytest.approx(phi_k(self.phi, x, 1), rel=1e-12)
        assert pj.d2[0, 0] == pytest.approx(phi_k(self.phi, x, 2), rel=1e-12)
        assert pj.d3[0, 0, 0] == pytest.approx(phi_k(self.phi, x, 3),
                                               rel=1e-10)

    def test_beta_must_exceed_half_pi(self):
        with pytest.raises(domains.DomainError):
            domains.make_phi(math.pi / 2)

    def test_normalizer_is_one_over_ramp_at_one(self):
        ramp_1 = domains.ramp_derivatives(1.0, 0, 0)[0]
        assert domains.RAMP_NORMALIZER == 1.0 / ramp_1


def test_mollifier_vanishes_left_of_zero():
    # the mollifier exp(-1/s) is ramp'
    assert domains.ramp_derivatives(-1.0, 1, 1) == [0.0]
    assert domains.ramp_derivatives(0.0, 1, 2) == [0.0, 0.0]
    assert domains.ramp_derivatives(0.5, 1, 1)[0] == pytest.approx(
        math.exp(-2.0))


# ramp(u) = u exp(-1/u) - E1(1/u) at the double u, to 40 digits (mpmath);
# rows of the Chebyshev table meet at 1/32 and 0.5, the series starts at 2
RAMP_REFERENCES = [
    (1 / 700, 2.006454303077198390370281296570862044178e-310),
    (0.00390625, 1.001765132140531222345708034498967915071e-116),
    (0.01, 3.647821433880386016414071960321402190515e-48),
    (0.03125, 1.165899328668630820140479187133424125522e-17),
    (0.1, 3.830240465631611281765284391549338482447e-7),
    (0.25, 7.995573123346385945546451858438957012615e-4),
    (0.5, 1.876713091024522637975991225819267938932e-2),
    (1.0, 1.484955067759220479183599947013392184148e-1),
    (1.5, 3.717166854786080565214257708517768090449e-1),
    (1.9999999999999998, 6.532877246491059007839424198569875209515e-1),
    (2.0, 6.53287724649106035460803130667275671657e-1),
    (3.0, 1.320706186372781115156605309612663319714),
    (10.0, 7.225450221940205065561576936172535272828),
    (50.0, 4.565522588202805558053019966937817633277e+1),
]


@pytest.mark.parametrize("u, ref", RAMP_REFERENCES)
def test_ramp_matches_40_digit_references(u, ref):
    # 1/u is the rounding of -1/u inside exp, which no double formula avoids
    bound = (8.0 + 1.0 / u) * 2.0 ** -53
    for got in (domains.ramp_derivatives(u, 0, 0)[0],
                domains.ramp_derivatives(np.array([u, -u]), 0, 0)[0][0]):
        assert abs(got / ref - 1.0) <= bound


def test_ramp_derivatives_match_their_closed_forms():
    # ramp^(k+1) = exp(-1/s) times 1, 1/s^2, (1 - 2s)/s^4, (1 - 6s + 6s^2)/s^6
    s = np.array([0.05, 0.3, 0.7, 1.0, 2.5, 40.0])
    ls = np.log(s)
    closed = [np.exp(-1.0 / s),
              np.exp(-1.0 / s - 2.0 * ls),
              np.exp(-1.0 / s - 4.0 * ls) - 2.0 * np.exp(-1.0 / s - 3.0 * ls),
              np.exp(-1.0 / s - 6.0 * ls) - 6.0 * np.exp(-1.0 / s - 5.0 * ls)
              + 6.0 * np.exp(-1.0 / s - 4.0 * ls)]
    for got, want in zip(domains.ramp_derivatives(s, 1, 4), closed):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    # a later first order drops the leading entries, nothing else
    full = domains.ramp_derivatives(s, 0, 4)
    for first in range(5):
        for got, want in zip(domains.ramp_derivatives(s, first, 4),
                             full[first:]):
            assert np.array_equal(got, want)


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
        phi = domains.make_phi(beta)
        assert phi_k(phi, phi.r + 0.01, 0) > 0.0
        assert dm.value(jets.coords_of_point([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.6 * math.pi, BETA, 1.6, 2.0,
                                      1.2 * math.pi, 18.0, 30.0, 36.0])
    def test_vanishes_exactly_on_the_annulus(self, beta):
        # at z = 0, t = 0 and phi(u) = 0 every term of the expanded form is
        # an exact 0.0: no rounding of cos^2 u + sin^2 u - 1 is left over
        dm = domains.worm_rho(beta, 0.0)
        coords = np.stack([p.coords for p in domains.annulus_points(beta, 33)],
                          axis=1)
        assert dm.rho(coords, 3).value.tolist() == [0.0] * 33

    def test_interior_anchor(self):
        dm = domains.worm_rho(BETA, 0.3)
        assert dm.value(np.array([1.0, 0.0, 1.0, 0.0])) < 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_batch_gives_the_bits_of_its_columns(self, order):
        # s = |u| - r on both sides of u = 0: s <= 0, exp(-1/s) underflowing,
        # 0 < s < 1, 1 < s < 2 and the series from s = 2 on
        dm = domains.worm_rho(BETA, 0.05)
        us = [-0.3, 0.5, R + 1e-4, -R - 2e-4, R + 0.5, -R - 0.5, R + 1.5,
              -R - 1.2, R + 2.5, -R - 3.0]
        batch = np.stack([jets.coords_of_point(
            [0.2 - 0.1j, math.exp(u / 2.0) * complex(math.cos(k), math.sin(k))])
            for k, u in enumerate(us)], axis=1)
        whole = dm.rho(batch, order)
        parts = ("value", "d1", "d2", "d3")[:order + 1]
        for b in range(len(us)):
            one = dm.rho(batch[:, b], order)
            for part in parts:
                assert np.array_equal(getattr(whole, part)[..., b],
                                      getattr(one, part))


def test_ball_and_ellipsoid():
    b = domains.ball(2)
    assert b.value(jets.coords_of_point([1.0, 0.0])) == pytest.approx(0.0)
    assert b.value(jets.coords_of_point([0.5, 0.5])) == pytest.approx(-0.5)
    e = domains.ellipsoid([2.0, 0.5])
    assert e.value(jets.coords_of_point([0.0, 2.0 ** 0.5])) == pytest.approx(0.0)
    with pytest.raises(domains.DomainError):
        domains.ellipsoid([1.0, -1.0])


@pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]], [math.nan, 1.0],
                                    [math.inf, 1.0], [0.0, 1.0]])
def test_ellipsoid_rejects_coefficients(coeffs):
    with pytest.raises(domains.DomainError):
        domains.ellipsoid(coeffs)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_is_the_plain_sum_of_squares(n, order):
    # ball(n) is ellipsoid(ones): 1.0 * v is exact, so it keeps the bits of
    # x1*x1 + y1*y1 + x2*x2 + ... summed in coordinate order
    coords = np.cos(np.arange(2.0 * n * 16) + 0.3).reshape(2 * n, 16)
    xs = jets.lift(coords, order)
    want = xs[0] * xs[0]
    for x in xs[1:]:
        want = want + x * x
    want = want - 1.0
    got = domains.ball(n).rho(coords, order)
    for part in ("value", "d1", "d2", "d3")[:order + 1]:
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


# -- boundary machinery ---------------------------------------------------------------

class TestBoundarySampling:
    def test_residuals_within_tolerance(self):
        dm = domains.worm_rho(BETA, 0.1)
        pts = domains.boundary_sample(dm, np.array([1.0, 0.0, 1.0, 0.0]), 40,
                                      seed=3)
        assert len(pts) == 40
        for p in pts:
            scale = 1.0 + np.linalg.norm(p.wirt.grad)
            assert abs(p.wirt.value) <= 1e-12 * scale

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

    def test_unbounded_domain_exits_the_search_radius(self):
        # a ray into the half-space never meets re(z1) = 1 again
        dm = exprparse.parse_expression("re(z1)-1", n=2)
        with pytest.raises(domains.DomainError, match="search radius"):
            domains.boundary_sample(dm, np.zeros(4), 10)

    def test_boundary_point_rejects_off_boundary(self):
        dm = domains.ball(2)
        with pytest.raises(domains.DomainError):
            dm.boundary_point(jets.coords_of_point([0.5, 0.0]))


def _directions(seed, count, nvars):
    # as boundary_sample draws them, each ray made alone
    return [reference.ray_direction(seed, i, nvars) for i in range(count)]


@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 + 7])
@pytest.mark.parametrize("nvars", [4, 6])
def test_ray_directions_match_the_one_ray_closed_form(seed, nvars):
    got = domains._ray_directions(seed, 50, nvars)
    assert np.array_equal(got, np.array(_directions(seed, 50, nvars)).T)


def test_ray_i_does_not_depend_on_the_ray_count():
    # the benchmark re-derives an operation's first rays with a smaller count
    for seed in (0, 7):
        assert np.array_equal(domains._ray_directions(seed, 12, 4),
                              domains._ray_directions(seed, 100, 4)[:, :12])


def test_seeds_share_no_ray():
    rays = np.hstack([domains._ray_directions(seed, 100, 4)
                      for seed in range(10)])
    assert len(np.unique(rays, axis=1).T) == 1000


def test_a_seed_beyond_64_bits_gives_a_valid_design():
    d = domains._ray_directions(2 ** 64 + 7, 200, 6)
    assert d.shape == (6, 200) and np.isfinite(d).all()
    assert np.allclose(np.linalg.norm(d, axis=0), 1.0, rtol=0, atol=1e-15)
    assert len(np.unique(d, axis=1).T) == 200
    assert not np.array_equal(d, domains._ray_directions(7, 200, 6))
    with pytest.raises(domains.DomainError, match="non-negative"):
        domains.boundary_scan(domains.ball(2), np.zeros(4), 3, seed=-1)


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


def test_boundary_check_rejects_an_infinite_gradient_norm():
    # rho = 1e170 is far off the boundary, but |d'rho| = 1e185 overflows
    # in the norm, and an infinite scale would let both checks pass; the
    # tests turn the overflow's RuntimeWarning into an error
    dm = domains.ellipsoid([1.0, 1e200])
    coords = jets.coords_of_point([0.0, 1e-15])
    assert dm.value(coords) == pytest.approx(1e170)
    with pytest.raises(domains.DomainError, match="not finite"):
        dm.boundary_point(coords)


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

    def spy(xs):
        try:
            return dm.fn(xs)
        except domains.DomainError:
            raised.append(xs[0].value.shape)
            raise

    watched = domains.DomainSpec(n=2, fn=spy)
    mixed = others[:3] + singular + others[3:]
    roots = domains._ray_roots(watched, index.WORM_ANCHOR, np.array(mixed).T)
    assert (1,) in raised  # the probe on w = 0 was met and singled out
    for root, d in zip(roots, mixed):
        assert _rel_gap(root, reference.ray_root(dm, index.WORM_ANCHOR, d)) <= 1e-15
    assert roots[4][2] == pytest.approx(0.5939, abs=1e-4)
    alone = domains._ray_roots(dm, index.WORM_ANCHOR, np.array(others).T)
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

    def test_places_points_on_a_given_domain(self):
        dm = domains.worm_rho(BETA, 0.0)
        given = domains.annulus_points(BETA, 9, dm)
        built = domains.annulus_points(BETA, 9)
        assert [p.z.tolist() for p in given] == [p.z.tolist() for p in built]

    @pytest.mark.parametrize("beta", [1000.0, 1500.0])
    def test_ends_must_be_normal_doubles(self, beta):
        # e^(-r) underflows past r = 708.4 (and e^(-r/2) to 0 past 1490)
        with pytest.raises(domains.DomainError,
                           match=f"at most {domains.ANNULUS_BETA_MAX!r}"):
            domains.annulus_points(beta, 33)


def test_central_fiber_builds_phi_once(monkeypatch):
    calls = []
    make_phi = domains.make_phi

    def counted(beta, *args, **kwargs):
        calls.append(beta)
        return make_phi(beta, *args, **kwargs)

    monkeypatch.setattr(domains, "make_phi", counted)
    index.worm_fiber_report(BETA, 0.0, annulus_count=5)
    assert calls == [BETA]


def test_samples_to_csv(tmp_path):
    dm = domains.ball(2)
    scan = domains.boundary_scan(dm, np.zeros(4), 5, seed=0)
    path = tmp_path / "samples.csv"
    domains.samples_to_csv(scan, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re(z1),im(z1),re(z2),im(z2),rho_residual"
    assert len(lines) == 6
    row = [float(v) for v in lines[1].split(",")]
    assert sum(v * v for v in row[:4]) == pytest.approx(1.0)
    # each row is the point boundary_sample gives for that ray
    for line, p in zip(lines[1:], domains.boundary_sample(dm, np.zeros(4), 5)):
        want = [repr(float(getattr(z, part)))
                for z in p.z for part in ("real", "imag")]
        assert line.split(",") == want + [repr(p.wirt.value)]


ONE_POINT_DOMAINS = {
    "worm t=0": lambda: domains.worm_rho(BETA, 0.0),
    "worm t=0.05": lambda: domains.worm_rho(BETA, 0.05),
    "ball": lambda: domains.ball(2),
    "ellipsoid": lambda: domains.ellipsoid([1.0, 2.5]),
    "expression": lambda: exprparse.parse_expression(
        "1.3*abs2(z1)+0.5*re(z1*z1)+abs2(z2)-1"),
    "constant": lambda: exprparse.parse_expression("2-1", n=1),
    "conformal": lambda: index.RhoFamily(
        domains.worm_rho(BETA, 0.0),
        [*index.worm_psi_basis(BETA),
         index._log_cos_factor((1.0 - 1e-3) * math.pi / (2.0 * R), R)]
    ).realize([0.3, -0.2]),
}


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", list(ONE_POINT_DOMAINS))
def test_one_point_is_a_batch_of_one(name, order):
    # rho of one point (2n,) is column b of rho over the batch, bit for bit;
    # u = log|w|^2 covers the annulus, the blend of the two conformal
    # factors just past it (h = 3.9e-6 for worm_psi_basis's, 3.9e-4 for the
    # looser one), and beyond
    dm = ONE_POINT_DOMAINS[name]()
    us = [-1.6, -R, -0.3, 0.0, 0.5, R, R + 2e-6, R + 1e-4, 1.2]
    coords = np.stack([jets.coords_of_point(
        [0.3 * math.sin(3 * k) - 0.1j * k,
         math.exp(u / 2.0) * complex(math.cos(k), math.sin(k))])
        for k, u in enumerate(us)], axis=1)[:2 * dm.n]
    whole = dm.rho(coords, order)
    for b in range(len(us)):
        one = dm.rho(coords[:, b], order)
        assert one.order == order
        for part in ("value", "d1", "d2", "d3")[:order + 1]:
            got = getattr(whole, part)
            got = np.broadcast_to(got, got.shape[:-1] + (len(us),))[..., b]
            assert np.array_equal(got, getattr(one, part)), (b, part)
            assert got.shape == getattr(one, part).shape
