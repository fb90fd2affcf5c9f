import cmath
import json
import math

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex import domains, exprparse, index, jets, levi

BETA = 3 * math.pi / 4


def sample(dbar, msq):
    return index.CriterionSample(point=None, L=np.array([0.0, 1.0]),
                                 dbar=dbar, msq=msq)


# -- closed-form aggregation ---------------------------------------------------------

def test_bound_examples():
    assert index.df_bound([]) == 1.0
    assert index.s_bound([]) == 1.0
    assert index.df_bound([sample(1.0, 1.0)]) == pytest.approx(0.5)
    assert index.df_bound([sample(-1.0, 1.0)]) == 0.0
    assert index.df_bound([sample(0.0, 1.0)]) == 0.0
    assert index.s_bound([sample(-2.0, 1.0)]) == pytest.approx(2.0)
    assert index.s_bound([sample(1.0, 1.0)]) == math.inf
    assert index.s_bound([sample(-1.0, 1.0)]) == math.inf  # ratio exactly 1


def test_bound_degenerate_msq():
    assert index.df_bound([sample(2.0, 0.0)]) == 1.0
    assert index.df_bound([sample(-2.0, 0.0)]) == 0.0
    assert index.df_bound([sample(0.0, 0.0)]) == 0.0
    assert index.s_bound([sample(-2.0, 0.0)]) == 1.0
    assert index.s_bound([sample(2.0, 0.0)]) == math.inf
    # eps scales with |dbar|: huge dbar with tiny honest msq is degenerate
    assert index.df_bound([sample(1e12, 1e3 * index.MSQ_EPS)]) == 1.0


def test_sample_validation():
    with pytest.raises(ValueError):
        sample(math.nan, 1.0)
    with pytest.raises(ValueError):
        sample(1.0, -1e-3)


@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0.1, 3)), max_size=8),
       st.tuples(st.floats(-3, 3), st.floats(0.1, 3)))
@settings(max_examples=100, deadline=None)
def test_bounds_monotone_in_samples(pairs, extra):
    samples = [sample(d, m) for d, m in pairs]
    more = samples + [sample(*extra)]
    assert index.df_bound(more) <= index.df_bound(samples)
    assert index.s_bound(more) >= index.s_bound(samples)


# -- gamma-bisection oracle ------------------------------------------------------------

def df_admissible(samples, gamma):
    k = gamma / (1.0 - gamma)
    return all(s.dbar - k * s.msq > 0.0 for s in samples)


def s_admissible(samples, gamma):
    k = gamma / (gamma - 1.0)
    return all(-s.dbar - k * s.msq > 0.0 for s in samples)


def df_by_bisection(samples, iters=60):
    if not df_admissible(samples, 0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if df_admissible(samples, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

def s_by_bisection(samples, iters=120):
    hi = 1e15
    if not s_admissible(samples, hi):
        return math.inf
    lo = 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if s_admissible(samples, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_bisection_oracle_agreement():
    rng = np.random.default_rng(77)
    for _ in range(100):
        k = rng.integers(1, 9)
        dbars = rng.uniform(-3.0, 3.0, size=k)
        msqs = rng.uniform(0.2, 3.0, size=k)
        samples = [sample(d, m) for d, m in zip(dbars, msqs)]

        df = index.df_bound(samples)
        oracle = df_by_bisection(samples)
        assert abs(df - oracle) < 1e-12

        sb = index.s_bound(samples)
        oracle = s_by_bisection(samples)
        if sb == math.inf:
            assert oracle == math.inf
        else:
            assert abs(sb - oracle) < 1e-10 * max(1.0, sb)


def test_bisection_oracle_steep_cases():
    # ratios just above 1 give large but finite Steinness bounds
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = rng.integers(1, 5)
        msqs = rng.uniform(0.5, 2.0, size=k)
        ratios = rng.uniform(1.001, 1.2, size=k)
        samples = [sample(-r * m, m) for r, m in zip(ratios, msqs)]
        sb = index.s_bound(samples)
        assert sb < math.inf
        assert abs(sb - s_by_bisection(samples)) < 1e-9 * sb


# -- conformal family -----------------------------------------------------------------

class TestRhoFamily:
    def setup_method(self):
        self.base = domains.worm_rho(BETA, 0.0)
        self.family = index.RhoFamily(self.base, index.worm_psi_basis())

    def test_zero_params_return_base(self):
        assert self.family.realize(np.zeros(self.family.dim)) is self.base

    def test_realized_value_matches_manual_product(self):
        params = np.zeros(self.family.dim)
        params[0], params[1], params[2] = 0.3, -0.2, 0.1
        realized = self.family.realize(params)
        coords = jets.coords_of_point([0.2 + 0.1j, 1.1 - 0.2j])
        psi = sum(c * psi_fn(coords, 3).value
                  for c, psi_fn in zip(params, self.family.psi_basis))
        assert realized.value(coords) == pytest.approx(
            math.exp(psi) * self.base.value(coords), rel=1e-13)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            self.family.realize(np.zeros(self.family.dim + 1))
        with pytest.raises(ValueError):
            self.family.realize([math.inf] + [0.0] * (self.family.dim - 1))

    def test_check_defining_passes_on_probes(self):
        probes = [jets.coords_of_point([0.0, 1.0]),
                  jets.coords_of_point([0.1, 1.2]),
                  np.array([1.0, 0.0, 1.0, 0.0])]
        params = 0.2 * np.ones(self.family.dim)
        self.family.check_defining(params, probes)

    def test_check_defining_detects_sign_flip(self):
        bad = index.RhoFamily(
            self.base, [lambda coords, order=3: jets.constant(1.0, 4, order)])

        # negate instead of scaling: not a conformal factor
        def flip_ev(coords, order=3):
            return -1.0 * self.base.rho(coords, order)

        bad.realize = lambda params: domains.DomainSpec(
            n=2, kind="custom", params={}, eval_fn=flip_ev)
        with pytest.raises(domains.DomainError):
            bad.check_defining([1.0], [np.array([1.0, 0.0, 1.0, 0.0])])

    def test_blended_factors_stay_finite_and_defining(self):
        # past the annulus each factor blends to 0 before log cos(kappa u)
        # ceases to exist; order-3 jets stay finite across the blend
        rng = np.random.default_rng(11)
        probes = []
        for u in rng.uniform(-1.5, 1.5, size=200):
            w = math.exp(u / 2.0) * complex(math.cos(u), math.sin(u))
            probes.append(jets.coords_of_point([rng.normal(scale=0.3), w]))
        for c in np.eye(self.family.dim):
            self.family.check_defining(c, probes)
            self.family.check_defining(-c, probes)
        for psi in self.family.psi_basis:
            for coords in probes:
                j = psi(coords, 3)
                assert np.isfinite(j.value) and np.all(np.isfinite(j.d3))

    def test_check_defining_rejects_non_finite_values(self):
        # the unblended factor is NaN past |u| = pi/(2 kappa) = 0.785
        kappa = 1.99998

        def raw_log_cos(coords, order=3):
            x1, y1, x2, y2 = jets.lift(coords, order)
            u = jets.log(x2 * x2 + y2 * y2)
            return (1.0 / kappa) * jets.log(jets.cos(kappa * u))

        raw = index.RhoFamily(self.base, [raw_log_cos])
        probe = jets.coords_of_point([0.1, math.exp(0.6)])  # u = 1.2
        with np.errstate(invalid="ignore"):
            assert math.isnan(raw.realize([1.0]).value(probe))
            with pytest.raises(domains.DomainError):
                raw.check_defining([1.0], [probe])


def ratios(samples):
    return np.array([s.dbar / s.msq for s in samples])


def test_conformal_law_matches_realized_samples():
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 9)
    law = index.conformal_law(family, pts)
    assert len(law.samples) == 9
    rng = np.random.default_rng(3)
    for _ in range(3):
        c = rng.normal(size=family.dim)
        realized = ratios(index.criterion_samples(family.realize(c), pts))
        predicted = ratios(law.predicted_samples(c))
        assert np.abs(predicted - realized).max() <= 1e-12 * np.abs(realized).max()


def test_conformal_law_pins_sign_of_omega_shift():
    # on the annulus d'psi(L) is orthogonal to omega0 for every psi of
    # log|w|^2, so both signs of the shift give the same |omega|^2; at real
    # w, d'(Im w)(L) = -i L_w / 2 is parallel to omega0 = i L_w / w.  Im w is
    # pluriharmonic, so a function of log|w|^2 supplies a nonzero dbar.
    def im_w(coords, order=3):
        return jets.lift(coords, order)[3]

    basis = [im_w, index.worm_psi_basis()[1]]
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), basis)
    pts = [p for p in domains.annulus_points(BETA, 9) if p.z[1].imag == 0.0]
    assert len(pts) == 9
    law = index.conformal_law(family, pts)
    c = np.array([0.7, 0.5])
    realized = ratios(index.criterion_samples(family.realize(c), pts))
    dbar, omega = law.predict(c)
    plus = dbar / np.abs(omega) ** 2
    minus = dbar / np.abs(law.omega0 - c @ law.A) ** 2
    tol = 1e-12 * np.abs(realized).max()
    assert np.abs(plus - realized).max() <= tol
    assert np.abs(minus - realized).max() > 1e3 * tol


# -- criterion sampling ------------------------------------------------------------------

def test_criterion_samples_empty_for_ball():
    dm = domains.ball(2)
    pts = domains.boundary_sample(dm, np.zeros(4), 15, seed=2)
    assert index.criterion_samples(dm, pts) == []


def test_criterion_samples_on_worm_annulus():
    dm = domains.worm_rho(BETA, 0.0)
    pts = domains.annulus_points(BETA, 9)
    samples = index.criterion_samples(dm, pts)
    assert len(samples) == 9
    for s in samples:
        assert s.msq > 0.1
        assert abs(s.dbar) < 1e-12
    assert index.df_bound(samples) == 0.0
    assert index.s_bound(samples) == math.inf


def _forms(domain, points):
    samples = index.criterion_samples(domain, points)
    return (np.array([s.dbar for s in samples]),
            np.array([s.msq for s in samples]))


def _wsq(p):
    # |w|^2 as the worm computes it, before its logarithm
    return p.coords[2] * p.coords[2] + p.coords[3] * p.coords[3]


@pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
def test_criterion_samples_are_invariant_under_rotation_of_w(c):
    # the worm and every factor of worm_psi_basis depend on w only through
    # |w|, which is why annulus_points puts every point at real w.  Rotating
    # w can round |w|^2 one ulp away; at the annulus ends the tightest
    # factor's e^{2 psi}, common to dbar and |omega|^2, amplifies that to
    # about 1e-10 relative.  So dbar and |omega|^2 are compared where |w|^2
    # is unchanged, and their ratio, which is all the bounds read, everywhere.
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    dm = family.realize(c * np.eye(family.dim)[0])
    pts = domains.annulus_points(BETA, 9)
    dbar, msq = _forms(dm, pts)
    scale = np.abs(dbar) + msq
    for theta in (0.7, 2.0, -2.9):
        turned = [dm.boundary_point(jets.coords_of_point(
            [p.z[0], cmath.exp(1j * theta) * p.z[1]])) for p in pts]
        same = np.array([_wsq(q) == _wsq(p) for p, q in zip(pts, turned)])
        assert same.sum() >= 3
        d, m = _forms(dm, turned)
        assert np.all(np.abs(d / m - dbar / msq) <= 1e-12 * scale / msq)
        assert np.all(np.abs(d - dbar)[same] <= 1e-12 * scale[same])
        assert np.all(np.abs(m - msq)[same] <= 1e-12 * msq[same])


def assert_match_reference(domain, points):
    # same count and order as the per-point oracle, forms within 1e-12
    got = index.criterion_samples(domain, points)
    want = reference.criterion_samples(domain, points)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert g.point is w.point
        assert np.array_equal(g.L, w.L)
        assert abs(g.dbar - w.dbar) <= 1e-12 * max(abs(w.dbar), 1e-300)
        assert abs(g.omega - w.omega) <= 1e-12 * max(abs(w.omega), 1e-300)
    return got


def test_criterion_samples_match_per_point_oracle_on_the_annulus():
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 33)
    for c in [np.zeros(family.dim), *np.eye(family.dim), *-np.eye(family.dim)]:
        assert len(assert_match_reference(family.realize(c), pts)) == 33


# a conformal factor keeps the zero set and the null directions but makes
# omega and dbar nonzero, so the comparison is not between zeros
FACTOR3 = "exp(0.5*re(z2)+0.3*im(z3)+0.7*abs2(z2)+0.2*abs2(z2+z3)+0.1*re(z1))"
FACTOR2 = "exp(0.4*re(z1)+0.6*im(z2)+0.5*abs2(z1)+0.3*abs2(z1+z2))"


@pytest.mark.parametrize("factor", ["", FACTOR3 + "*"])
def test_criterion_samples_match_oracle_on_a_two_dimensional_null_space(factor):
    dm = exprparse.parse_expression(
        factor + "(abs2(z1)+abs2(z2)*abs2(z2)+abs2(z3)*abs2(z3)-1)")
    pts = [dm.boundary_point(jets.coords_of_point([np.exp(1j * t), 0.0, 0.0]))
           for t in (0.0, 1.0, 2.5)]
    samples = assert_match_reference(dm, pts)
    # two null directions per point, point order first
    assert [s.point for s in samples] == [p for p in pts for _ in range(2)]


@pytest.mark.parametrize("factor", ["", FACTOR2 + "*"])
def test_criterion_samples_match_oracle_across_pivot_groups(factor):
    dm = exprparse.parse_expression(
        factor + "(abs2(z1)*abs2(z1)+abs2(z2)*abs2(z2)-1)")
    zs = ([0, 1], [1, 0], [0, np.exp(0.7j)], [np.exp(2j), 0], [0, -1j])
    pts = [dm.boundary_point(jets.coords_of_point(z)) for z in zs]
    pivots = [levi.tangent_frame(p.wirt).pivot for p in pts]
    assert pivots == [1, 0, 1, 0, 1]
    samples = assert_match_reference(dm, pts)
    assert [s.point for s in samples] == pts


@pytest.mark.parametrize("order", [1, 2, 3])
def test_log_cos_factor_batch_matches_each_point(order):
    # the three u-regions of the factor: log cos, the blend to 0, and 0
    r0 = BETA - math.pi / 2
    kappa = (1.0 - index.LOG_COS_GAPS[-1]) * math.pi / (2.0 * r0)
    h = 0.5 * (0.5 * math.pi / kappa - r0)
    fn = index._log_cos_factor(kappa, r0)
    us = np.concatenate([np.linspace(-r0, r0, 9),
                         r0 + h * np.array([0.1, 0.5, 0.9, 1.5, 3.0]),
                         -r0 - h * np.array([0.2, 0.7, 1.0, 2.0]), [1.2, -2.0]])
    rng = np.random.default_rng(4)
    ws = np.exp(us / 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi, us.size))
    coords = np.array([jets.coords_of_point([0.1 * k, w])
                       for k, w in enumerate(ws)]).T
    a = np.abs(np.log(coords[2] ** 2 + coords[3] ** 2))
    assert (a <= r0).sum() >= 9 and ((a > r0) & (a < r0 + h)).sum() >= 4
    assert (a >= r0 + h).sum() >= 5
    batch = fn(coords, order)
    for k in range(us.size):
        one = fn(coords[:, k], order)
        assert batch.value[k] == one.value
        for part in ("d1", "d2", "d3")[:order]:
            assert np.array_equal(getattr(batch, part)[..., k],
                                  getattr(one, part))


# -- reports -----------------------------------------------------------------------------

def test_report_invariants():
    with pytest.raises(ValueError):
        index.IndexReport(df_lower=0.5, s_upper=2.0, null_count=0, spc=True,
                          t=0.1, beta=BETA, seed=0)
    with pytest.raises(ValueError):
        index.IndexReport(df_lower=1.5, s_upper=2.0, null_count=1, spc=False,
                          t=0.0, beta=BETA, seed=0)
    with pytest.raises(ValueError):
        index.IndexReport(df_lower=0.5, s_upper=0.5, null_count=1, spc=False,
                          t=0.0, beta=BETA, seed=0)


def test_report_serialization():
    rep = index.IndexReport(df_lower=0.5, s_upper=math.inf, null_count=3,
                            spc=False, t=0.0, beta=math.nan, seed=4,
                            best_params={"df": np.array([0.1, 0.2])})
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["s_upper"] == "inf"
    assert data["beta"] is None
    assert data["schema_version"] == index.SCHEMA_VERSION
    assert data["best_params"]["df"] == [0.1, 0.2]


# -- optimization and the sweep -------------------------------------------------------------

def test_spc_check_ball_and_deformed_worm():
    weak, min_eig = index.spc_check(domains.ball(2), np.zeros(4), 60, 1)
    assert weak == [] and min_eig > index.SPC_THRESHOLD
    assert min_eig > 0.1
    weak, min_eig = index.spc_check(domains.worm_rho(BETA, 0.3),
                                    index.WORM_ANCHOR, 60, 1)
    assert weak == [] and min_eig > index.SPC_THRESHOLD


def test_optimize_rho_improves_on_base():
    dm = domains.worm_rho(BETA, 0.0)
    family = index.RhoFamily(dm, index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 5)
    rep = index.optimize_rho(family, pts, seed=0, beta=BETA)
    assert rep.null_count == 5
    assert not rep.spc
    assert rep.df_lower >= rep.diagnostics["base_df"]
    assert rep.df_lower > 0.2
    assert rep.s_upper < 20.0
    assert rep.best_params["df"].shape == (family.dim,)


def test_optimize_rho_reports_realized_certificates():
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 9)
    rep = index.optimize_rho(family, pts, seed=0, beta=BETA)
    for kind, bound, value in (("df", index.df_bound, rep.df_lower),
                               ("s", index.s_bound, rep.s_upper)):
        samples = index.criterion_samples(
            family.realize(rep.best_params[kind]), pts)
        assert len(samples) == rep.null_count
        assert abs(bound(samples) - value) <= 1e-12
        assert rep.diagnostics[f"{kind}_prediction_gap"] <= 1e-10
    # kappa < kappa* keeps the certificates inside the true index range
    assert 2.0 / 3.0 - 1e-5 <= rep.df_lower <= 2.0 / 3.0
    assert 2.0 <= rep.s_upper <= 2.0 + 1e-4


def test_optimize_rho_is_deterministic_in_seed():
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 5)
    reports = [index.optimize_rho(family, pts, seed=seed) for seed in (0, 1, 2)]
    for rep in reports[1:]:
        assert rep.df_lower == reports[0].df_lower
        assert rep.s_upper == reports[0].s_upper
        for kind in ("df", "s"):
            assert np.array_equal(rep.best_params[kind],
                                  reports[0].best_params[kind])


def test_optimize_rho_rejects_certificate_that_loses_weak_points():
    # at these openings and sides the two tightest factors are so steep at
    # the annulus ends that their realized Levi eigenvalue there clears the
    # null cutoff, so the ladder steps down to the third
    for beta, kind, sign in ((1.6, "df", 1.0), (2.0, "s", -1.0)):
        family = index.RhoFamily(domains.worm_rho(beta, 0.0),
                                 index.worm_psi_basis(beta))
        pts = domains.annulus_points(beta, 5)
        for c in sign * np.eye(family.dim)[:2]:
            broken = index.criterion_samples(family.realize(c), pts)
            assert len(broken) < len(pts)

        rep = index.optimize_rho(family, pts, beta=beta)
        reported = rep.best_params[kind]
        assert np.array_equal(reported, [0.0, 0.0, sign])
        samples = index.criterion_samples(family.realize(reported), pts)
        assert len(samples) == rep.null_count == len(pts)
        bound = index.df_bound if kind == "df" else index.s_bound
        assert bound(samples) == (rep.df_lower if kind == "df" else rep.s_upper)


def test_optimize_rho_rejects_certificate_that_departs_from_the_law():
    # realizing half of each candidate is not the member the law predicts:
    # the prediction gap rejects every DF certificate, and the base is kept
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 5)
    realize = family.realize
    family.realize = lambda c: realize(0.5 * np.asarray(c))
    rep = index.optimize_rho(family, pts)
    assert not rep.best_params["df"].any() and not rep.best_params["s"].any()
    assert rep.df_lower == rep.diagnostics["base_df"]
    assert rep.s_upper == math.inf


@pytest.mark.parametrize("beta", [0.6 * math.pi, 0.7 * math.pi, BETA,
                                  0.9 * math.pi, 1.2 * math.pi])
def test_central_fiber_reaches_exact_indices_across_beta(beta):
    rep = index.worm_fiber_report(beta, 0.0)
    assert rep.null_count == 33
    df_exact = math.pi / (2.0 * beta)
    assert df_exact - 1e-5 <= rep.df_lower <= df_exact
    if beta < math.pi:
        s_exact = math.pi / (2.0 * math.pi - 2.0 * beta)
        assert s_exact <= rep.s_upper <= s_exact * (1.0 + 1e-4)
    else:
        assert rep.s_upper == math.inf


def test_optimize_rho_spc_shortcut():
    dm = domains.ball(2)
    family = index.RhoFamily(dm, index.worm_psi_basis())
    pts = domains.boundary_sample(dm, np.zeros(4), 8, seed=3)
    rep = index.optimize_rho(family, pts)
    assert rep.spc and rep.df_lower == 1.0 and rep.s_upper == 1.0


def test_sweep_requires_central_fiber():
    with pytest.raises(domains.DomainError):
        index.deformation_sweep(BETA, [0.1, 0.2])


def test_small_sweep_structure():
    reports = index.deformation_sweep(BETA, [0.0, 0.2], annulus_count=5,
                                      spc_count=40, seed=0)
    central, deformed = reports
    assert central.t == 0.0
    assert central.ground_truth["df"] == pytest.approx(2.0 / 3.0)
    assert central.ground_truth["relation"] == pytest.approx(2.0)
    assert 0.0 < central.df_lower < 1.0
    assert deformed.spc and deformed.df_lower == 1.0 and deformed.s_upper == 1.0
    assert deformed.diagnostics["min_levi_eigenvalue"] > index.SPC_THRESHOLD
