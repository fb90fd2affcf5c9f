import cmath
import functools
import json
import math

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex import domains, exprparse, index, jets, levi

BETA = 3 * math.pi / 4


def samples(pairs):
    """A record of (dbar, msq) pairs, with omega = sqrt(msq)."""
    dbar, msq = np.array(pairs, dtype=float).reshape(-1, 2).T
    return index.CriterionSamples(
        point=np.zeros(dbar.size, dtype=int),
        L=np.tile(np.array([0.0, 1.0], dtype=complex), (dbar.size, 1)),
        omega=np.sqrt(msq).astype(complex), dbar=dbar)


def sample(dbar, msq):
    return samples([(dbar, msq)])


# -- closed-form aggregation ---------------------------------------------------------

def test_bound_examples():
    assert index.df_bound(samples([])) == 1.0
    assert index.s_bound(samples([])) == 1.0
    assert index.df_bound(sample(1.0, 1.0)) == pytest.approx(0.5)
    assert index.df_bound(sample(-1.0, 1.0)) == 0.0
    assert index.df_bound(sample(0.0, 1.0)) == 0.0
    assert index.s_bound(sample(-2.0, 1.0)) == pytest.approx(2.0)
    assert index.s_bound(sample(1.0, 1.0)) == math.inf
    assert index.s_bound(sample(-1.0, 1.0)) == math.inf  # ratio exactly 1


def test_bound_degenerate_msq():
    assert index.df_bound(sample(2.0, 0.0)) == 1.0
    assert index.df_bound(sample(-2.0, 0.0)) == 0.0
    assert index.df_bound(sample(0.0, 0.0)) == 0.0
    assert index.s_bound(sample(-2.0, 0.0)) == 1.0
    assert index.s_bound(sample(2.0, 0.0)) == math.inf
    # eps scales with |dbar|: huge dbar with tiny honest msq is degenerate
    assert index.df_bound(sample(1e12, 1e3 * index.MSQ_EPS)) == 1.0


def test_sample_validation():
    with pytest.raises(ValueError):
        sample(math.nan, 1.0)
    with pytest.raises(ValueError):
        sample(1.0, math.inf)


@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0.1, 3)), max_size=8),
       st.tuples(st.floats(-3, 3), st.floats(0.1, 3)))
@settings(max_examples=100, deadline=None)
def test_bounds_monotone_in_samples(pairs, extra):
    fewer, more = samples(pairs), samples(pairs + [extra])
    assert index.df_bound(more) <= index.df_bound(fewer)
    assert index.s_bound(more) >= index.s_bound(fewer)


def at_threshold(omega, sign):
    # (omega, dbar) with |omega|^2 == MSQ_EPS * max(1, |dbar|) exactly, or
    # None when no dbar near |omega|^2 / MSQ_EPS rounds onto it
    msq = float((np.abs(np.array([omega])) ** 2)[0])
    d = msq / index.MSQ_EPS
    for dbar in (d, np.nextafter(d, 0.0), np.nextafter(d, math.inf)):
        if dbar >= 1.0 and index.MSQ_EPS * dbar == msq:
            return omega, sign * float(dbar)
    return None


def exactly_one(omega):
    # (omega, dbar) with -dbar/msq == 1
    return omega, -float((np.abs(np.array([omega])) ** 2)[0])


small = st.floats(1e-5, 1e-3)
honest = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
criterion_entry = st.one_of(
    st.tuples(honest, st.floats(-3, 3)),
    st.tuples(st.just(0j), st.floats(-3, 3)),                  # msq = 0
    st.builds(at_threshold, st.builds(complex, small, small),
              st.sampled_from([-1.0, 1.0])).filter(bool),   # msq at eps
    st.tuples(honest, st.just(0.0)),                           # dbar = 0
    st.builds(exactly_one, honest))                            # ratio 1


@given(st.lists(criterion_entry, max_size=12))
@settings(max_examples=150, deadline=None)
def test_closed_form_bounds_equal_the_sample_loops(entries):
    omega = np.array([o for o, _ in entries], dtype=complex)
    rec = index.CriterionSamples(
        point=np.arange(len(entries)), L=np.zeros((len(entries), 2), complex),
        omega=omega, dbar=np.array([d for _, d in entries], dtype=float))
    assert index.df_bound(rec) == reference.df_bound(rec)
    assert index.s_bound(rec) == reference.s_bound(rec)


# -- gamma-bisection oracle ------------------------------------------------------------

def df_admissible(samples, gamma):
    k = gamma / (1.0 - gamma)
    return bool(np.all(samples.dbar - k * samples.msq > 0.0))


def s_admissible(samples, gamma):
    k = gamma / (gamma - 1.0)
    return bool(np.all(-samples.dbar - k * samples.msq > 0.0))


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
        ss = samples(list(zip(dbars, msqs)))

        df = index.df_bound(ss)
        oracle = df_by_bisection(ss)
        assert abs(df - oracle) < 1e-12

        sb = index.s_bound(ss)
        oracle = s_by_bisection(ss)
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
        ss = samples([(-r * m, m) for r, m in zip(ratios, msqs)])
        sb = index.s_bound(ss)
        assert sb < math.inf
        assert abs(sb - s_by_bisection(ss)) < 1e-9 * sb


# -- conformal family -----------------------------------------------------------------

class TestRhoFamily:
    def setup_method(self):
        self.base = domains.worm_rho(BETA, 0.0)
        self.family = index.RhoFamily(self.base, index.worm_psi_basis())

    def test_zero_params_return_base(self):
        assert self.family.realize(np.zeros(self.family.dim)) is self.base

    def test_realized_value_matches_manual_product(self):
        # two members: worm_psi_basis's factor and a looser one
        r0 = BETA - math.pi / 2
        looser = index._log_cos_factor((1.0 - 1e-3) * math.pi / (2.0 * r0), r0)
        family = index.RhoFamily(self.base, [*self.family.psi_basis, looser])
        params = np.array([0.3, -0.2])
        realized = family.realize(params)
        coords = jets.coords_of_point([0.2 + 0.1j, 1.1 - 0.2j])
        # a factor is a function of coordinate jets, as a domain's fn is
        psi = sum(c * domains.DomainSpec(2, psi_fn).rho(coords, 3).value
                  for c, psi_fn in zip(params, family.psi_basis))
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
        reference.check_defining(self.family, params, probes)

    def test_check_defining_detects_sign_flip(self):
        bad = index.RhoFamily(
            self.base,
            [lambda xs: 0.0 * xs[0] + 1.0])

        # negate instead of scaling: not a conformal factor
        def flip(xs):
            return -1.0 * self.base.fn(xs)

        bad.realize = lambda params: domains.DomainSpec(n=2, fn=flip)
        with pytest.raises(domains.DomainError):
            reference.check_defining(bad, [1.0],
                                     [np.array([1.0, 0.0, 1.0, 0.0])])

    def test_blended_factors_stay_finite_and_defining(self):
        # past the annulus each factor blends to 0 before log cos(kappa u)
        # ceases to exist; order-3 jets stay finite across the blend
        rng = np.random.default_rng(11)
        probes = []
        for u in rng.uniform(-1.5, 1.5, size=200):
            w = math.exp(u / 2.0) * complex(math.cos(u), math.sin(u))
            probes.append(jets.coords_of_point([rng.normal(scale=0.3), w]))
        for c in np.eye(self.family.dim):
            reference.check_defining(self.family, c, probes)
            reference.check_defining(self.family, -c, probes)
        for psi in self.family.psi_basis:
            for coords in probes:
                j = domains.DomainSpec(2, psi).rho(coords, 3)
                assert np.isfinite(j.value) and np.all(np.isfinite(j.d3))

    def test_check_defining_rejects_non_finite_values(self):
        # the unblended factor is NaN past |u| = pi/(2 kappa) = 0.785
        kappa = 1.99998

        def raw_log_cos(xs):
            x1, y1, x2, y2 = xs
            u = jets.log(x2 * x2 + y2 * y2)
            return (1.0 / kappa) * jets.log(jets.cos(kappa * u))

        raw = index.RhoFamily(self.base, [raw_log_cos])
        probe = jets.coords_of_point([0.1, math.exp(0.6)])  # u = 1.2
        with np.errstate(invalid="ignore"):
            assert math.isnan(raw.realize([1.0]).value(probe))
            with pytest.raises(domains.DomainError):
                reference.check_defining(raw, [1.0], [probe])


def test_realized_member_lifts_its_coordinates_once(monkeypatch):
    # the member's fn evaluates delta and both factors on the jets that
    # DomainSpec.rho lifts, so a member of two factors lifts once, not 3 times
    r0 = BETA - math.pi / 2
    looser = index._log_cos_factor((1.0 - 1e-3) * math.pi / (2.0 * r0), r0)
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0),
                             [*index.worm_psi_basis(BETA), looser])
    c = np.array([0.3, -0.2])
    member = family.realize(c)
    rng = np.random.default_rng(6)
    us = rng.uniform(-1.5, 1.5, size=12)  # log cos, the blend and 0
    ws = np.exp(us / 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi, us.size))
    coords = np.array([jets.coords_of_point([rng.normal(scale=0.3), w])
                       for w in ws]).T
    lift = jets.lift
    orders = []

    def counted(coords, order=3):
        orders.append(order)
        return lift(coords, order)

    for k in (1, 2, 3):
        monkeypatch.setattr(jets, "lift", counted)
        got = member.rho(coords, k)
        monkeypatch.setattr(jets, "lift", lift)
        assert orders == [k]
        orders.clear()
        want = index._member_jet(
            family.base.rho(coords, k),
            [(ci, psi(jets.lift(coords, k)))
             for ci, psi in zip(c, family.psi_basis)])
        for part in ("value", "d1", "d2", "d3")[:k + 1]:
            assert np.array_equal(getattr(got, part), getattr(want, part)), \
                (k, part)


def ratios(samples):
    return samples.dbar / samples.msq


def test_conformal_law_matches_realized_samples():
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 9)
    law = index.conformal_law(family, pts)
    assert len(law.samples) == 9
    rng = np.random.default_rng(3)
    for _ in range(3):
        c = rng.normal(size=family.dim)
        realized = ratios(index.criterion_samples(family.realize(c), pts))
        predicted = ratios(law.predict(c))
        assert np.abs(predicted - realized).max() <= 1e-12 * np.abs(realized).max()


def test_conformal_law_pins_sign_of_omega_shift():
    # on the annulus d'psi(L) is orthogonal to omega0 for every psi of
    # log|w|^2, so both signs of the shift give the same |omega|^2; at real
    # w, d'(Im w)(L) = -i L_w / 2 is parallel to omega0 = i L_w / w.  Im w is
    # pluriharmonic, so a function of log|w|^2 supplies a nonzero dbar.
    def im_w(xs):
        return xs[3]

    basis = [im_w, index.worm_psi_basis()[0]]
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), basis)
    pts = [p for p in domains.annulus_points(BETA, 9) if p.z[1].imag == 0.0]
    assert len(pts) == 9
    law = index.conformal_law(family, pts)
    c = np.array([0.7, 0.5])
    realized = ratios(index.criterion_samples(family.realize(c), pts))
    predicted = law.predict(c)
    plus = ratios(predicted)
    minus = predicted.dbar / np.abs(law.samples.omega - c @ law.A) ** 2
    tol = 1e-12 * np.abs(realized).max()
    assert np.abs(plus - realized).max() <= tol
    assert np.abs(minus - realized).max() > 1e3 * tol


# -- criterion sampling ------------------------------------------------------------------

def test_criterion_samples_empty_for_ball():
    dm = domains.ball(2)
    pts = domains.boundary_sample(dm, np.zeros(4), 15, seed=2)
    assert len(index.criterion_samples(dm, pts)) == 0


def test_criterion_samples_on_worm_annulus():
    dm = domains.worm_rho(BETA, 0.0)
    pts = domains.annulus_points(BETA, 9)
    samples = index.criterion_samples(dm, pts)
    assert len(samples) == 9
    assert np.all(samples.msq > 0.1)
    assert np.all(np.abs(samples.dbar) < 1e-12)
    assert index.df_bound(samples) == 0.0
    assert index.s_bound(samples) == math.inf


def _forms(domain, points):
    samples = index.criterion_samples(domain, points)
    return samples.dbar, samples.msq


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
    # same count and order as the per-point Cartan oracle; omega within
    # 1e-12 relative, dbar within 1e-12 of max(|dbar|, |omega|^2), the
    # scale of the ratio the bounds read (on the base annulus dbar is 0
    # and both sides are rounding noise)
    got = index.criterion_samples(domain, points)
    want = reference.criterion_samples(domain, points)
    assert len(got) == len(want) > 0
    assert np.array_equal(got.point, want.point)
    assert np.array_equal(got.L, want.L)
    assert np.all(np.abs(got.dbar - want.dbar)
                  <= 1e-12 * np.maximum(np.abs(want.dbar), want.msq))
    assert np.all(np.abs(got.omega - want.omega)
                  <= 1e-12 * np.maximum(np.abs(want.omega), 1e-300))
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
    assert samples.point.tolist() == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("factor", ["", FACTOR2 + "*"])
def test_criterion_samples_match_oracle_across_pivot_groups(factor):
    dm = exprparse.parse_expression(
        factor + "(abs2(z1)*abs2(z1)+abs2(z2)*abs2(z2)-1)")
    zs = ([0, 1], [1, 0], [0, np.exp(0.7j)], [np.exp(2j), 0], [0, -1j])
    pts = [dm.boundary_point(jets.coords_of_point(z)) for z in zs]
    pivots = levi.levi_batch(reference.stack_wirtinger([p.wirt for p in pts])).pivot
    assert pivots.tolist() == [1, 0, 1, 0, 1]
    samples = assert_match_reference(dm, pts)
    assert samples.point.tolist() == list(range(len(pts)))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_log_cos_factor_batch_matches_each_point(order):
    # the three u-regions of the factor: log cos, the blend to 0, and 0
    r0 = BETA - math.pi / 2
    kappa = (1.0 - index.LOG_COS_GAP) * math.pi / (2.0 * r0)
    h = 0.5 * (0.5 * math.pi / kappa - r0)
    psi = domains.DomainSpec(2, index._log_cos_factor(kappa, r0))
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
    batch = psi.rho(coords, order)
    for k in range(us.size):
        one = psi.rho(coords[:, k], order)
        assert batch.value[k] == one.value
        for part in ("d1", "d2", "d3")[:order]:
            assert np.array_equal(getattr(batch, part)[..., k],
                                  getattr(one, part))


def test_log_cos_factor_is_psi_kappa_at_the_annulus_end():
    # annulus_points puts its last point at u = r0, but log|w|^2 rounds to
    # r0 + 1.1e-16 there: the blend branch, whose step must be exactly 1
    r0 = BETA - math.pi / 2
    coords = domains.annulus_points(BETA, 33)[-1].coords[:, None]
    xs = jets.lift(coords, 3)
    u = jets.log(xs[2] * xs[2] + xs[3] * xs[3])
    assert u.value[0] > r0
    kappa = (1.0 - index.LOG_COS_GAP) * math.pi / (2.0 * r0)
    want = (1.0 / kappa) * jets.log(jets.cos(kappa * u))
    [fn] = index.worm_psi_basis(BETA)
    got = fn(xs)
    for part in ("value", "d1", "d2", "d3"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_smooth_step_is_exact_where_one_side_vanishes():
    x = jets.lift(np.array([[-0.5, 0.0, 1.0 - 1e-11, 1.0, 1.5]]), 3)[0]
    step = index._smooth_step(x)
    assert step.value.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    for d in (step.d1, step.d2, step.d3):
        assert not np.broadcast_to(d, d.shape[:-1] + (5,)).any()


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
    weak, min_eig, psh = index.spc_check(domains.ball(2), np.zeros(4), 60, 1)
    assert weak == [] and min_eig > index.SPC_THRESHOLD
    assert min_eig > 0.1
    assert psh == 1.0  # the ball's complex Hessian is the identity
    weak, min_eig, psh = index.spc_check(domains.worm_rho(BETA, 0.3),
                                         index.WORM_ANCHOR, 60, 1)
    assert weak == [] and min_eig > index.SPC_THRESHOLD
    assert psh < -0.1  # the worm's rho is not plurisubharmonic


EGGS = ("abs2(z1)+abs2(z2)*abs2(z2)-1",
        "abs2(z1)+abs2(z2)*abs2(z2)*abs2(z2)*abs2(z2)-1",
        "abs2(z1)+abs2(z2)+abs2(z3)*abs2(z3)-1")


@pytest.mark.parametrize("case", ["worm 0.05", "worm 0.1", "worm 0.3", *EGGS])
def test_spc_check_matches_the_per_point_scan(case):
    if case.startswith("worm"):
        dm = domains.worm_rho(BETA, float(case.split()[1]))
        anchor, count = index.WORM_ANCHOR, 250
    else:
        dm = exprparse.parse_expression(case)
        anchor, count = np.zeros(2 * dm.n), 100
    weak, min_eig, psh = index.spc_check(dm, anchor, count, seed=0)
    want, want_eig, want_psh = reference.spc_check(dm, anchor, count, seed=0)
    assert min_eig == want_eig and psh == want_psh
    assert len(weak) == len(want)
    for p, q in zip(weak, want):
        for a, b in ((p.coords, q.coords), (p.z, q.z),
                     (p.wirt.value, q.wirt.value), (p.wirt.grad, q.wirt.grad),
                     (p.wirt.hess_mixed, q.wirt.hess_mixed)):
            assert np.array_equal(a, b)


def test_egg_is_levi_null_on_its_weak_set():
    # no ray needs to land there: z = (1, 0) lies on {z2 = 0}, where the
    # |z2|^8 egg's Levi form vanishes on the tangent direction d/dz2
    dm = exprparse.parse_expression(EGGS[1])
    p = dm.boundary_point(jets.coords_of_point([1.0, 0.0]))
    assert p.wirt.grad[1] == 0.0
    assert levi.levi_form(p.wirt, [0, 1], [0, 1]) == 0.0
    assert len(index.criterion_samples(dm, [p])) == 1


def test_psh_boundary_decides_when_a_ray_meets_the_weak_set(monkeypatch):
    # ray 0 forced onto the egg's weak point (1, 0): the Levi gap fails, and
    # the plurisubharmonic rho still decides DF = S = 1
    design = domains._ray_directions

    def through_weak_point(seed, count, nvars):
        d = design(seed, count, nvars)
        d[:, 0] = [1.0, 0.0, 0.0, 0.0]
        return d

    monkeypatch.setattr(domains, "_ray_directions", through_weak_point)
    rep = index.sampled_report(exprparse.parse_expression(EGGS[1]),
                               np.zeros(4), 20, seed=0)
    assert not rep.spc and rep.null_count >= 1
    assert rep.diagnostics["psh_margin"] >= -index.PSH_TOL
    assert rep.diagnostics["certificate"] == "psh_boundary"
    assert (rep.df_lower, rep.s_upper) == (1.0, 1.0)


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
    # the optimizer builds each member's jet from jets it already holds;
    # realizing the reported coefficients from scratch gives the same bits
    for beta in (BETA, 1.6, 2.0, 0.6 * math.pi):
        family = index.RhoFamily(domains.worm_rho(beta, 0.0),
                                 index.worm_psi_basis(beta))
        pts = domains.annulus_points(beta, 9)
        rep = index.optimize_rho(family, pts, seed=0, beta=beta)
        for kind, bound, value in (("df", index.df_bound, rep.df_lower),
                                   ("s", index.s_bound, rep.s_upper)):
            samples = index.criterion_samples(
                family.realize(rep.best_params[kind]), pts)
            assert len(samples) == rep.null_count
            assert bound(samples) == value
            assert rep.diagnostics[f"{kind}_prediction_gap"] <= 1e-10
        # kappa < kappa* keeps the certificates inside the true index range,
        # and kappa = (1 - 1e-5) kappa* within 1e-5 (DF), 1e-4 (S) of it
        assert rep.best_params["df"].tolist() == [1.0]
        assert rep.best_params["s"].tolist() == [-1.0]
        df_exact = math.pi / (2.0 * beta)
        s_exact = math.pi / (2.0 * math.pi - 2.0 * beta)
        assert (1.0 - 1e-5) * df_exact <= rep.df_lower <= df_exact
        assert s_exact <= rep.s_upper <= s_exact * (1.0 + 1e-4)
        if beta == BETA:
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


def residual_worm(beta):
    """The central worm fiber written as |z - e^{iu}|^2 - 1 + phi(u): the
    function domains.worm_rho evaluates at t = 0, but cos^2 u + sin^2 u - 1
    leaves a rounding residual of up to 2.2e-16 at annulus points."""
    phi = domains.make_phi(beta)

    def fn(xs):
        x1, y1, x2, y2 = xs
        u = jets.log(x2 * x2 + y2 * y2)
        dre = x1 - jets.cos(u)
        dim = y1 - jets.sin(u)
        return dre * dre + dim * dim - 1.0 + phi.jet(u)

    return domains.DomainSpec(n=2, fn=fn)


def test_optimize_rho_rejects_certificate_that_loses_weak_points():
    # on the residual worm the factor's psi'' ~ 1/LOG_COS_GAP^2 lifts the
    # realized Levi eigenvalue at some annulus points past the null cutoff:
    # the DF member at beta = 1.6 keeps 3 of 5, the S member at 2.0 keeps 4
    for beta, kind, sign, kept in ((1.6, "df", 1.0, 3), (2.0, "s", -1.0, 4)):
        dm = residual_worm(beta)
        family = index.RhoFamily(dm, index.worm_psi_basis(beta))
        pts = domains.annulus_points(beta, 5, dm)
        broken = index.criterion_samples(family.realize([sign]), pts)
        assert len(broken) == kept

        rep = index.optimize_rho(family, pts, beta=beta)
        assert rep.null_count == len(pts)
        assert rep.best_params[kind].tolist() == [0.0]
        value = rep.df_lower if kind == "df" else rep.s_upper
        assert value == float(rep.diagnostics[f"base_{kind}"])


def test_optimize_rho_rejects_certificate_that_departs_from_the_law(
        monkeypatch):
    # building half of each candidate is not the member the law predicts:
    # the prediction gap rejects every DF certificate, and the base is kept
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 5)
    member_jet = index._member_jet
    monkeypatch.setattr(index, "_member_jet", lambda delta, terms: member_jet(
        delta, [(0.5 * c, psi) for c, psi in terms]))
    rep = index.optimize_rho(family, pts)
    assert not rep.best_params["df"].any() and not rep.best_params["s"].any()
    assert rep.df_lower == rep.diagnostics["base_df"]
    assert rep.s_upper == math.inf


CENTRAL_BETAS = [0.6 * math.pi, 0.7 * math.pi, BETA, 0.9 * math.pi,
                 1.2 * math.pi, 1.6, 2.0, 24, 30, 36]


@functools.lru_cache(maxsize=None)
def central_report(beta):
    return index.worm_fiber_report(beta, 0.0)


def test_central_fiber_pins_the_benchmark_values():
    # the values the benchmark's central workload reads, bit for bit; a
    # change that moves them on purpose updates this pin and says why
    rep = central_report(BETA)
    assert rep.df_lower == 0.6666644444296294
    assert rep.s_upper == 2.00002000040001
    assert rep.null_count == 33


@pytest.mark.parametrize("beta", CENTRAL_BETAS)
def test_central_fiber_reaches_exact_indices_across_beta(beta):
    # the one factor keeps all 33 weak points up to beta = 36
    rep = central_report(beta)
    assert rep.null_count == 33
    df_exact = math.pi / (2.0 * beta)
    assert (1.0 - 1e-5) * df_exact <= rep.df_lower <= df_exact
    if beta < math.pi:
        s_exact = math.pi / (2.0 * math.pi - 2.0 * beta)
        assert s_exact <= rep.s_upper <= s_exact * (1.0 + 1e-4)
    else:
        assert rep.s_upper == math.inf


def test_central_fiber_df_decreases_along_beta():
    dfs = [central_report(beta).df_lower for beta in sorted(CENTRAL_BETAS)]
    assert all(a > b for a, b in zip(dfs, dfs[1:]))


def test_optimize_rho_keeps_the_report_of_no_points():
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    rep = index.optimize_rho(family, [], beta=BETA)
    assert rep.null_count == 0 and rep.spc
    assert (rep.df_lower, rep.s_upper) == (1.0, 1.0)
    for kind in ("df", "s"):
        assert np.array_equal(rep.best_params[kind], np.zeros(family.dim))
    assert len(index.conformal_law(family, []).samples) == 0


def test_optimize_rho_evaluates_each_jet_once(monkeypatch):
    # delta's order-3 jet once for the law and every candidate, and the
    # factor's once for both of its candidates +-e_1
    beta = 1.6
    family = index.RhoFamily(domains.worm_rho(beta, 0.0),
                             index.worm_psi_basis(beta))
    pts = domains.annulus_points(beta, 5)
    calls = []
    rho = domains.DomainSpec.rho

    def counted_rho(spec, coords, order=3):
        calls.append(("delta", order))
        return rho(spec, coords, order)

    def counted(i, fn):
        def psi(xs):
            calls.append((i, xs[0].order))
            return fn(xs)
        return psi

    monkeypatch.setattr(domains.DomainSpec, "rho", counted_rho)
    family.psi_basis = [counted(i, fn) for i, fn in enumerate(family.psi_basis)]
    rep = index.optimize_rho(family, pts, beta=beta)
    assert rep.best_params["df"].tolist() == [1.0]
    assert rep.best_params["s"].tolist() == [-1.0]
    order3 = [name for name, order in calls if order == 3]
    assert order3 == ["delta", 0]


@pytest.mark.parametrize("beta", [1.2 * math.pi, 30.0])
def test_optimize_rho_builds_only_candidates_the_law_screens_in(
        beta, monkeypatch):
    # past beta = pi, kappa* < 1 and the law predicts S = inf for -psi, no
    # better than the base: that candidate gets no jet and no criterion pass
    family = index.RhoFamily(domains.worm_rho(beta, 0.0),
                             index.worm_psi_basis(beta))
    pts = domains.annulus_points(beta, 9)
    coefficients = []
    member_jet = index._member_jet

    def recorded(delta, terms):
        coefficients.extend(c for c, _ in terms)
        return member_jet(delta, terms)

    monkeypatch.setattr(index, "_member_jet", recorded)
    rep = index.optimize_rho(family, pts, beta=beta)
    assert coefficients == [1.0]
    assert rep.best_params["df"].tolist() == [1.0]
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
