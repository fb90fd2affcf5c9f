import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex import domains, index, jets, levi

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
        params[0], params[1], params[3] = 0.3, -0.2, 0.1
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
        bad = index.RhoFamily(self.base, [index.PsiFunction(
            "flip", lambda coords, order=3: jets.constant(1.0, 4, order))])

        # negate instead of scaling: not a conformal factor
        def flip_ev(coords, order=3):
            return -1.0 * self.base.rho(coords, order)

        bad.realize = lambda params: domains.DomainSpec(
            n=2, kind="custom", params={}, eval_fn=flip_ev)
        with pytest.raises(domains.DomainError):
            bad.check_defining([1.0], [np.array([1.0, 0.0, 1.0, 0.0])])


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

    basis = [index.PsiFunction("im_w", im_w), index.worm_psi_basis()[1]]
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), basis)
    pts = [p for p in domains.annulus_points(BETA, 9) if p.z[1].imag == 0.0]
    assert len(pts) == 3
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
    data = json.loads(rep.to_json())
    assert data["s_upper"] == "inf"
    assert data["beta"] is None
    assert data["schema_version"] == index.SCHEMA_VERSION
    assert data["best_params"]["df"] == [0.1, 0.2]


def test_report_json_file(tmp_path):
    rep = index.IndexReport(df_lower=1.0, s_upper=1.0, null_count=0, spc=True,
                            t=0.2, beta=BETA, seed=0)
    path = tmp_path / "report.json"
    rep.to_json(path)
    assert json.loads(path.read_text())["spc"] is True


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
    rep = index.optimize_rho(family, pts, budget=60, seed=0, beta=BETA)
    assert rep.null_count == 5
    assert not rep.spc
    assert rep.df_lower >= rep.diagnostics["base_df"]
    assert rep.df_lower > 0.2
    assert rep.s_upper < 20.0
    assert rep.best_params["df"].shape == (family.dim,)


def test_optimize_rho_reports_realized_certificates():
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 9)
    rep = index.optimize_rho(family, pts, budget=100, seed=0, beta=BETA)
    for kind, bound, value in (("df", index.df_bound, rep.df_lower),
                               ("s", index.s_bound, rep.s_upper)):
        samples = index.criterion_samples(
            family.realize(rep.best_params[kind]), pts)
        assert len(samples) == rep.null_count
        assert abs(bound(samples) - value) <= 1e-12
        assert rep.diagnostics[f"{kind}_prediction_gap"] <= 1e-10
        assert 0 < rep.diagnostics[f"{kind}_bisection_steps"] <= 100
    # the exact family optimum can only lie inside the true index range
    assert 0.5 < rep.df_lower <= 2.0 / 3.0
    assert 2.0 <= rep.s_upper < 4.0


def test_optimize_rho_is_deterministic_in_seed_and_budget():
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 5)
    reports = [index.optimize_rho(family, pts, budget=budget, seed=seed)
               for seed, budget in ((0, 100), (1, 100), (2, 400))]
    for rep in reports[1:]:
        assert rep.df_lower == reports[0].df_lower
        assert rep.s_upper == reports[0].s_upper
        for kind in ("df", "s"):
            assert np.array_equal(rep.best_params[kind],
                                  reports[0].best_params[kind])


def test_optimize_rho_rejects_certificate_that_loses_weak_points(monkeypatch):
    # with |c_i| <= 10 the DF winner's e^psi reaches e^10 on the annulus and
    # its realized Levi matrix clears the null cutoff at some points; with
    # |c_i| <= 30 the Steinness winner's |omega|^2 drops below MSQ_EPS and
    # its realized bound degenerates to the vacuous 1
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    pts = domains.annulus_points(BETA, 5)
    for box, kind, bound in ((10.0, "df", index.df_bound),
                             (30.0, "s", index.s_bound)):
        monkeypatch.setattr(index, "COEFF_BOUND", box)
        law = index.conformal_law(family, pts)
        winner, _ = index._bisect(law, kind, 100)
        broken = index.criterion_samples(family.realize(winner), pts)
        assert (len(broken) != len(law.samples)
                or bound(broken) == 1.0 != bound(law.predicted_samples(winner)))

        rep = index.optimize_rho(family, pts, budget=100)
        reported = rep.best_params[kind]
        assert not np.array_equal(reported, winner)
        samples = index.criterion_samples(family.realize(reported), pts)
        assert len(samples) == rep.null_count
        value = rep.df_lower if kind == "df" else rep.s_upper
        assert bound(samples) == value


def test_optimize_rho_spc_shortcut():
    dm = domains.ball(2)
    family = index.RhoFamily(dm, index.worm_psi_basis())
    pts = domains.boundary_sample(dm, np.zeros(4), 8, seed=3)
    rep = index.optimize_rho(family, pts, budget=40)
    assert rep.spc and rep.df_lower == 1.0 and rep.s_upper == 1.0


def test_sweep_requires_central_fiber():
    with pytest.raises(domains.DomainError):
        index.deformation_sweep(BETA, [0.1, 0.2])


def test_small_sweep_structure():
    reports = index.deformation_sweep(BETA, [0.0, 0.2], annulus_count=5,
                                      spc_count=40, budget=40, seed=0)
    central, deformed = reports
    assert central.t == 0.0
    assert central.ground_truth["df"] == pytest.approx(2.0 / 3.0)
    assert central.ground_truth["relation"] == pytest.approx(2.0)
    assert 0.0 < central.df_lower < 1.0
    assert deformed.spc and deformed.df_lower == 1.0 and deformed.s_upper == 1.0
    assert deformed.diagnostics["min_levi_eigenvalue"] > index.SPC_THRESHOLD
