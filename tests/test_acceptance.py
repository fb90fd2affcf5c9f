"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the detail
lines).  The module-scoped sweep fixture serves the deformation criteria.
"""

import math
import time

import numpy as np
import pytest
import reference

from dfindex import cli, dangelo, domains, index, jets, levi

BETA = 3.0 * math.pi / 4.0
R = BETA - math.pi / 2.0


@pytest.fixture(scope="module")
def sweep():
    return index.deformation_sweep(BETA, [0.0, 0.05, 0.1, 0.3],
                                   annulus_count=33, spc_count=2000, seed=0)


def ok(n, detail):
    print(f"criterion {n}: PASS  ({detail})")


def test_criterion_01_levi_formula_oracle():
    start = time.monotonic()
    worst = 0.0
    for t in (0.0, 0.3):
        result = cli.run_verify_levi(BETA, t, count=500, seed=0)
        assert result["count"] >= 500
        assert result["passed"]
        worst = max(worst, result["max_rel_error"])
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 60.0
    ok(1, f"max rel error {worst:.2e} over 2x500 points in {elapsed:.1f}s")


def test_criterion_02_deformed_fibers_strongly_pseudoconvex(sweep):
    deformed = [rep for rep in sweep if rep.t != 0.0]
    assert [rep.t for rep in deformed] == [0.05, 0.1, 0.3]
    for rep in deformed:
        assert rep.diagnostics["spc_samples"] >= 2000
        assert rep.diagnostics["min_levi_eigenvalue"] > 0.0
        assert rep.spc
        assert rep.df_lower == 1.0 and rep.s_upper == 1.0
    eigs = min(rep.diagnostics["min_levi_eigenvalue"] for rep in deformed)
    ok(2, f"(df, s) = (1, 1) on all deformed fibers, min eig {eigs:.2e}")


def test_criterion_03_null_set_geometry():
    dm = domains.worm_rho(BETA, 0.0)
    annulus = domains.annulus_points(BETA, 33)
    pool = domains.boundary_sample(dm, index.WORM_ANCHOR, 500, seed=0) + annulus
    lb = levi.levi_batch(reference.stack_wirtinger([p.wirt for p in pool]))
    weak = sorted(set(lb.point.tolist()))
    for b in weak:
        z = pool[b].z
        assert abs(z[0]) < 1e-6
        assert abs(math.log(abs(z[1]) ** 2)) <= math.pi / 4.0 + 1e-6
    # the annulus points close the pool
    ratio = np.abs(lb.eigenvalues[-len(annulus):, 0]) / lb.scale[-len(annulus):]
    assert np.all(ratio < 1e-8)
    ok(3, f"{len(weak)} weak points, all on the annulus; "
          f"worst annulus eigenvalue {ratio.max():.2e} x scale")


def test_criterion_04_index_bounds_vs_ground_truth(sweep):
    central = sweep[0]
    assert central.t == 0.0
    assert central.null_count == 33
    assert 2.0 / 3.0 - 1e-5 <= central.df_lower <= 2.0 / 3.0
    assert 2.0 <= central.s_upper <= 2.0 + 1e-4
    truth = central.ground_truth
    assert truth["df"] == pytest.approx(2.0 / 3.0)
    assert truth["s"] == pytest.approx(2.0)
    assert truth["relation"] == pytest.approx(2.0)
    # best_params are the one factor's +-1, whose realizations reproduce the
    # bounds bit for bit
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    points = domains.annulus_points(BETA, 33)
    for kind, sign, bound, value in (("df", 1.0, index.df_bound, central.df_lower),
                                     ("s", -1.0, index.s_bound, central.s_upper)):
        c = central.best_params[kind]
        assert c.tolist() == [sign]
        samples = index.criterion_samples(family.realize(c), points)
        assert bound(samples) == value
    ok(4, f"df_lower = {central.df_lower:.7f} in [2/3 - 1e-5, 2/3], "
          f"s_upper = {central.s_upper:.7f} in [2, 2 + 1e-4]; "
          f"sign calibration discharged")


def test_criterion_05_semicontinuity_failure(sweep):
    central = sweep[0]
    assert central.df_lower <= 2.0 / 3.0
    assert central.s_upper >= 2.0
    for rep in sweep[1:]:
        assert rep.df_lower == 1.0
        assert rep.s_upper == 1.0
    ok(5, f"df jumps {central.df_lower:.4f} -> 1.0 and s drops "
          f"{central.s_upper:.4f} -> 1.0 away from t = 0")


def test_criterion_06_schur_property_suite():
    result = cli.run_schur_suite(count=1000, seed=0)
    assert result["count"] == 1000
    assert result["max_identity_residual"] < 1e-10
    assert result["max_projection_residual"] < 1e-8
    assert result["passed"]
    ok(6, f"identity residual {result['max_identity_residual']:.2e}, "
          f"projection residual {result['max_projection_residual']:.2e}")


def test_criterion_07_transversal_invariance():
    dm = domains.worm_rho(BETA, 0.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for p in domains.annulus_points(BETA, 32):
        w = jets.wirtinger(dm.rho(p.coords[:, None], order=3), dm.n)
        L = levi.levi_batch(w).L.T  # (n, 1)
        # the program's closed form against the definition under T'
        om0, db0 = dangelo.null_forms(w, L)  # a batch of one
        scale = max(1.0, abs(om0[0]), abs(db0[0]))
        pc = reference.cartan_calculus(dm, p)
        for _ in range(20):
            h = rng.normal(size=dm.n - 1) + 1j * rng.normal(size=dm.n - 1)
            Tp = reference.perturbed_transversal(pc, h)
            om, db = reference.cartan_calculus(dm, p, T=Tp).forms(L)
            worst = max(worst, abs(om - om0)[0] / scale,
                        abs(db - db0)[0] / scale)
    assert worst < 1e-7
    ok(7, f"max relative variation {worst:.2e} over 32 points x 20 "
          f"perturbations")


def test_criterion_08_jet_engine_vs_richardson():
    dm = domains.worm_rho(BETA, 0.0)
    rng = np.random.default_rng(17)

    def richardson(diff, h0=0.04, levels=6):
        T = [[diff(h0 / 2 ** k)] for k in range(levels)]
        for j in range(1, levels):
            for k in range(j, levels):
                T[k].append((4 ** j * T[k][j - 1] - T[k - 1][j - 1])
                            / (4 ** j - 1))
        return T[levels - 1][levels - 1]

    worst = 0.0
    for _ in range(100):
        coords = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(0.7, 1.4), rng.uniform(0.7, 1.4)])
        j = dm.rho(coords, order=3)
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)

        def f(s):
            return dm.rho(coords + s * v, order=1).value

        pairs = [
            (float(j.d1 @ v),
             richardson(lambda h: (f(h) - f(-h)) / (2 * h))),
            (float(v @ j.d2 @ v),
             richardson(lambda h: (f(h) - 2 * f(0) + f(-h)) / h ** 2)),
            (float(np.einsum("ijk,i,j,k->", j.d3, v, v, v)),
             richardson(lambda h: (f(2 * h) - 2 * f(h) + 2 * f(-h)
                                   - f(-2 * h)) / (2 * h ** 3))),
        ]
        for exact, fd in pairs:
            worst = max(worst, abs(exact - fd) / max(1.0, abs(exact)))
    assert worst < 1e-5
    ok(8, f"max relative derivative error {worst:.2e} at 100 points, "
          f"orders 1-3")


def test_criterion_09_phi_axioms():
    result = cli.run_phi_check(BETA)
    checks = result["checks"]
    assert checks["even_defect"] == 0.0
    assert checks["nonnegative"]
    assert checks["min_second_derivative"] >= -1e-12
    assert checks["zero_on_interval"] <= 1e-12
    assert checks["positive_outside_interval"] and checks["monotone_outward"]
    assert abs(checks["value_at_a"] - 1.0) <= 1e-10
    assert checks["slope_at_a"] > 0.0
    assert result["passed"]
    ok(9, f"zero set defect {checks['zero_on_interval']:.1e}, "
          f"phi(r+1) = {checks['value_at_a']:.12f}")


def test_criterion_10_ball_sanity_and_bisection_oracle():
    dm = domains.ball(2)
    pts = domains.boundary_sample(dm, np.zeros(4), 100, seed=0)
    samples = index.criterion_samples(dm, pts)
    assert len(samples) == 0
    assert index.df_bound(samples) == 1.0 and index.s_bound(samples) == 1.0

    def sample(dbar, msq):
        # a record with omega = sqrt(msq)
        return index.CriterionSamples(
            point=np.zeros(dbar.size, dtype=int), L=np.zeros((dbar.size, 2)),
            omega=np.sqrt(msq).astype(complex), dbar=dbar)

    def df_admissible(ss, g):
        k = g / (1.0 - g)
        return bool(np.all(ss.dbar - k * ss.msq > 0.0))

    def s_admissible(ss, g):
        k = g / (g - 1.0)
        return bool(np.all(-ss.dbar - k * ss.msq > 0.0))

    def bisect(pred, lo, hi, lo_admissible, iters=80):
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if pred(mid) == lo_admissible:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        msq = rng.uniform(0.5, 2.0, size=k)
        dbar = rng.uniform(0.1, 3.0, size=k)
        ss = sample(dbar, msq)
        oracle = bisect(lambda g: df_admissible(ss, g), 0.0, 1.0, True)
        worst = max(worst, abs(index.df_bound(ss) - oracle))

        ratios = rng.uniform(1.5, 6.0, size=k)
        ss = sample(-ratios * msq, msq)
        assert s_admissible(ss, 16.0)
        oracle = bisect(lambda g: s_admissible(ss, g), 1.0, 16.0, False)
        worst = max(worst, abs(index.s_bound(ss) - oracle))
    assert worst < 1e-12
    ok(10, f"ball gives (1, 1) with null_count 0; bisection deviation "
           f"{worst:.1e} over 100 synthetic sets")
