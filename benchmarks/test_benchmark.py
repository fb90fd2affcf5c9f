"""Tests of the benchmark's oracles and checks.

    python3 -m pytest -q benchmarks/test_benchmark.py

The oracles must agree with the program where both are right, and every
check must reject a deliberately wrong report or point.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from dfindex import domains, exprparse, index, levi  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

BETA = workloads.BETA
PROGRAM = SimpleNamespace(domains=domains, exprparse=exprparse, index=index,
                          levi=levi)


def _random_points(rng, n, count, scale=1.0):
    return [scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
            for _ in range(count)]


def _op(workload, label_part, seed=0):
    return next(op for op in workloads.make_ops(workload, seed)
                if label_part in op.label)


# -- oracles against the program and against quadrature --------------------------


def test_ramp_matches_quadrature():
    for u in (0.05, 0.3, 1.0, 2.5):
        q, _ = quad(lambda s: math.exp(-1.0 / s), 0.0, u, epsabs=1e-14,
                    epsrel=1e-13)
        assert abs(oracles.ramp(u) - q) < 1e-12


def test_phi_profile_axioms():
    r = BETA - math.pi / 2.0
    for x in (-r, -0.3, 0.0, r):
        assert oracles.phi(BETA, x) == 0.0
    assert oracles.phi(BETA, r + 1.0) == pytest.approx(1.0, abs=1e-14)
    assert oracles.phi(BETA, r + 0.5) == oracles.phi(BETA, -r - 0.5) > 0.0


@pytest.mark.parametrize("t", [0.0, 0.05, 0.3])
def test_worm_rho_agrees_with_program(t):
    spec, rho = domains.worm_rho(BETA, t), oracles.worm_rho(BETA, t)
    for z in _random_points(np.random.default_rng(1), 2, 6):
        assert rho(z) == pytest.approx(spec.value(domains.coords_of_point(z)),
                                       rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 7])
def test_expression_rho_agrees_with_program(seed):
    rng = np.random.default_rng(seed)
    for op in workloads.make_ops("expr", seed):
        spec, rho = (exprparse.parse_expression(op.expr),
                     oracles.expression_rho(op.expr, op.n))
        for z in _random_points(rng, op.n, 4, scale=0.7):
            assert rho(z) == pytest.approx(
                spec.value(domains.coords_of_point(z)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 7])
def test_expression_domains_are_convex(seed):
    # DF = S = 1 for every expr domain rests on convexity: the real Hessian of
    # each defining function is positive semidefinite
    rng = np.random.default_rng(seed)
    for op in workloads.make_ops("expr", seed):
        rho = oracles.expression_rho(op.expr, op.n)
        for z in _random_points(rng, op.n, 6, scale=0.6):
            H = oracles.real_hessian(rho, z)
            assert np.linalg.eigvalsh(H).min() >= -1e-6 * max(1.0, np.abs(H).max())


def test_levi_oracle_agrees_with_ad():
    rho = oracles.worm_rho(BETA, 0.1)
    spec = domains.worm_rho(BETA, 0.1)
    for p in domains.boundary_sample(spec, index.WORM_ANCHOR, 4, seed=5):
        assert oracles.residual_ok(rho, p.z)
        assert np.allclose(oracles.complex_gradient(rho, p.z), p.wirt.grad,
                           rtol=1e-7, atol=1e-8)
        L, fd, hmax = oracles.levi_tangent(rho, p.z)
        ad = levi.levi_form(p.wirt, L, L).real
        assert abs(ad - fd) <= oracles.LEVI_TOL * hmax * np.vdot(L, L).real
        assert fd > 0.0


def test_expression_rho_rejects_unknown_names():
    with pytest.raises(ValueError):
        oracles.expression_rho("abs2(z1)+__import__(z2)", 2)


# -- each check rejects a wrong report or point -----------------------------------


def test_residual_check_rejects_point_off_boundary():
    rho = oracles.worm_rho(BETA, 0.3)
    p = domains.boundary_sample(domains.worm_rho(BETA, 0.3), index.WORM_ANCHOR,
                                1, seed=0)[0]
    assert oracles.residual_ok(rho, p.z)
    assert not oracles.residual_ok(rho, p.z * (1.0 + 1e-8))


def _central_report(df=0.5687, s=4.137, null_count=workloads.ANNULUS_COUNT):
    return {"df_lower": df, "s_upper": s, "null_count": null_count,
            "spc": False, "best_params": {"df": [0.0] * 7, "s": [0.0] * 7}}


def test_central_report_checks():
    op = _op("central", "t=0")
    assert workloads.check_report(op, _central_report()) == []
    for wrong in (_central_report(df=0.7), _central_report(df=0.0),
                  _central_report(s=1.5), _central_report(s="inf"),
                  _central_report(null_count=32)):
        assert workloads.check_report(op, wrong)


def test_central_recompute_rejects_bounds_not_backed_by_params():
    # best_params all zero realize the base rho, whose bounds are (0, inf)
    op = _op("central", "t=0")
    assert workloads.check_points(op, _central_report(df=0.0, s="inf"),
                                  PROGRAM) == []
    assert workloads.check_points(op, _central_report(), PROGRAM)


def _spc_report(spc=True, df=1.0, s=1.0, min_eig=1.3e-3):
    return {"df_lower": df, "s_upper": s, "null_count": 0, "spc": spc,
            "diagnostics": {"min_levi_eigenvalue": min_eig}}


def test_deformed_report_checks():
    op = _op("deformed", "t=0.05")
    assert workloads.check_report(op, _spc_report()) == []
    for wrong in (_spc_report(spc=False), _spc_report(s="inf"),
                  _spc_report(df=0.9), _spc_report(min_eig=0.0)):
        assert workloads.check_report(op, wrong)


def test_deformed_levi_check_rejects_wrong_ad_values():
    op = _op("deformed", "t=0.3")
    assert workloads.check_points(op, _spc_report(), PROGRAM) == []
    skewed = SimpleNamespace(
        levi_form=lambda w, X, Y: 1.001 * levi.levi_form(w, X, Y))
    bad = SimpleNamespace(domains=domains, exprparse=exprparse, index=index,
                          levi=skewed)
    assert workloads.check_points(op, _spc_report(), bad)


def test_expr_report_checks():
    op = _op("expr", "abs2(z3)*abs2(z3)")
    assert workloads.check_report(op, _spc_report()) == []
    for wrong in (_spc_report(spc=False, s="inf"), _spc_report(df=0.5)):
        assert workloads.check_report(op, wrong)


def test_known_fault_runs_at_a_fixed_seed():
    # the egg fails only where a ray meets its weak set; a fixed seed makes
    # that happen in every run, whatever the workload seed
    for seed in (0, 1, 5):
        egg = _op("expr", workloads.EGG8, seed)
        assert egg.seed == 0 and egg.expr in workloads.KNOWN_FAULTS
