"""The benchmark's workloads and the checks on every operation's report.

A workload is a list of operations, each one ``dfindex analyze`` invocation
given as an argv for ``dfindex.cli.main``.  The operations are made from the
workload seed alone; the program receives only the argv.

Checks compare each report with a property the mathematics guarantees or
with the independent evaluations in ``oracles``; a stored copy of an earlier
report is never the reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

BETA = 3.0 * math.pi / 4.0
DF_EXACT = math.pi / (2.0 * BETA)      # 2/3, Liu (Adv. Math. 353, 2019)
S_EXACT = math.pi / (2.0 * math.pi - 2.0 * BETA)   # 2 at beta = 3pi/4

# Nelder-Mead budget of the central fiber.  Below 100 the optimizer's floor of
# 20 evaluations per restart takes over; 100 keeps one analysis near 12 s.
CENTRAL_BUDGET = 100
ANNULUS_COUNT = 33
DEFORMED_T = (0.05, 0.1, 0.3)
SPC_COUNT = 250
EXPR_COUNT = 100
# Boundary points per operation that the oracle checks re-derive and read.
ORACLE_POINTS = 12

EGG8 = "abs2(z1)+abs2(z2)*abs2(z2)*abs2(z2)*abs2(z2)-1"
# cli._analyze_generic decides weakness from random rays.  At seed 0 ray 25
# lands within NULL_TOL of the weak set {z2 = 0} of this convex egg, and the
# report says s_upper = inf.  Whether a ray lands there depends on the seed,
# so this operation always runs at seed 0: it then fails in every run.
KNOWN_FAULTS = {
    EGG8: "weak point drawn by a random ray gives s_upper = inf on a convex "
          "domain (cli._analyze_generic)",
}

WORKLOADS = ("central", "deformed", "expr")


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    seed: int
    t: float = 0.0
    expr: str = ""
    n: int = 2


def _worm(t, seed, *extra):
    return ("analyze", "--domain", "worm", "--beta", repr(BETA), "--t", repr(t),
            "--seed", str(seed)) + extra


def _expr(text, seed):
    return ("analyze", "--expr", text, "--count", str(EXPR_COUNT),
            "--seed", str(seed))


def make_ops(workload, seed):
    if workload == "central":
        return [Op("worm t=0", _worm(0.0, seed, "--budget", str(CENTRAL_BUDGET),
                                     "--annulus-count", str(ANNULUS_COUNT)),
                   seed)]
    if workload == "deformed":
        return [Op(f"worm t={t}", _worm(t, seed, "--spc-count", str(SPC_COUNT)),
                   seed, t=t)
                for t in DEFORMED_T]
    if workload == "expr":
        rng = random.Random(seed)

        def coeff():
            return f"{rng.uniform(0.5, 3.0):.4f}"

        a, b = coeff(), coeff()
        c = f"{float(a) * rng.uniform(-0.8, 0.8):.4f}"
        texts = [
            (f"{a}*abs2(z1)+{b}*abs2(z2)-1", 2),
            # real quadratic (a + c) x1^2 + (a - c) y1^2 + |z2|^2: strictly
            # convex for |c| < a, with the pluriharmonic re(z1^2) term
            (f"{a}*abs2(z1)+{c}*re(z1*z1)+abs2(z2)-1", 2),
            ("abs2(z1)+abs2(z2)*abs2(z2)-1", 2),
            (EGG8, 2),
            (f"{coeff()}*abs2(z1)+{coeff()}*abs2(z2)+{coeff()}*abs2(z3)-1", 3),
            ("abs2(z1)+abs2(z2)+abs2(z3)*abs2(z3)-1", 3),
        ]
        ops = []
        for text, n in texts:
            op_seed = 0 if text in KNOWN_FAULTS else seed
            ops.append(Op(text, _expr(text, op_seed), op_seed, expr=text, n=n))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def construct(ops, program):
    """Build every domain the operations analyze (the benchmark's set-up)."""
    domains, exprparse, index = program.domains, program.exprparse, program.index
    built = []
    for op in ops:
        if op.expr:
            built.append(exprparse.parse_expression(op.expr))
        elif op.t == 0.0:
            base = domains.worm_rho(BETA, 0.0)
            built += [base, domains.annulus_points(BETA, ANNULUS_COUNT),
                      index.RhoFamily(base, index.worm_psi_basis())]
        else:
            built.append(domains.worm_rho(BETA, op.t))
    return built


# -- checks ---------------------------------------------------------------------


def _s_value(report):
    s = report["s_upper"]
    return math.inf if s == "inf" else float(s)


def check_report(op, report):
    """Problems with one report that its own fields show; empty if none."""
    df, s = float(report["df_lower"]), _s_value(report)
    if op.expr:
        # a convex domain has DF = S = 1
        if df != 1.0 or s != 1.0:
            return [f"convex domain gave df_lower={df}, s_upper={s}; expected 1, 1"]
        return []
    if op.t != 0.0:
        problems = []
        if report["spc"] is not True:
            problems.append("deformed fiber not reported strongly pseudoconvex")
        if df != 1.0 or s != 1.0:
            problems.append(f"deformed fiber gave ({df}, {s}); expected (1, 1)")
        if not report.get("diagnostics", {}).get("min_levi_eigenvalue", 0.0) > 0.0:
            problems.append("minimum Levi eigenvalue is not positive")
        return problems
    problems = []
    if not 0.0 < df <= DF_EXACT:
        problems.append(f"df_lower={df} outside (0, pi/(2 beta)] = (0, {DF_EXACT}]")
    if not S_EXACT <= s < math.inf:
        problems.append(f"s_upper={s} outside [{S_EXACT}, inf)")
    if report["null_count"] != ANNULUS_COUNT:
        problems.append(f"null_count={report['null_count']}: every annulus "
                        f"point is weak, expected {ANNULUS_COUNT}")
    return problems


def check_points(op, report, program):
    """Oracle checks on the points behind one report; empty if none fail.

    The program's boundary sampler is deterministic per (seed, ray), so the
    first ORACLE_POINTS rays re-derived here are the operation's own.
    """
    import numpy as np

    import oracles

    domains, exprparse, index = program.domains, program.exprparse, program.index
    problems = []
    if op.expr:
        rho = oracles.expression_rho(op.expr, op.n)
        points = domains.boundary_sample(exprparse.parse_expression(op.expr),
                                         np.zeros(2 * op.n), ORACLE_POINTS,
                                         seed=op.seed)
        for p in points:
            if not oracles.residual_ok(rho, p.z):
                problems.append(f"boundary residual {rho(p.z):.3e} at {p.z}")
        return problems

    if op.t != 0.0:
        rho = oracles.worm_rho(BETA, op.t)
        points = domains.boundary_sample(domains.worm_rho(BETA, op.t),
                                         index.WORM_ANCHOR, ORACLE_POINTS,
                                         seed=op.seed)
        for p in points:
            if not oracles.residual_ok(rho, p.z):
                problems.append(f"boundary residual {rho(p.z):.3e} at {p.z}")
                continue
            L, fd, hmax = oracles.levi_tangent(rho, p.z)
            ad = program.levi.levi_form(p.wirt, L, L).real
            if abs(ad - fd) > oracles.LEVI_TOL * max(1.0, hmax) * np.vdot(L, L).real:
                problems.append(f"Levi value AD {ad!r} vs finite differences "
                                f"{fd!r} at {p.z}")
            if not fd > 0.0:
                problems.append(f"Levi value {fd!r} not positive at {p.z}")
        return problems

    # central fiber: the annulus points, then the reported coefficients
    rho = oracles.worm_rho(BETA, 0.0)
    points = domains.annulus_points(BETA, ANNULUS_COUNT)
    r = BETA - math.pi / 2.0
    for p in points:
        u = math.log(abs(p.z[1]) ** 2)
        if abs(p.z[0]) != 0.0 or abs(u) > r * (1.0 + 1e-14):
            problems.append(f"annulus point {p.z} is off z = 0, |log|w|^2| <= {r}")
        if not oracles.residual_ok(rho, p.z):
            problems.append(f"boundary residual {rho(p.z):.3e} at {p.z}")
    family = index.RhoFamily(domains.worm_rho(BETA, 0.0), index.worm_psi_basis())
    for key, bound, reported in (("df", index.df_bound, float(report["df_lower"])),
                                 ("s", index.s_bound, _s_value(report))):
        coeffs = np.array(report["best_params"][key], dtype=float)
        value = bound(index.criterion_samples(family.realize(coeffs), points))
        if not (value == reported or abs(value - reported) <= 1e-12):
            problems.append(f"{key} bound re-run on best_params gives {value!r}, "
                            f"report says {reported!r}")
    return problems
