"""Certified index bounds from null-space criterion samples.

At a weakly pseudoconvex boundary point with Levi-null direction L, the two
quadratic forms dbar = dbar_omega(L, Lbar) and msq = |omega(L)|^2 decide, for
each exponent gamma, whether the pointwise inequalities

    dbar - gamma/(1 - gamma) * msq > 0        (lower-bounds the DF exponent)
   -dbar - gamma/(gamma - 1) * msq > 0        (upper-bounds the Steinness one)

hold.  Both families are strictly monotone in gamma, so the admissible gamma
range aggregates in closed form: with r = dbar/msq the first holds iff
gamma < r/(1 + r), with s = -dbar/msq the second iff s > 1 and
gamma > s/(s - 1).  df_bound and s_bound take the inf and sup over samples;
a gamma-bisection oracle in the test suite cross-checks the rearrangement.

The defining-function degree of freedom is the conformal family
rho = e^{sum c_i psi_i} delta over a small smooth basis.  By the conformal
transformation law (ConformalLaw) one jet pass over the base samples gives
dbar and omega of every member in closed form, both affine in the
coefficients.  For fixed gamma each family of inequalities above is
therefore linear minus convex quadratic in c, its feasible set is convex,
and optimize_rho reaches the best bound over the coefficient box by
bisection on gamma over max-margin subproblems (a quasiconvex program).  The
winning coefficients are then realized and run through the full criterion
pipeline; only that certificate is reported.  Computed DF bounds are lower
bounds and Steinness bounds are upper bounds only: the family is
finite-dimensional.

Domains without a known weak set, and the deformed worm fibers, take one
sampled path instead: sampled_report runs spc_check over random boundary
rays (boundary point, Wirtinger data, Levi matrix, smallest eigenvalue) and
feeds the weak points it finds to criterion_samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import optimize as _sciopt

from . import dangelo, domains, jets, levi

__all__ = [
    "CriterionSample",
    "PsiFunction",
    "RhoFamily",
    "ConformalLaw",
    "IndexReport",
    "worm_psi_basis",
    "criterion_samples",
    "conformal_law",
    "df_bound",
    "s_bound",
    "optimize_rho",
    "spc_check",
    "sampled_report",
    "worm_fiber_report",
    "deformation_sweep",
]

SCHEMA_VERSION = 1
MSQ_EPS = 1e-10          # |omega(L)|^2 below this (times scale) counts as zero
SPC_THRESHOLD = 1e-6     # normalized Levi eigenvalue gap for strong pseudoconvexity
SPC_SAMPLES = 2000
WORM_ANCHOR = np.array([1.0, 0.0, 1.0, 0.0])
# Box |c_i| <= COEFF_BOUND on the conformal coefficients.  The worm optimum
# sits on the box, and the bound gains only 3e-5 from 4 to 10, but e^psi
# grows as e^c_1: from about c_1 = 7 the realized Levi matrix of the DF
# winner exceeds the null cutoff at some annulus points, and from about 20
# the Steinness winner's |omega|^2 falls below MSQ_EPS.  At 4 the realized
# null eigenvalues of the DF winner stay 800 times below the cutoff.
COEFF_BOUND = 4.0
BISECTION_TOL = 1e-9     # final bracket width of the bisection on the bound
PREDICTION_GAP_TOL = 1e-10  # certificate vs law, relative; larger is a fault

TOLERANCES = {"spc_threshold": SPC_THRESHOLD, "msq_eps": MSQ_EPS}


@dataclass(frozen=True)
class CriterionSample:
    """Criterion data for one Levi-null direction at one boundary point.

    msq = |omega|^2; criterion_samples also keeps omega = omega(L) itself.
    """

    point: domains.BoundaryPoint
    L: np.ndarray
    dbar: float
    msq: float
    omega: Optional[complex] = None

    def __post_init__(self):
        if not math.isfinite(self.dbar):
            raise ValueError(f"dbar is not finite: {self.dbar}")
        if not self.msq >= 0.0:
            raise ValueError(f"msq must be nonnegative, got {self.msq}")


@dataclass(frozen=True)
class PsiFunction:
    """A named smooth real scalar on C^n, evaluated as a jet."""

    name: str
    fn: Callable

    def __call__(self, coords, order=3):
        return self.fn(coords, order)


ENV_SCALE = 2.0  # Gaussian envelope width; mild on the annulus, decays beyond


def worm_psi_basis():
    """Default conformal-factor basis adapted to the worm's symmetry.

    Even polynomials in u = log|w|^2 under a Gaussian envelope (smooth,
    near 1 on the weak annulus, decaying beyond it).  Constant shifts of psi
    leave every criterion quantity invariant, so the envelope itself stands
    in for the constant.  Functions of z alone would do nothing here: on the
    annulus the Levi-null direction is d/dw at z = 0, where their
    differentials and complex Hessians vanish on it.
    """

    def u_even(power):
        def fn(coords, order=3):
            x1, y1, x2, y2 = jets.lift(coords, order)
            u = jets.log(x2 * x2 + y2 * y2)
            scaled = (1.0 / ENV_SCALE) * u
            out = jets.exp(-(scaled * scaled))
            for _ in range(power // 2):
                out = out * (u * u)
            return out.real_part()
        return fn

    return [
        PsiFunction("env", u_even(0)),
        PsiFunction("u2_env", u_even(2)),
        PsiFunction("u4_env", u_even(4)),
        PsiFunction("u6_env", u_even(6)),
    ]


class RhoFamily:
    """Conformal defining-function family rho = e^{sum c_i psi_i} delta.

    Any smooth real psi keeps the zero set, the interior sign, and the
    nonvanishing differential of delta, so every member is again a defining
    function; check_defining spot-checks this on probe points.
    """

    def __init__(self, base: domains.DomainSpec, psi_basis):
        self.base = base
        self.psi_basis = list(psi_basis)

    @property
    def dim(self):
        return len(self.psi_basis)

    def realize(self, params) -> domains.DomainSpec:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.dim,):
            raise ValueError(
                f"expected {self.dim} coefficients, got shape {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("coefficients must be finite")

        if not params.any():
            return self.base

        terms = [(c, fn) for c, fn in zip(params, self.psi_basis) if c != 0.0]

        def ev(coords, order=3):
            psi = None
            for c, fn in terms:
                term = c * fn(coords, order)
                psi = term if psi is None else psi + term
            return (jets.exp(psi) * self.base.rho(coords, order)).real_part()

        return domains.DomainSpec(
            n=self.base.n, kind=self.base.kind + "+conformal",
            params={"base": self.base.kind, "coefficients": tuple(params)},
            eval_fn=ev)

    def check_defining(self, params, probes):
        """Spot-check that the realized function defines the same domain."""
        realized = self.realize(params)
        for coords in probes:
            a = self.base.value(coords)
            b = realized.value(coords)
            if a * b < 0 or (a == 0.0) != (b == 0.0):
                raise domains.DomainError(
                    "realized rho changes sign against the base defining "
                    f"function at {coords}")


# -- criterion sampling and closed-form aggregation -----------------------------


def criterion_samples(domain, points):
    """One CriterionSample per (weak point, Levi-null basis direction).

    Strongly pseudoconvex points contribute nothing; a fully strongly
    pseudoconvex point list yields the empty list (vacuous criterion).
    """
    out = []
    for p in points:
        pc = dangelo.PointCalculus(domain, p)
        nd = levi.levi_matrix(pc.wirt, pc.frame)
        for a in nd.null_coeffs:
            L = pc.ambient_null_vector(a)
            om = dangelo.omega_on_null(domain, pc, L)
            db = dangelo.dbar_omega(domain, pc, L, check_null=False)
            out.append(CriterionSample(point=p, L=L, dbar=db,
                                       msq=abs(om) ** 2, omega=om))
    return out


def df_bound(samples, eps=MSQ_EPS):
    """Largest gamma in [0, 1] admissible for every sample.

    Empty list -> 1 (vacuous).  Degenerate msq with dbar > 0 -> the sample
    admits every gamma.  dbar <= 0 against honest msq kills all gamma -> 0.
    """
    best = 1.0
    for s in samples:
        scale = max(1.0, abs(s.dbar))
        if s.msq <= eps * scale:
            contrib = 1.0 if s.dbar > 0.0 else 0.0
        elif s.dbar <= 0.0:
            contrib = 0.0
        else:
            r = s.dbar / s.msq
            contrib = r / (1.0 + r)
        best = min(best, contrib)
        if best == 0.0:
            break
    return best


def s_bound(samples, eps=MSQ_EPS):
    """Smallest gamma in [1, inf] admissible for every sample.

    Empty list -> 1 (vacuous).  A sample with dbar >= -msq (at honest msq)
    admits no gamma > 1 at all -> infinity.
    """
    worst = 1.0
    for s in samples:
        scale = max(1.0, abs(s.dbar))
        if s.msq <= eps * scale:
            contrib = 1.0 if s.dbar < 0.0 else math.inf
        else:
            ratio = -s.dbar / s.msq
            contrib = math.inf if ratio <= 1.0 else ratio / (ratio - 1.0)
        worst = max(worst, contrib)
        if worst == math.inf:
            break
    return worst


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class IndexReport:
    """Index bounds at one deformation parameter, with provenance."""

    df_lower: float
    s_upper: float
    null_count: int
    spc: bool
    t: float
    beta: float
    seed: int
    tolerances: dict = field(default_factory=dict)
    best_params: dict = field(default_factory=dict)
    ground_truth: Optional[dict] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.df_lower <= 1.0:
            raise ValueError(f"df_lower out of range: {self.df_lower}")
        if not self.s_upper >= 1.0:
            raise ValueError(f"s_upper out of range: {self.s_upper}")
        if self.spc and (self.df_lower != 1.0 or self.s_upper != 1.0):
            raise ValueError("strong pseudoconvexity forces bounds (1, 1)")

    def to_dict(self):
        out = {
            "schema_version": SCHEMA_VERSION,
            "df_lower": self.df_lower,
            "s_upper": "inf" if self.s_upper == math.inf else self.s_upper,
            "null_count": self.null_count,
            "spc": self.spc,
            "t": self.t,
            "beta": None if math.isnan(self.beta) else self.beta,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "best_params": {k: list(map(float, v))
                            for k, v in self.best_params.items()},
        }
        if self.ground_truth is not None:
            out["ground_truth"] = dict(self.ground_truth)
        if self.diagnostics:
            out["diagnostics"] = dict(self.diagnostics)
        return out

    def to_json(self, path=None, indent=2):
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


# -- the conformal transformation law and the exact optimizer ---------------------


@dataclass(frozen=True)
class ConformalLaw:
    """Criterion data of every member of a conformal family, from one jet pass.

    Replacing delta by e^psi delta shifts omega(L) by the (1,0) differential
    d'psi(L) and dbar_omega(L, Lbar) by minus the complex Hessian
    psi_{z zbar}(L, Lbar).  The realized frame also rescales L by e^{psi(p)},
    a positive factor common to dbar and |omega|^2 that cancels from every
    ratio dbar/|omega|^2.  Up to that factor the samples of the member with
    coefficients c are

        omega_j(c) = omega0_j + (c A)_j,    dbar_j(c) = dbar0_j - (c H)_j

    with A_ij = d'psi_i(L_j) and H_ij = psi_i,zzbar(L_j, Lbar_j) at the base
    samples j.
    """

    samples: list          # criterion samples of the base delta
    omega0: np.ndarray     # (m,) complex
    dbar0: np.ndarray      # (m,) real
    A: np.ndarray          # (dim, m) complex
    H: np.ndarray          # (dim, m) real

    def predict(self, c):
        """(dbar, omega) arrays of the member with coefficients c."""
        return self.dbar0 - c @ self.H, self.omega0 + c @ self.A

    def predicted_samples(self, c):
        dbar, omega = self.predict(np.asarray(c, dtype=float))
        return [CriterionSample(point=s.point, L=s.L, dbar=float(d),
                                msq=float(abs(o) ** 2), omega=complex(o))
                for s, d, o in zip(self.samples, dbar, omega)]


def conformal_law(family, points):
    """The base criterion samples of a family and its basis columns A, H."""
    samples = criterion_samples(family.base, points)
    A = np.zeros((family.dim, len(samples)), dtype=complex)
    H = np.zeros((family.dim, len(samples)))
    for j, s in enumerate(samples):
        for i, psi in enumerate(family.psi_basis):
            w = jets.wirtinger(psi(s.point.coords, 2), family.base.n)
            A[i, j] = w.grad @ s.L
            H[i, j] = (s.L @ w.hess_mixed @ np.conj(s.L)).real
    return ConformalLaw(samples=samples,
                        omega0=np.array([s.omega for s in samples], dtype=complex),
                        dbar0=np.array([s.dbar for s in samples], dtype=float),
                        A=A, H=H)


# Both objectives bisect x in (0, 1) for the largest feasible x: x = gamma
# with k = gamma/(1 - gamma) for DF, x = 1/gamma with k = gamma/(gamma - 1)
# for Steinness.  Margins are sign * dbar - k |omega|^2.
_OBJECTIVES = {
    "df": (1.0, lambda x: x / (1.0 - x)),
    "s": (-1.0, lambda x: 1.0 / (1.0 - x)),
}

def _margins(law, sign, k, c):
    dbar, omega = law.predict(c)
    return sign * dbar - k * np.abs(omega) ** 2


def _max_margin(law, sign, k, c0):
    """Coefficients in the box maximizing the smallest margin.

    Each margin is linear minus convex quadratic in c, so the program is
    concave and SLSQP on its epigraph form reaches the global optimum.
    """
    dim, m = law.A.shape

    def margins(x):
        return _margins(law, sign, k, x[:-1]) - x[-1]

    def margins_jac(x):
        _, omega = law.predict(x[:-1])
        dc = -sign * law.H - 2.0 * k * (np.conj(omega) * law.A).real
        return np.hstack([dc.T, -np.ones((m, 1))])

    last = np.zeros(dim + 1)
    last[-1] = 1.0
    x0 = np.append(c0, _margins(law, sign, k, c0).min())
    res = _sciopt.minimize(
        lambda x: -x[-1], x0, jac=lambda x: -last, method="SLSQP",
        bounds=[(-COEFF_BOUND, COEFF_BOUND)] * dim + [(None, None)],
        constraints=[{"type": "ineq", "fun": margins, "jac": margins_jac}],
        options={"maxiter": 200, "ftol": 1e-15})
    return np.clip(res.x[:-1], -COEFF_BOUND, COEFF_BOUND)


def _bisect(law, kind, budget):
    """Coefficients of the largest x found feasible (None if none), and the
    number of bisection steps taken, at most ``budget``."""
    sign, k_of = _OBJECTIVES[kind]
    lo, hi = 0.0, 1.0
    c = np.zeros(law.A.shape[0])
    best, steps = None, 0
    while hi - lo > BISECTION_TOL and steps < budget:
        mid = 0.5 * (lo + hi)
        steps += 1
        trial = _max_margin(law, sign, k_of(mid), c)
        if _margins(law, sign, k_of(mid), trial).min() > 0.0:
            lo, c = mid, trial
            best = trial
        else:
            hi = mid
    return best, steps


def _certify(family, points, law, c, kind):
    """(coefficients, certified bound, relative prediction gap).

    The coefficients c are realized and run through criterion_samples.  The
    base delta's bound is returned instead when that fails, when the
    realization has lost (or gained) weak points against the base null
    count, when its bound is no better than the base one, or when it departs
    from the law's prediction by more than PREDICTION_GAP_TOL (a vacuous
    degenerate-msq certificate, for one).
    """
    bound = df_bound if kind == "df" else s_bound
    base = (np.zeros(family.dim), bound(law.samples), 0.0)
    if c is None:
        return base
    try:
        samples = criterion_samples(family.realize(c), points)
    except (dangelo.DAngeloError, levi.LeviError, domains.DomainError,
            FloatingPointError, OverflowError):
        return base
    value = bound(samples)
    if len(samples) != len(law.samples) or not (
            value > base[1] if kind == "df" else value < base[1]):
        return base
    gap = abs(bound(law.predicted_samples(c)) - value) / value
    return base if gap > PREDICTION_GAP_TOL else (c, value, gap)


def optimize_rho(family, points, budget=400, seed=0, t=0.0,
                 beta=float("nan"), ground_truth=None):
    """Best certified index bounds over the conformal family at weak points.

    One jet pass (conformal_law) gives the criterion of every member in
    closed form.  For the DF objective (maximized) and the Steinness one
    (minimized) separately, at most ``budget`` bisection steps on the bound
    over max-margin subproblems find the best coefficients in the box
    |c_i| <= COEFF_BOUND.  The reported bounds are the certificates of the
    realized winners (see _certify), never worse than the base-delta bounds.
    The result does not depend on ``seed``, which is only recorded.
    """
    law = conformal_law(family, points)
    null_count = len(law.samples)
    if null_count == 0:
        zeros = np.zeros(family.dim)
        return IndexReport(
            df_lower=1.0, s_upper=1.0, null_count=0, spc=True,
            t=t, beta=beta, seed=seed, tolerances=TOLERANCES,
            best_params={"df": zeros, "s": zeros}, ground_truth=ground_truth)

    base_s = s_bound(law.samples)
    diagnostics = {"base_df": df_bound(law.samples),
                   "base_s": "inf" if base_s == math.inf else base_s}
    best, values = {}, {}
    for kind in ("df", "s"):
        winner, steps = _bisect(law, kind, budget)
        best[kind], values[kind], gap = _certify(family, points, law, winner,
                                                 kind)
        diagnostics[f"{kind}_bisection_steps"] = steps
        diagnostics[f"{kind}_prediction_gap"] = gap

    return IndexReport(
        df_lower=values["df"], s_upper=values["s"],
        null_count=null_count, spc=False, t=t, beta=beta, seed=seed,
        tolerances=TOLERANCES, best_params=best, ground_truth=ground_truth,
        diagnostics=diagnostics)


# -- strong pseudoconvexity detection and the deformation sweep -------------------


def spc_check(domain, anchor, count=SPC_SAMPLES, seed=0):
    """Scan ``count`` sampled boundary points for Levi-null directions.

    Returns (weak, min_eig): the sampled points with a numerically null Levi
    eigenvalue (see levi.null_basis), and the smallest eigenvalue over all
    samples, normalized per point by the Levi matrix's spectral scale.
    """
    weak = []
    min_eig = math.inf
    for p in domains.boundary_sample(domain, anchor, count, seed=seed):
        nd = levi.levi_matrix(p.wirt, levi.tangent_frame(p.wirt))
        min_eig = min(min_eig, float(nd.eigenvalues[0]) / nd.scale)
        if nd.m > 0:
            weak.append(p)
    return weak, min_eig


def sampled_report(domain, anchor, count=SPC_SAMPLES, seed=0, t=0.0,
                   beta=float("nan")):
    """Index report of a domain from ``count`` random boundary rays.

    The weak points that spc_check finds go through criterion_samples.  The
    domain is reported strongly pseudoconvex, with bounds (1, 1), when none
    is weak and every normalized Levi eigenvalue clears SPC_THRESHOLD; this
    is a sampled verdict, not a certificate.
    """
    weak, min_eig = spc_check(domain, anchor, count, seed)
    samples = criterion_samples(domain, weak)
    spc = not samples and min_eig > SPC_THRESHOLD
    return IndexReport(
        df_lower=1.0 if spc else df_bound(samples),
        s_upper=1.0 if spc else s_bound(samples),
        null_count=len(samples), spc=spc, t=t, beta=beta, seed=seed,
        tolerances=TOLERANCES,
        diagnostics={"min_levi_eigenvalue": min_eig, "spc_samples": count})


def _worm_ground_truth(beta):
    """Known exact indices of the worm with opening beta: DF = pi/(2 beta)
    (B. Liu, Adv. Math. 353, 2019) and, for beta < pi, S = pi/(2 pi - 2 beta)
    with their relation 1/DF + 1/S.  At beta = 3 pi/4 these are 2/3, 2, 2."""
    df = math.pi / (2.0 * beta)
    if beta >= math.pi:
        return {"df": df}
    s = math.pi / (2.0 * math.pi - 2.0 * beta)
    return {"df": df, "s": s, "relation": 1.0 / df + 1.0 / s}


def worm_fiber_report(beta, t, annulus_count=33, spc_count=SPC_SAMPLES,
                      budget=400, seed=0, psi_basis=None):
    """Index report of the worm fiber at deformation parameter t.

    Nonzero t goes through sampled_report and raises LeviError unless the
    fiber is found strongly pseudoconvex.  The central fiber runs the
    conformal-family optimizer on its weak annulus, and its report carries
    _worm_ground_truth(beta).
    """
    domain = domains.worm_rho(beta, t)
    if t != 0.0:
        report = sampled_report(domain, WORM_ANCHOR, spc_count, seed, t=t,
                                beta=beta)
        if not report.spc:
            raise levi.LeviError(
                f"worm fiber t={t} fails the strong pseudoconvexity check "
                f"(min eig {report.diagnostics['min_levi_eigenvalue']:.3e})")
        return report
    family = RhoFamily(domain, psi_basis or worm_psi_basis())
    return optimize_rho(family, domains.annulus_points(beta, annulus_count),
                        budget=budget, seed=seed, t=0.0, beta=beta,
                        ground_truth=_worm_ground_truth(beta))


def deformation_sweep(beta, t_grid, annulus_count=33, spc_count=SPC_SAMPLES,
                      budget=400, seed=0, psi_basis=None):
    """Index reports (worm_fiber_report) across a deformation grid through
    the weak fiber t = 0."""
    t_grid = [float(t) for t in t_grid]
    if 0.0 not in t_grid:
        raise domains.DomainError("the deformation grid must contain t = 0")
    return [worm_fiber_report(beta, t, annulus_count=annulus_count,
                              spc_count=spc_count, budget=budget, seed=seed,
                              psi_basis=psi_basis)
            for t in t_grid]
