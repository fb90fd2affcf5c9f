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
both are array expressions over the samples, and a gamma-bisection oracle
in the test suite cross-checks the rearrangement.

criterion_samples works on all of its points at once: one order-3 jet pass
of rho over the batch and one Wirtinger conversion of it, one
levi.levi_batch call for every point's frame and Levi null directions, and
one dangelo.null_forms call, the closed form of omega and dbar_omega in
the Wirtinger derivatives of rho, over all (point, null direction) pairs.
Its result is one CriterionSamples record of arrays, one entry per pair.

The defining-function degree of freedom is the conformal family
rho = e^{sum c_i psi_i} delta.  On the central worm fiber, worm_psi_basis
supplies the extremal factor log(cos(kappa u))/kappa with kappa just below
its critical value, and optimize_rho realizes it and reports only the
certificate that the full criterion pipeline gives; the conformal
transformation law (ConformalLaw) predicts that certificate from one
order-2 jet pass per basis function, as a health check.

Domains without a known weak set, and the deformed worm fibers, take one
sampled path instead: sampled_report runs spc_check over random boundary
rays (one batched order-2 jet and Wirtinger pass over the ray roots, then
one levi.levi_batch call for every point's smallest Levi eigenvalue) and
feeds the weak points it finds to criterion_samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import dangelo, domains, jets, levi

__all__ = [
    "CriterionSamples",
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
# kappa = (1 - eps) kappa* of the worm's extremal factors, tightest first;
# optimize_rho steps down when a realization loses a weak point.
LOG_COS_GAPS = (1e-5, 1e-4, 1e-3)
PREDICTION_GAP_TOL = 1e-10  # certificate vs law, relative; larger is a fault

TOLERANCES = {"spc_threshold": SPC_THRESHOLD, "msq_eps": MSQ_EPS}


@dataclass(frozen=True, eq=False)
class CriterionSamples:
    """Criterion data of K Levi-null directions, in point order and then
    null-direction order.

    point (K,) indexes the point list the data were computed on, L (K, n)
    holds the (1,0) null directions, omega (K,) complex the values
    omega(L), and dbar (K,) real the values dbar_omega(L, Lbar).
    """

    point: np.ndarray
    L: np.ndarray
    omega: np.ndarray
    dbar: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.omega).all() and np.isfinite(self.dbar).all()):
            raise ValueError("criterion samples must be finite")

    def __len__(self):
        return len(self.dbar)

    @property
    def msq(self):
        """|omega|^2, (K,)."""
        return np.abs(self.omega) ** 2


def _smooth_step(x):
    """Jet of m(x)/(m(x) + m(1 - x)) over a batch x, for the mollifier
    m = ramp': 0 for x <= 0, 1 for x >= 1, C^inf in between.

    Where m(1 - x) is the zero jet (x >= 1 - 1/746, where exp(-1/(1 - x))
    underflows) the step is the constant 1 exactly: the quotient a/(a + 0)
    would leave the rounding noise of a (1/a) in its derivatives.  Where
    m(x) is the zero jet the quotient is an exact 0 already.
    """

    def m(y):
        return jets.compose(y, *domains.ramp_derivatives(y.value, 1, 4))

    a, b = m(x), m(1.0 - x)
    step = a / (a + b)
    one = b.value == 0.0
    parts = (step.d1, step.d2, step.d3)[:step.order]
    return jets.Jet(step.nvars, step.order, np.where(one, 1.0, step.value),
                    *(np.where(one, 0.0, d) for d in parts))


def _scatter(count, pieces, nvars, order):
    """Jet over a batch of ``count`` points that is 0 except on the columns
    of each (columns, jet) piece, where it is that jet."""
    arrays = [np.zeros((nvars,) * k + (count,)) for k in range(order + 1)]
    for idx, j in pieces:
        for a, part in zip(arrays, (j.value, j.d1, j.d2, j.d3)):
            a[..., idx] = part
    return jets.Jet(nvars, order, *arrays)


def _log_cos_factor(kappa, r0):
    """psi = log(cos(kappa u))/kappa in u = log|w|^2 on |u| <= r0, blended
    C^inf to 0 on r0 < |u| < r0 + h, h = (pi/(2 kappa) - r0)/2, and 0 beyond,
    where the logarithm ceases to exist.  Each region is evaluated on its own
    columns of the batch, so log and cos never see an argument outside their
    domain."""
    h = 0.5 * (0.5 * math.pi / kappa - r0)

    def log_cos(u):
        return (1.0 / kappa) * jets.log(jets.cos(kappa * u))

    def fn(coords, order=3):
        x1, y1, x2, y2 = jets.lift(coords, order)
        u = jets.log(x2 * x2 + y2 * y2)
        a = np.abs(u.value)
        inner = np.flatnonzero(a <= r0)
        edge = np.flatnonzero((a > r0) & (a < r0 + h))
        pieces = [(inner, log_cos(u.take(inner)))]
        if edge.size:
            ue = u.take(edge)
            abs_u = ue * np.copysign(1.0, ue.value)
            pieces.append((edge, log_cos(ue)
                           * _smooth_step((1.0 / h) * (r0 + h - abs_u))))
        return _scatter(a.size, pieces, u.nvars, order)

    return fn


def worm_psi_basis(beta=3.0 * math.pi / 4.0):
    """Extremal conformal factors of the worm with opening beta, tightest first.

    On the weak annulus |u| <= r0 = beta - pi/2, u = log|w|^2, a psi of u
    gives the criterion ratio r = -psi''/(1 + psi'^2).  r >= kappa forces
    arctan(psi') to drop by 2 kappa r0 < pi, so kappa < kappa* = pi/(2 r0),
    and psi_kappa = log(cos(kappa u))/kappa attains r = kappa.  Member i has
    kappa = (1 - LOG_COS_GAPS[i]) kappa*: +psi_kappa certifies
    DF >= kappa/(1 + kappa) < pi/(2 beta), and -psi_kappa certifies
    S <= kappa/(kappa - 1) > pi/(2 pi - 2 beta) if kappa > 1.  Past the
    annulus each member is blended to 0 (_log_cos_factor), so its annulus
    jets are exactly those of psi_kappa.
    """
    if not beta > math.pi / 2:
        raise domains.DomainError(f"beta must exceed pi/2, got {beta}")
    r0 = beta - math.pi / 2
    kappa_star = math.pi / (2.0 * r0)
    return [_log_cos_factor((1.0 - eps) * kappa_star, r0)
            for eps in LOG_COS_GAPS]


class RhoFamily:
    """Conformal defining-function family rho = e^{sum c_i psi_i} delta.

    Any smooth real psi keeps the zero set, the interior sign, and the
    nonvanishing differential of delta, so every member is again a defining
    function (tests/reference.py::check_defining spot-checks this on probe
    points).  Each psi_i is a callable psi(coords, order) giving its jet over
    a batch of coordinates of shape (2n, B), as a DomainSpec's eval_fn does
    (see jets.lift).
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


# -- criterion sampling and closed-form aggregation -----------------------------


def criterion_samples(domain, points):
    """CriterionSamples of every (weak point, Levi-null basis direction)
    pair, in point order and then null-direction order.

    One order-3 jet pass of rho and its Wirtinger conversion cover every
    point, one levi.levi_batch call gives every point's frame and Levi null
    directions, and one dangelo.null_forms call covers all (point, null
    direction) pairs.
    Strongly pseudoconvex points contribute nothing; a fully strongly
    pseudoconvex (or empty) point list yields K = 0 (vacuous criterion).
    """
    points = list(points)
    if not points:
        return CriterionSamples(point=np.zeros(0, dtype=int),
                                L=np.zeros((0, domain.n), dtype=complex),
                                omega=np.zeros(0, dtype=complex),
                                dbar=np.zeros(0))
    w = jets.wirtinger(domain.rho(np.stack([p.coords for p in points], axis=1),
                                  order=3), domain.n)
    lb = levi.levi_batch(w)
    omega, dbar = dangelo.null_forms(w.take(lb.point), lb.L.T)
    return CriterionSamples(point=lb.point, L=lb.L, omega=omega, dbar=dbar)


def _honest(samples):
    """dbar, msq, and the mask of the samples whose msq counts: above
    MSQ_EPS * max(1, |dbar|).  Below it, msq counts as zero."""
    dbar, msq = samples.dbar, samples.msq
    return dbar, msq, msq > MSQ_EPS * np.maximum(1.0, np.abs(dbar))


def df_bound(samples):
    """Largest gamma in [0, 1] admissible for every sample.

    No samples -> 1 (vacuous).  Degenerate msq with dbar > 0 -> the sample
    admits every gamma.  Any dbar <= 0 kills all gamma -> 0.
    """
    dbar, msq, honest = _honest(samples)
    if np.any(dbar <= 0.0):
        return 0.0
    r = dbar[honest] / msq[honest]
    return float(np.min(r / (1.0 + r), initial=1.0))


def s_bound(samples):
    """Smallest gamma in [1, inf] admissible for every sample.

    No samples -> 1 (vacuous).  Degenerate msq with dbar < 0 admits every
    gamma > 1.  A sample with dbar >= -msq (at honest msq; dbar >= 0 at
    degenerate msq) admits no gamma > 1 at all -> infinity.
    """
    dbar, msq, honest = _honest(samples)
    ratio = -dbar[honest] / msq[honest]
    if np.any(dbar[~honest] >= 0.0) or np.any(ratio <= 1.0):
        return math.inf
    return float(np.max(ratio / (ratio - 1.0), initial=1.0))


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

        omega_j(c) = omega_j + (c A)_j,    dbar_j(c) = dbar_j - (c H)_j

    with omega_j, dbar_j the base samples and A_ij = d'psi_i(L_j),
    H_ij = psi_i,zzbar(L_j, Lbar_j) at them.
    """

    samples: CriterionSamples  # criterion samples of the base delta, K of them
    A: np.ndarray              # (dim, K) complex
    H: np.ndarray              # (dim, K) real

    def predict(self, c):
        """The base samples shifted to the member with coefficients c."""
        return replace(self.samples, omega=self.samples.omega + c @ self.A,
                       dbar=self.samples.dbar - c @ self.H)


def conformal_law(family, points):
    """The base criterion samples of a family and its basis columns A, H,
    from one order-2 jet pass per basis function over all sample points."""
    samples = criterion_samples(family.base, points)
    A = np.zeros((family.dim, len(samples)), dtype=complex)
    H = np.zeros((family.dim, len(samples)))
    if len(samples):
        coords = np.stack([p.coords for p in points], axis=1)[:, samples.point]
        L = samples.L.T
        for i, psi in enumerate(family.psi_basis):
            w = jets.wirtinger(psi(coords, 2), family.base.n)
            A[i] = np.sum(w.grad * L, axis=0)
            H[i] = np.sum(L[:, None] * w.hess_mixed * np.conj(L)[None, :],
                          axis=(0, 1)).real
    return ConformalLaw(samples=samples, A=A, H=H)


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
    try:
        samples = criterion_samples(family.realize(c), points)
    except (dangelo.DAngeloError, levi.LeviError, domains.DomainError,
            FloatingPointError, OverflowError):
        return base
    value = bound(samples)
    if len(samples) != len(law.samples) or not (
            value > base[1] if kind == "df" else value < base[1]):
        return base
    gap = abs(bound(law.predict(c)) - value) / value
    return base if gap > PREDICTION_GAP_TOL else (c, value, gap)


def optimize_rho(family, points, seed=0, t=0.0, beta=float("nan"),
                 ground_truth=None):
    """Certified index bounds from the first accepted basis function.

    Each basis function alone is a candidate, in basis order: coefficient +1
    for the DF bound and -1 for the Steinness one.  The first candidate that
    _certify accepts is reported; if none is, the base delta's bound is.
    worm_psi_basis orders its extremal factors tightest first, so this is
    the tightest one whose realization keeps every weak point.  The result
    does not depend on ``seed``, which is only recorded.
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
    for kind, sign in (("df", 1.0), ("s", -1.0)):
        for c in np.diag(np.full(family.dim, sign)):
            best[kind], values[kind], gap = _certify(family, points, law, c,
                                                     kind)
            if best[kind].any():
                break
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
    eigenvalue (see levi.levi_batch), and the smallest eigenvalue over all
    samples, normalized per point by the Levi matrix's spectral scale.  One
    boundary_scan gives the Wirtinger data of every point as one batch, and
    one levi.levi_batch call their eigenvalues; only the weak points become
    BoundaryPoint objects.
    """
    if domain.n < 2:
        raise domains.DomainError(
            f"a domain in C^{domain.n} has no complex tangent direction, so "
            f"it has no Levi form; the index criterion needs n >= 2")
    scan = domains.boundary_scan(domain, anchor, count, seed=seed)
    lb = levi.levi_batch(scan.wirt)
    weak = [scan.point(b) for b in sorted(set(lb.point.tolist()))]
    return weak, float(np.min(lb.eigenvalues[:, 0] / lb.scale))


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
                      seed=0):
    """Index report of the worm fiber at deformation parameter t.

    Nonzero t goes through sampled_report and raises LeviError unless the
    fiber is found strongly pseudoconvex.  The central fiber certifies the
    extremal factors of worm_psi_basis(beta) on its weak annulus, and its
    report carries _worm_ground_truth(beta).
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
    family = RhoFamily(domain, worm_psi_basis(beta))
    return optimize_rho(family,
                        domains.annulus_points(beta, annulus_count, domain),
                        seed=seed, t=0.0, beta=beta,
                        ground_truth=_worm_ground_truth(beta))


def deformation_sweep(beta, t_grid, annulus_count=33, spc_count=SPC_SAMPLES,
                      seed=0):
    """Index reports (worm_fiber_report) across a deformation grid through
    the weak fiber t = 0."""
    t_grid = [float(t) for t in t_grid]
    if 0.0 not in t_grid:
        raise domains.DomainError("the deformation grid must contain t = 0")
    return [worm_fiber_report(beta, t, annulus_count=annulus_count,
                              spc_count=spc_count, seed=seed)
            for t in t_grid]
