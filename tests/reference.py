"""Reference implementations that the tests compare the package against.

None of these is used by dfindex itself:

- ``ray_root`` is the one-ray-at-a-time boundary root finder, the oracle
  for the lockstep ``domains._ray_roots``;
- ``spc_check`` is the boundary scan one point at a time, each with its own
  order-2 jet and Wirtinger conversion and its ray drawn by numpy's
  default_rng: the oracle for the batched ``index.spc_check``;
  ``stack_wirtinger`` stacks the Wirtinger data of single points into one
  batch for ``levi.levi_batch``;
- ``eta_value`` and ``transversal`` evaluate eta and the transversal field
  T = N - Nbar from the Wirtinger data alone, as value-level references for
  ``dangelo.BatchCalculus.T``;
- ``perturbed_transversal`` builds the admissible perturbations of T under
  which every null-space quantity must stay invariant;
- ``criterion_samples`` runs the criterion one point and one null
  direction at a time, each point with its own ``levi.levi_batch`` and
  ``dangelo.PointCalculus``: the oracle for the batched
  ``index.criterion_samples``;
- ``df_bound`` and ``s_bound`` aggregate the bounds one sample at a time,
  the oracles for the closed-form array expressions of ``index``.
"""

import math

import numpy as np

from dfindex import dangelo, domains, index, jets, levi
from dfindex.dangelo import _conj_entry, _field_sum, _is_zero
from dfindex.jets import Jet
from dfindex.levi import LeviError


def ray_root(domain, anchor, direction, radius=domains.SEARCH_RADIUS):
    """First zero of rho along anchor + s*direction, by bracketing + bisection
    + Newton polish, evaluating one order-1 jet per step of this one ray."""

    def val_grad(s):
        j = domain.rho(anchor + s * direction, 1)
        return j.value, float(j.d1 @ direction)

    lo = 0.0
    s = 0.25
    hi = None
    while s <= radius:
        try:
            v, _ = val_grad(s)
        except domains.DomainError:
            s *= 1.0 + 1e-9  # nudge off a coordinate singularity
            continue
        if v > 0:
            hi = s
            break
        lo = s
        s *= 2.0
    if hi is None:
        raise domains.DomainError("ray exited the search radius")

    for _ in range(40):
        mid = 0.5 * (lo + hi)
        v, _ = val_grad(mid)
        if v > 0:
            hi = mid
        else:
            lo = mid

    s = 0.5 * (lo + hi)
    for _ in range(5):
        v, g = val_grad(s)
        if g == 0.0:
            break
        s = min(max(s - v / g, lo), hi)
    return anchor + s * direction


def stack_wirtinger(ws):
    """The Wirtinger data of single points ``ws`` as one batch, in order."""
    return jets.WirtingerData(
        n=ws[0].n, value=np.array([w.value for w in ws]),
        grad=np.stack([w.grad for w in ws], axis=-1),
        hess_mixed=np.stack([w.hess_mixed for w in ws], axis=-1))


def spc_check(domain, anchor, count, seed=0):
    """(weak, min_eig) as index.spc_check defines them, from boundary points
    made one at a time: ray i along default_rng([seed, i]).normal, divided
    by its np.linalg.norm, and each root's own order-2 jet."""
    directions = np.empty((2 * domain.n, count))
    for i in range(count):
        d = np.random.default_rng([seed, i]).normal(size=2 * domain.n)
        directions[:, i] = d / np.linalg.norm(d)
    points = []
    for coords in domains._ray_roots(domain, np.asarray(anchor, dtype=float),
                                     directions):
        j = domain.rho(coords, order=2)
        points.append(domains.BoundaryPoint(
            z=jets.point_of_coords(coords), coords=coords, jet=j,
            wirt=jets.wirtinger(j, domain.n)))
    lb = levi.levi_batch(stack_wirtinger([p.wirt for p in points]))
    weak = [points[b] for b in sorted(set(lb.point.tolist()))]
    return weak, float(np.min(lb.eigenvalues[:, 0] / lb.scale))


def eta_value(w, v10, v01=None):
    """eta on a complexified vector split into (1,0) and (0,1) parts."""
    v10 = np.asarray(v10, dtype=complex)
    v01 = np.zeros_like(v10) if v01 is None else np.asarray(v01, dtype=complex)
    return complex(0.5 * (w.grad @ v10 - np.conj(w.grad) @ v01))


def transversal(w):
    """Coefficients of T = N - Nbar as ((1,0) part, (0,1) part)."""
    g = float(np.vdot(w.grad, w.grad).real)
    if g == 0.0:
        raise LeviError("vanishing complex gradient")
    N = np.conj(w.grad) / g
    return N, -np.conj(N)


def perturbed_transversal(pc, h_coeffs):
    """Admissible perturbation T' = T + H - Hbar with H = sum h_j X_j.

    This is exactly the class preserving eta(T) = 1 and pure imaginarity, so
    all null-space quantities must be invariant under it.
    """
    n = pc.n
    T = pc.T
    fj = pc.frame_fields
    H = []
    for i in range(n):
        H.append(_field_sum([hj * Y[i] for hj, Y in zip(h_coeffs, fj)
                             if not _is_zero(Y[i])]))
    out = []
    for i in range(n):
        out.append(T[i] + H[i] if isinstance(H[i], Jet) else T[i])
    for i in range(n):
        hb = _conj_entry(H[i])
        out.append(T[n + i] - hb if isinstance(hb, Jet) else T[n + i])
    return out


def criterion_samples(domain, points):
    """The CriterionSamples of every (weak point, Levi-null basis
    direction) pair, one point and one direction at a time."""
    point, Ls, omega, dbar = [], [], [], []
    for b, p in enumerate(points):
        rho = domain.rho(p.coords[:, None], order=3)
        pc = dangelo.PointCalculus(domain, p)
        for L in levi.levi_batch(jets.wirtinger(rho, domain.n)).L:
            om, db = (x[0].item() for x in pc.forms(L[:, None]))
            point.append(b)
            Ls.append(L)
            omega.append(om)
            dbar.append(db)
    return index.CriterionSamples(
        point=np.array(point, dtype=int),
        L=np.array(Ls, dtype=complex).reshape(len(Ls), domain.n),
        omega=np.array(omega, dtype=complex), dbar=np.array(dbar))


def df_bound(samples):
    """Largest gamma in [0, 1] admissible for every sample, one at a time."""
    best = 1.0
    for dbar, msq in zip(samples.dbar.tolist(), samples.msq.tolist()):
        scale = max(1.0, abs(dbar))
        if msq <= index.MSQ_EPS * scale:
            contrib = 1.0 if dbar > 0.0 else 0.0
        elif dbar <= 0.0:
            contrib = 0.0
        else:
            r = dbar / msq
            contrib = r / (1.0 + r)
        best = min(best, contrib)
    return best


def s_bound(samples):
    """Smallest gamma in [1, inf] admissible for every sample, one at a
    time."""
    worst = 1.0
    for dbar, msq in zip(samples.dbar.tolist(), samples.msq.tolist()):
        scale = max(1.0, abs(dbar))
        if msq <= index.MSQ_EPS * scale:
            contrib = 1.0 if dbar < 0.0 else math.inf
        else:
            ratio = -dbar / msq
            contrib = math.inf if ratio <= 1.0 else ratio / (ratio - 1.0)
        worst = max(worst, contrib)
    return worst
