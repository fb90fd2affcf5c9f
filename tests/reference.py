"""Reference implementations that the tests compare the package against.

None of these is used by dfindex itself:

- ``ray_root`` is the one-ray-at-a-time boundary root finder, the oracle
  for the lockstep ``domains._ray_roots``;
- ``eta_value`` and ``transversal`` evaluate eta and the transversal field
  T = N - Nbar from the Wirtinger data alone, as value-level references for
  ``dangelo.BatchCalculus.T``;
- ``perturbed_transversal`` builds the admissible perturbations of T under
  which every null-space quantity must stay invariant;
- ``criterion_samples`` runs the criterion one point at a time through the
  per-point D'Angelo API, the oracle for the batched
  ``index.criterion_samples``.
"""

import numpy as np

from dfindex import dangelo, domains, index, levi
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
    """One CriterionSample per (weak point, Levi-null basis direction), one
    point and one direction at a time."""
    out = []
    for p in points:
        pc = dangelo.PointCalculus(domain, p)
        nd = levi.levi_matrix(pc.wirt, pc.frame)
        for a in nd.null_coeffs:
            L = pc.ambient_null_vector(a)
            om = dangelo.omega_on_null(domain, pc, L)
            db = dangelo.dbar_omega(domain, pc, L, check_null=False)
            out.append(index.CriterionSample(point=p, L=L, dbar=db,
                                             msq=abs(om) ** 2, omega=om))
    return out
