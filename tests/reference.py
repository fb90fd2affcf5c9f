"""Reference implementations that the tests compare the package against.

None of these is used by dfindex itself:

- ``ray_root`` is the one-ray-at-a-time boundary root finder, the oracle
  for the lockstep ``domains._ray_roots``;
- ``spc_check`` is the boundary scan one point at a time, each with its own
  order-2 jet and Wirtinger conversion and its ray drawn by numpy's
  default_rng: the oracle for the batched ``index.spc_check``;
  ``stack_wirtinger`` stacks the Wirtinger data of single points into one
  batch for ``levi.levi_batch``;
- ``conj``, ``deriv``, ``wirt``, ``wirtbar``, ``wirt_value`` and
  ``wirtbar_value`` take the conjugate, a real partial derivative and the
  Wirtinger derivatives d/dz_k and d/dzbar_k of a jet, one coordinate at a
  time, as jets one order lower (or as values): the oracle for the tensors
  of ``jets.wirtinger`` and the calculus of ``CartanCalculus``;
- ``eta_value`` and ``transversal`` evaluate eta and the transversal field
  T = N - Nbar from the Wirtinger data alone, as value-level references for
  ``CartanCalculus.T``;
- ``CartanCalculus`` evaluates the D'Angelo forms by their definition, a
  vector-field calculus on jets (Cartan's formula with Lie brackets, and a
  least-squares frame decomposition per point), under any admissible
  transversal T and tangent frame: the independent oracle for the closed
  form of ``dangelo.null_forms``; ``cartan_calculus`` builds it at one
  boundary point;
- ``perturbed_transversal`` builds the admissible perturbations of T under
  which every null-space quantity must stay invariant;
- ``criterion_samples`` runs the criterion one point and one null
  direction at a time, each point with its own ``levi.levi_batch`` and
  ``cartan_calculus``: the oracle for the batched
  ``index.criterion_samples``;
- ``df_bound`` and ``s_bound`` aggregate the bounds one sample at a time,
  the oracles for the closed-form array expressions of ``index``;
- ``check_defining`` spot-checks that a member of an ``index.RhoFamily``
  defines the same domain as its base.
"""

import math

import numpy as np

from dfindex import domains, index, jets, levi
from dfindex.dangelo import DAngeloError
from dfindex.jets import Jet, JetError
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
        points.append(domains.BoundaryPoint(
            z=jets.point_of_coords(coords), coords=coords,
            wirt=jets.wirtinger(domain.rho(coords, order=2), domain.n)))
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


# -- Wirtinger derivatives of a jet as jets ------------------------------------------

def conj(j):
    """The complex conjugate of the jet j."""
    return Jet(j.nvars, j.order, np.conj(j.value), np.conj(j.d1),
               None if j.d2 is None else np.conj(j.d2),
               None if j.d3 is None else np.conj(j.d3))


def deriv(j, i):
    """Jet of the partial derivative of j with respect to real coordinate i,
    one order lower; j must have order 2 or 3."""
    if j.order < 2:
        raise JetError("cannot differentiate an order-1 jet")
    return Jet(j.nvars, j.order - 1, j.d1[i], j.d2[i],
               j.d3[i] if j.order == 3 else None)


def wirt(j, k):
    """Jet of the holomorphic Wirtinger derivative d/dz_k of j."""
    return 0.5 * (deriv(j, 2 * k) - 1j * deriv(j, 2 * k + 1))


def wirtbar(j, k):
    """Jet of the antiholomorphic Wirtinger derivative d/dzbar_k of j."""
    return 0.5 * (deriv(j, 2 * k) + 1j * deriv(j, 2 * k + 1))


def wirt_value(j, k):
    """Value of d/dz_k j at the base point (any order)."""
    return 0.5 * (j.d1[2 * k] - 1j * j.d1[2 * k + 1])


def wirtbar_value(j, k):
    """Value of d/dzbar_k j at the base point (any order)."""
    return 0.5 * (j.d1[2 * k] + 1j * j.d1[2 * k + 1])


# -- the D'Angelo forms by their definition -----------------------------------------

IMAG_RESIDUE_TOL = 1e-8
# relative least-squares residual above which a vector is not tangent
DECOMPOSITION_TOL = 1e-8


def _is_zero(x):
    # structural zero: the constant 0, never a jet or an array of values
    return not isinstance(x, (Jet, np.ndarray)) and x == 0.0


def _value(x):
    return x.value if isinstance(x, Jet) else x


def _field_sum(terms):
    acc = None
    for t in terms:
        if _is_zero(t):
            continue
        acc = t if acc is None else acc + t
    return 0.0 if acc is None else acc


def _field_directional(f, V, n):
    """Directional derivative of the scalar field f along the complexified
    field V (2n coefficient entries, (1,0) first), as a jet one order lower."""
    terms = []
    for i in range(n):
        if not _is_zero(V[i]):
            terms.append(V[i] * wirt(f, i))
        if not _is_zero(V[n + i]):
            terms.append(V[n + i] * wirtbar(f, i))
    return _field_sum(terms)


def _conj_entry(x):
    return conj(x) if isinstance(x, Jet) else np.conj(x)


def _value_directional(f, V, n):
    """Value of the directional derivative of the scalar field f along the
    complexified field V; a constant f differentiates to 0."""
    if not isinstance(f, Jet):
        return 0.0
    acc = 0.0
    for i in range(n):
        if not _is_zero(V[i]):
            acc = acc + _value(V[i]) * wirt_value(f, i)
        if not _is_zero(V[n + i]):
            acc = acc + _value(V[n + i]) * wirtbar_value(f, i)
    return acc


def _pair(coeffs, fields):
    """sum_j coeffs[j] * value(fields[j]) per batch column."""
    acc = 0.0
    for cj, fj in zip(coeffs, fields):
        acc = acc + cj * _value(fj)
    return acc


class CartanCalculus:
    """The D'Angelo forms of a fixed defining function by their definition,
    at a batch of boundary points whose pivoted tangent frames share the
    pivot coordinate.

    With eta = (d'rho - d''rho)/2 and a purely imaginary transversal T with
    eta(T) = 1, alpha = -Lie_T eta is computed through Cartan's formula
    alpha(Y) = -T(eta(Y)) + eta([T, Y]); omega is alpha on the frame fields,
    and, with omega extended by frame duality (zero on the (0,1) space and
    on T),

        dbar_omega(L, Lbar) = -Lbar(omega(L)) - omega([L, Lbar]^{1,0}).

    Takes the order-3 jet of rho over the batch (one point per trailing
    index) and builds the order-2 jets of its first derivatives, T, the
    frame fields, and omega on each frame field.  By default
    T = N - Nbar with N = sum_j (rho_{zbar_j} / |d'rho|^2) d/dz_j, and the
    frame fields are X_j = rho_{z_pivot} d/dz_j - rho_{z_j} d/dz_pivot; a
    caller may pass another admissible T or frame (coefficient jets, 2n
    entries each, (1,0) first).  Vectors are (n, B) arrays, one column per
    batch point.
    """

    def __init__(self, n, rho_jet, pivot, T=None, frame_fields=None):
        self.n = n
        self.count = rho_jet.value.shape[0]
        self.rz = [wirt(rho_jet, k) for k in range(n)]
        self.rzb = [wirtbar(rho_jet, k) for k in range(n)]
        if T is None:
            g = _field_sum([self.rz[i] * self.rzb[i] for i in range(n)])
            N = [self.rzb[i] / g for i in range(n)]
            T = N + [-conj(Ni) for Ni in N]
        if frame_fields is None:
            frame_fields = []
            for j in range(n):
                if j != pivot:
                    coeffs = [0.0] * (2 * n)
                    coeffs[j] = self.rz[pivot]
                    coeffs[pivot] = -self.rz[j]
                    frame_fields.append(coeffs)
        self.T = T
        self.frame_fields = frame_fields
        self.omega_frame = [self.alpha_field_jet(Y) for Y in frame_fields]

    def eta_of_field(self, V):
        n = self.n
        terms = []
        for i in range(n):
            if not _is_zero(V[i]):
                terms.append(self.rz[i] * V[i])
            if not _is_zero(V[n + i]):
                terms.append(-(self.rzb[i] * V[n + i]))
        return 0.5 * _field_sum(terms)

    def alpha_field_jet(self, Y):
        """alpha(Y) = -T(eta(Y)) + eta([T, Y]) as an order-1 scalar jet, or
        the constant 0 when every term vanishes structurally."""
        n = self.n
        T = self.T
        eta_Y = self.eta_of_field(Y)
        t_eta_Y = _field_directional(eta_Y, T, n) if isinstance(eta_Y, Jet) else 0.0
        bracket = []
        for k in range(2 * n):
            # [T, Y]^k = T(Y^k) - Y(T^k); constant coefficients differentiate to 0
            ty = _field_directional(Y[k], T, n) if isinstance(Y[k], Jet) else 0.0
            yt = _field_directional(T[k], Y, n) if isinstance(T[k], Jet) else 0.0
            bracket.append(_field_sum([ty, -yt if isinstance(yt, Jet) else 0.0]))
        eta_br = self.eta_of_field(bracket)
        return _field_sum([-t_eta_Y if isinstance(t_eta_Y, Jet) else 0.0, eta_br])

    def _columns(self, entries):
        """(len(entries), B) complex array of the entries' values."""
        return np.array([np.broadcast_to(_value(x), (self.count,))
                         for x in entries], dtype=complex)

    def frame_coefficients(self, L):
        """Solve L = sum_j c_j X_j(p) at each batch point, in the least-squares
        sense, for tangent (1,0) vectors L, (n, B); returns the coefficients
        as an (n-1, B) array."""
        # (B, n, n-1): the frame vectors X_j(p) as columns, one matrix per point
        X = np.stack([self._columns(Y[:self.n]) for Y in self.frame_fields],
                     axis=1).transpose(2, 0, 1)
        L = np.asarray(L, dtype=complex).T[:, :, None]
        c = np.linalg.pinv(X) @ L
        residual = np.linalg.norm(X @ c - L, axis=(1, 2))
        excess = residual / np.maximum(1.0, np.linalg.norm(L, axis=(1, 2)))
        if np.any(excess > DECOMPOSITION_TOL):
            b = int(np.argmax(excess))
            raise DAngeloError(
                f"vector is not in the holomorphic tangent space "
                f"(decomposition residual {residual[b]:.3e})")
        return c[:, :, 0].T

    def forms(self, L):
        """(omega(L), dbar_omega(L, Lbar)) at each batch point for Levi-null
        (1,0) vectors L, (n, B): a (B,) complex and a (B,) real array."""
        c = self.frame_coefficients(L)
        n = self.n
        om = self.omega_frame

        # omega(L) as a scalar field along the constant-coefficient frame field
        omega_L = _field_sum([oj * cj for cj, oj in zip(c, om)
                              if not _is_zero(oj)])

        # L and Lbar as coefficient fields
        L10 = [_field_sum([Y[i] * cj for cj, Y in zip(c, self.frame_fields)
                           if not _is_zero(Y[i])]) for i in range(n)]
        Lfield = L10 + [0.0] * n
        Lbarfield = [0.0] * n + [_conj_entry(x) for x in L10]

        # term 1: -Lbar(omega(L)) at p
        term1 = -_value_directional(omega_L, Lbarfield, n)

        # term 2: -omega_ext([L, Lbar]^{1,0}) at p
        bracket = self._columns(
            [_value_directional(Lbarfield[k], Lfield, n)
             - _value_directional(Lfield[k], Lbarfield, n)
             for k in range(2 * n)])
        grad = self._columns(self.rz)
        cT = 0.5 * (np.sum(grad * bracket[:n], axis=0)
                    - np.sum(np.conj(grad) * bracket[n:], axis=0))
        T10 = self._columns(self.T[:n])
        a_coeffs = self.frame_coefficients(bracket[:n] - cT * T10)
        term2 = -_pair(a_coeffs, om)

        raw = term1 + term2
        scale = 1.0 + np.abs(term1) + np.abs(term2)
        excess = np.abs(raw.imag) / scale
        if np.any(excess > IMAG_RESIDUE_TOL):
            b = int(np.argmax(excess))
            raise DAngeloError(
                f"imaginary residue {raw.imag[b]:.3e} exceeds tolerance "
                f"(scale {scale[b]:.3e})")
        return _pair(c, om), raw.real


def cartan_calculus(domain, point, T=None, frame_fields=None):
    """CartanCalculus at one boundary point, a batch of one, in the pivoted
    frame that levi.levi_batch chooses there."""
    rho_jet = domain.rho(point.coords[:, None], order=3)
    pivot = int(levi.levi_batch(jets.wirtinger(rho_jet, domain.n)).pivot[0])
    return CartanCalculus(domain.n, rho_jet, pivot, T, frame_fields)


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
        pc = cartan_calculus(domain, p)
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


def check_defining(family, params, probes):
    """Raise DomainError unless the member of ``family`` at ``params`` is
    finite at every probe and has the sign and zeros of the base there."""
    realized = family.realize(params)
    for coords in probes:
        a = family.base.value(coords)
        b = realized.value(coords)
        if not math.isfinite(b) or a * b < 0 or (a == 0.0) != (b == 0.0):
            raise domains.DomainError(
                f"realized rho = {b} is not finite or changes sign "
                f"against the base defining function at {coords}")
