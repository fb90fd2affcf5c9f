"""The D'Angelo 1-form and its quadratic forms on the Levi null space.

Given a defining function rho, let eta = (d'rho - d''rho)/2 (a purely
imaginary 1-form annihilating the complex tangent spaces of the level sets)
and let T be a purely imaginary transversal field with eta(T) = 1.  The
1-form of interest is alpha = -Lie_T eta, computed here through Cartan's
formula alpha(Y) = -T(eta(Y)) + eta([T, Y]); omega is its restriction to
(1,0) frame vectors.  The quadratic form dbar_omega(L, Lbar) is evaluated by
extending omega by frame duality (zero on the (0,1) space and on T) and
differentiating once more:

    dbar_omega(L, Lbar) = sigma * ( -Lbar(omega(L)) - omega([L, Lbar]^{1,0}) ).

All derivatives come from third-order jets of rho: field coefficients are
rational expressions in first derivatives of rho, carried as order-2 jets,
and every directional derivative drops the order by one.

With the standard exterior derivative d a(X, Y) = X a(Y) - Y a(X) - a([X, Y])
and omega extended to vanish on the (0,1) space and on T, the right-hand side
above with sigma = +1 is exactly d omega(L, Lbar), whose (1,1) part is
dbar omega.  The convention is pinned down independently by the conformal
transformation law: replacing rho by e^psi rho shifts omega by the (1,0)
differential of psi and therefore shifts dbar_omega(L, Lbar) by minus the
complex Hessian of psi on (L, Lbar).  Calibration tests check both the shift
and the boundary-layer plurisubharmonicity threshold it predicts.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .jets import Jet
from .levi import LeviError, levi_form, levi_matrix, tangent_frame

__all__ = [
    "DAngeloError",
    "DBAR_SIGN",
    "PointCalculus",
    "omega_on_null",
    "dbar_omega",
]

# Global orientation of the dbar quadratic form; see module docstring.
DBAR_SIGN = 1.0

IMAG_RESIDUE_TOL = 1e-8


class DAngeloError(ValueError):
    """Convention violation (imaginary residue) or misuse (non-null input)."""


def _is_zero(x):
    return not isinstance(x, Jet) and x == 0.0


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
            terms.append(V[i] * f.wirt(i))
        if not _is_zero(V[n + i]):
            terms.append(V[n + i] * f.wirtbar(i))
    return _field_sum(terms)


def _conj_entry(x):
    return x.conj() if isinstance(x, Jet) else np.conj(x)


def _value_directional(f, v_values, n):
    """Value of the directional derivative of the scalar field f along the
    complexified vector with coefficient values v_values (2n entries)."""
    acc = 0.0
    for i in range(n):
        if v_values[i] != 0.0:
            acc += v_values[i] * f.wirt_value(i)
        if v_values[n + i] != 0.0:
            acc += v_values[n + i] * f.wirtbar_value(i)
    return acc


class PointCalculus:
    """Per-point jet machinery for a fixed defining function.

    Caches the order-3 jet of rho, the order-2 jets of its holomorphic and
    antiholomorphic first derivatives, the pivoted tangent frame, and the
    canonical transversal field T = N - Nbar with
    N = sum_j (rho_{zbar_j} / |d'rho|^2) d/dz_j.
    """

    def __init__(self, domain, point):
        self.domain = domain
        self.point = point
        self.n = domain.n
        self.rho_jet = domain.rho(point.coords, order=3)
        self.wirt = jets.wirtinger(self.rho_jet, self.n)
        if self.wirt.grad_norm() == 0.0:
            raise LeviError("vanishing complex gradient")
        self.rz = [self.rho_jet.wirt(k) for k in range(self.n)]
        self.rzb = [self.rho_jet.wirtbar(k) for k in range(self.n)]
        self.frame = tangent_frame(self.wirt)
        self._T = None
        self._frame_jets = None
        self._omega_cache = {}

    # -- canonical fields ---------------------------------------------------

    def transversal_jets(self):
        """Coefficient jets of T = N - Nbar (2n entries, (1,0) first)."""
        if self._T is None:
            n = self.n
            g = _field_sum([self.rz[i] * self.rzb[i] for i in range(n)])
            N = [self.rzb[i] / g for i in range(n)]
            self._T = N + [-(Ni.conj()) for Ni in N]
        return self._T

    def frame_field_jets(self):
        """Coefficient jets of the pivoted frame fields X_j (list of fields)."""
        if self._frame_jets is None:
            n = self.n
            k = self.frame.pivot
            fields = []
            for j in self.frame.others:
                coeffs = [0.0] * (2 * n)
                coeffs[j] = self.rz[k]
                coeffs[k] = -self.rz[j]
                fields.append(coeffs)
            self._frame_jets = fields
        return self._frame_jets

    # -- eta and alpha ------------------------------------------------------

    def eta_of_field(self, V):
        n = self.n
        terms = []
        for i in range(n):
            if not _is_zero(V[i]):
                terms.append(self.rz[i] * V[i])
            if not _is_zero(V[n + i]):
                terms.append(-(self.rzb[i] * V[n + i]))
        return 0.5 * _field_sum(terms)

    def alpha_field_jet(self, Y, T=None):
        """alpha(Y) = -T(eta(Y)) + eta([T, Y]) as an order-1 scalar jet."""
        n = self.n
        if T is None:
            T = self.transversal_jets()
        eta_Y = self.eta_of_field(Y)
        t_eta_Y = _field_directional(eta_Y, T, n) if isinstance(eta_Y, Jet) else 0.0
        bracket = []
        for k in range(2 * n):
            # [T, Y]^k = T(Y^k) - Y(T^k); constant coefficients differentiate to 0
            ty = _field_directional(Y[k], T, n) if isinstance(Y[k], Jet) else 0.0
            yt = _field_directional(T[k], Y, n) if isinstance(T[k], Jet) else 0.0
            bracket.append(_field_sum([ty, -yt if isinstance(yt, Jet) else 0.0]))
        eta_br = self.eta_of_field(bracket)
        out = _field_sum([-t_eta_Y if isinstance(t_eta_Y, Jet) else 0.0, eta_br])
        if not isinstance(out, Jet):
            out = jets.constant(0.0 + 0.0j, 2 * n, 1)
        return out

    def omega_frame_jets(self, T=None, frame_jets=None):
        """Order-1 jets of omega(X_j) for the frame fields."""
        key = (id(T), id(frame_jets))
        if key not in self._omega_cache:
            fj = frame_jets if frame_jets is not None else self.frame_field_jets()
            self._omega_cache[key] = [self.alpha_field_jet(Y, T) for Y in fj]
        return self._omega_cache[key]

    # -- helpers ------------------------------------------------------------

    def frame_values(self, frame_jets=None):
        fj = frame_jets if frame_jets is not None else self.frame_field_jets()
        n = self.n
        vals = np.zeros((len(fj), n), dtype=complex)
        for r, Y in enumerate(fj):
            for i in range(n):
                if isinstance(Y[i], Jet):
                    vals[r, i] = Y[i].value
                else:
                    vals[r, i] = Y[i]
        return vals

    def frame_coefficients(self, L, frame_jets=None, tol=1e-8):
        """Solve L = sum_j c_j X_j(p) for a tangent (1,0) vector L."""
        vals = self.frame_values(frame_jets)
        c, res, _, _ = np.linalg.lstsq(vals.T, np.asarray(L, dtype=complex),
                                       rcond=None)
        residual = np.linalg.norm(vals.T @ c - L)
        if residual > tol * max(1.0, np.linalg.norm(L)):
            raise DAngeloError(
                f"vector is not in the holomorphic tangent space "
                f"(decomposition residual {residual:.3e})")
        return c

    def ambient_null_vector(self, L):
        """Accept either ambient (n,) vectors or frame coefficients (n-1,)."""
        L = np.asarray(L, dtype=complex)
        if L.size == self.n - 1:
            return L @ self.frame.basis
        if L.size == self.n:
            return L
        raise DAngeloError("null vector has wrong length")


# -- public operations ----------------------------------------------------------

def omega_on_null(domain, point, L, T=None, null_tol=1e-6):
    """omega evaluated on a Levi-null (1,0) vector via its frame field."""
    pc = point if isinstance(point, PointCalculus) else PointCalculus(domain, point)
    L = pc.ambient_null_vector(L)
    _require_null(pc, L, null_tol)
    c = pc.frame_coefficients(L)
    om = pc.omega_frame_jets(T)
    return complex(sum(cj * oj.value for cj, oj in zip(c, om)))


def _require_null(pc, L, tol):
    scale = max(1.0, float(np.abs(pc.wirt.hess_mixed).max()))
    worst = max(abs(levi_form(pc.wirt, L, X)) for X in pc.frame.basis)
    if worst > tol * scale * max(1.0, np.linalg.norm(L) ** 2):
        raise DAngeloError(
            f"vector is not Levi-null (pairing {worst:.3e} above tolerance)")


def dbar_omega(domain, point, L, T=None, frame_jets=None, null_tol=1e-6,
               check_null=True):
    """The quadratic form dbar_omega(L, Lbar) on a Levi-null vector L.

    Returns a real number; raises if the computed value carries an imaginary
    residue beyond tolerance (convention or extension bug) or if L is not in
    the numerical null space.
    """
    pc = point if isinstance(point, PointCalculus) else PointCalculus(domain, point)
    n = pc.n
    L = pc.ambient_null_vector(L)
    if check_null:
        _require_null(pc, L, null_tol)

    c = pc.frame_coefficients(L, frame_jets)
    fj = frame_jets if frame_jets is not None else pc.frame_field_jets()
    om = pc.omega_frame_jets(T, frame_jets)

    # omega(L) as a scalar field along the constant-coefficient frame field
    omega_L = _field_sum([cj * oj for cj, oj in zip(c, om)])
    if _is_zero(omega_L):
        omega_L = jets.constant(0.0 + 0.0j, 2 * n, 1)

    # L and Lbar as coefficient fields
    L10 = []
    for i in range(n):
        L10.append(_field_sum([cj * Y[i] for cj, Y in zip(c, fj)
                               if not _is_zero(Y[i])]))
    Lfield = L10 + [0.0] * n
    Lbarfield = [0.0] * n + [_conj_entry(x) for x in L10]

    # term 1: -Lbar(omega(L)) at p
    lbar_vals = [np.conj(x.value if isinstance(x, Jet) else x) for x in L10]
    term1 = -sum(v * omega_L.wirtbar_value(i) for i, v in enumerate(lbar_vals)
                 if v != 0.0)

    # term 2: -omega_ext([L, Lbar]^{1,0}) at p
    l_vals = [x.value if isinstance(x, Jet) else x for x in Lfield]
    lbar_full = [0.0] * n + list(lbar_vals)
    bracket = np.zeros(2 * n, dtype=complex)
    for k in range(2 * n):
        av = _value_directional(Lbarfield[k], l_vals, n) \
            if isinstance(Lbarfield[k], Jet) else 0.0
        bv = _value_directional(Lfield[k], lbar_full, n) \
            if isinstance(Lfield[k], Jet) else 0.0
        bracket[k] = av - bv

    grad = pc.wirt.grad
    cT = 0.5 * (grad @ bracket[:n] - np.conj(grad) @ bracket[n:])
    T10_p, _ = _transversal_values(pc, T)
    v10 = bracket[:n] - cT * T10_p
    a_coeffs = pc.frame_coefficients(v10, frame_jets)
    term2 = -sum(aj * oj.value for aj, oj in zip(a_coeffs, om))

    raw = term1 + term2
    scale = 1.0 + abs(term1) + abs(term2)
    if abs(raw.imag) > IMAG_RESIDUE_TOL * scale:
        raise DAngeloError(
            f"imaginary residue {raw.imag:.3e} exceeds tolerance "
            f"(scale {scale:.3e})")
    return float(DBAR_SIGN * raw.real)


def _transversal_values(pc, T):
    if T is None:
        T = pc.transversal_jets()
    vals = [x.value if isinstance(x, Jet) else x for x in T]
    n = pc.n
    return np.asarray(vals[:n], dtype=complex), np.asarray(vals[n:], dtype=complex)

