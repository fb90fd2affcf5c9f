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

The jets may carry a batch of points (see jets).  BatchCalculus runs the
whole computation once for a batch of boundary points whose tangent frames
share a pivot, and so share the structure of their frame fields: one
(point, Levi-null vector) pair per batch column.  index.criterion_samples
makes one such pass (null_forms) per pivot group.  PointCalculus,
omega_on_null and dbar_omega are the same code on a batch of one point.

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
from .levi import LeviError, levi_form, tangent_frame

__all__ = [
    "DAngeloError",
    "DBAR_SIGN",
    "BatchCalculus",
    "PointCalculus",
    "null_forms",
    "omega_on_null",
    "dbar_omega",
]

# Global orientation of the dbar quadratic form; see module docstring.
DBAR_SIGN = 1.0

IMAG_RESIDUE_TOL = 1e-8


class DAngeloError(ValueError):
    """Convention violation (imaginary residue) or misuse (non-null input)."""


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
            terms.append(V[i] * f.wirt(i))
        if not _is_zero(V[n + i]):
            terms.append(V[n + i] * f.wirtbar(i))
    return _field_sum(terms)


def _conj_entry(x):
    return x.conj() if isinstance(x, Jet) else np.conj(x)


def _value_directional(f, V, n):
    """Value of the directional derivative of the scalar field f along the
    complexified field V; a constant f differentiates to 0."""
    if not isinstance(f, Jet):
        return 0.0
    acc = 0.0
    for i in range(n):
        if not _is_zero(V[i]):
            acc = acc + _value(V[i]) * f.wirt_value(i)
        if not _is_zero(V[n + i]):
            acc = acc + _value(V[n + i]) * f.wirtbar_value(i)
    return acc


def _pair(coeffs, fields):
    """sum_j coeffs[j] * value(fields[j]) per batch column."""
    acc = 0.0
    for cj, fj in zip(coeffs, fields):
        acc = acc + cj * _value(fj)
    return acc


class BatchCalculus:
    """Jet machinery of a fixed defining function at a batch of boundary
    points whose pivoted tangent frames share the pivot coordinate.

    Takes the order-3 jet of rho over the batch (one point per trailing
    index) and caches the order-2 jets of its holomorphic and
    antiholomorphic first derivatives, the frame fields, and the canonical
    transversal field T = N - Nbar with
    N = sum_j (rho_{zbar_j} / |d'rho|^2) d/dz_j.  Vectors are (n, B) arrays,
    one column per batch point.
    """

    def __init__(self, n, rho_jet, pivot):
        self.n = n
        self.count = rho_jet.value.shape[0]
        self.pivot = pivot
        self.others = tuple(j for j in range(n) if j != pivot)
        self.rz = [rho_jet.wirt(k) for k in range(n)]
        self.rzb = [rho_jet.wirtbar(k) for k in range(n)]
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
            k = self.pivot
            fields = []
            for j in self.others:
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
        """alpha(Y) = -T(eta(Y)) + eta([T, Y]) as an order-1 scalar jet, or
        the constant 0 when every term vanishes structurally."""
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
        return _field_sum([-t_eta_Y if isinstance(t_eta_Y, Jet) else 0.0, eta_br])

    def omega_frame_jets(self, T=None, frame_jets=None):
        """Order-1 jets of omega(X_j) for the frame fields."""
        key = (id(T), id(frame_jets))
        if key not in self._omega_cache:
            fj = frame_jets if frame_jets is not None else self.frame_field_jets()
            self._omega_cache[key] = [self.alpha_field_jet(Y, T) for Y in fj]
        return self._omega_cache[key]

    # -- values per batch column ----------------------------------------------

    def _columns(self, entries):
        """(len(entries), B) complex array of the entries' values."""
        return np.array([np.broadcast_to(_value(x), (self.count,))
                         for x in entries], dtype=complex)

    def frame_coefficients(self, L, frame_jets=None, tol=1e-8):
        """Solve L = sum_j c_j X_j(p) at each batch point, in the least-squares
        sense, for tangent (1,0) vectors L, (n, B); returns the coefficients
        as an (n-1, B) array."""
        fj = frame_jets if frame_jets is not None else self.frame_field_jets()
        # (B, n, n-1): the frame vectors X_j(p) as columns, one matrix per point
        X = np.stack([self._columns(Y[:self.n]) for Y in fj], axis=1) \
            .transpose(2, 0, 1)
        L = np.asarray(L, dtype=complex).T[:, :, None]
        c = np.linalg.pinv(X) @ L
        residual = np.linalg.norm(X @ c - L, axis=(1, 2))
        excess = residual / np.maximum(1.0, np.linalg.norm(L, axis=(1, 2)))
        if np.any(excess > tol):
            b = int(np.argmax(excess))
            raise DAngeloError(
                f"vector is not in the holomorphic tangent space "
                f"(decomposition residual {residual[b]:.3e})")
        return c[:, :, 0].T

    # -- the two forms on Levi-null vectors -----------------------------------

    def omega(self, L, T=None):
        """omega(L) at each batch point, (B,) complex, via the frame fields."""
        return _pair(self.frame_coefficients(L), self.omega_frame_jets(T))

    def dbar(self, L, T=None, frame_jets=None):
        """dbar_omega(L, Lbar) at each batch point, (B,) real.

        Raises if a column carries an imaginary residue beyond tolerance
        (convention or extension bug).
        """
        return self._dbar(self.frame_coefficients(L, frame_jets), T,
                          frame_jets)

    def _dbar(self, c, T=None, frame_jets=None):
        # c: frame coefficients of L, (n-1, B)
        n = self.n
        fj = frame_jets if frame_jets is not None else self.frame_field_jets()
        om = self.omega_frame_jets(T, frame_jets)

        # omega(L) as a scalar field along the constant-coefficient frame field
        omega_L = _field_sum([oj * cj for cj, oj in zip(c, om)
                              if not _is_zero(oj)])

        # L and Lbar as coefficient fields
        L10 = [_field_sum([Y[i] * cj for cj, Y in zip(c, fj)
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
        T10 = self._columns((T if T is not None else self.transversal_jets())[:n])
        a_coeffs = self.frame_coefficients(bracket[:n] - cT * T10, frame_jets)
        term2 = -_pair(a_coeffs, om)

        raw = term1 + term2
        scale = 1.0 + np.abs(term1) + np.abs(term2)
        excess = np.abs(raw.imag) / scale
        if np.any(excess > IMAG_RESIDUE_TOL):
            b = int(np.argmax(excess))
            raise DAngeloError(
                f"imaginary residue {raw.imag[b]:.3e} exceeds tolerance "
                f"(scale {scale[b]:.3e})")
        return DBAR_SIGN * raw.real


class PointCalculus(BatchCalculus):
    """BatchCalculus at one boundary point, with that point's Wirtinger data
    (wirt) and pivoted tangent frame (frame)."""

    def __init__(self, domain, point):
        self.domain = domain
        self.point = point
        rho_jet = domain.rho(point.coords[:, None], order=3)
        self.wirt = jets.wirtinger(rho_jet, domain.n).take(0)
        if self.wirt.grad_norm() == 0.0:
            raise LeviError("vanishing complex gradient")
        self.frame = tangent_frame(self.wirt)
        super().__init__(domain.n, rho_jet, self.frame.pivot)

    def ambient_null_vector(self, L):
        """Accept either ambient (n,) vectors or frame coefficients (n-1,)."""
        L = np.asarray(L, dtype=complex)
        if L.size == self.n - 1:
            return L @ self.frame.basis
        if L.size == self.n:
            return L
        raise DAngeloError("null vector has wrong length")


# -- public operations ----------------------------------------------------------

def null_forms(n, rho_jet, pivot, L):
    """(omega(L), dbar_omega(L, Lbar)) for a batch of Levi-null vectors.

    rho_jet is the order-3 jet of rho over B boundary points whose tangent
    frames share ``pivot``, and L is (n, B), one ambient null vector per
    point.  Returns a (B,) complex and a (B,) real array; both forms share
    one frame decomposition of L.
    """
    calc = BatchCalculus(n, rho_jet, pivot)
    c = calc.frame_coefficients(L)
    return _pair(c, calc.omega_frame_jets()), calc._dbar(c)


def omega_on_null(domain, point, L, T=None, null_tol=1e-6):
    """omega evaluated on a Levi-null (1,0) vector via its frame field."""
    pc = point if isinstance(point, PointCalculus) else PointCalculus(domain, point)
    L = pc.ambient_null_vector(L)
    _require_null(pc, L, null_tol)
    return complex(pc.omega(L[:, None], T)[0])


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
    L = pc.ambient_null_vector(L)
    if check_null:
        _require_null(pc, L, null_tol)
    return float(pc.dbar(L[:, None], T, frame_jets)[0])
