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
makes one such pass (null_forms) per pivot group.  PointCalculus builds
the same calculus at one boundary point.  T and the frame fields are fixed
when a calculus is built, together with omega on the frame fields;
evaluating with another admissible T or frame means building another
calculus (PointCalculus(domain, point, T=...)), whose forms method then
gives omega(L) and dbar_omega(L, Lbar) for the same vectors L.

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

from . import jets, levi
from .jets import Jet

__all__ = [
    "DAngeloError",
    "DBAR_SIGN",
    "BatchCalculus",
    "PointCalculus",
    "null_forms",
]

# Global orientation of the dbar quadratic form; see module docstring.
DBAR_SIGN = 1.0

IMAG_RESIDUE_TOL = 1e-8
# relative least-squares residual above which a vector is not tangent
DECOMPOSITION_TOL = 1e-8


class DAngeloError(ValueError):
    """Convention violation (imaginary residue) or misuse (non-tangent input)."""


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
    index) and builds, once, the order-2 jets of its holomorphic and
    antiholomorphic first derivatives, the transversal field T, the frame
    fields, and omega on each frame field.  T and the frame fields are fixed
    here for the life of the calculus: by default T = N - Nbar with
    N = sum_j (rho_{zbar_j} / |d'rho|^2) d/dz_j, and the pivoted fields
    X_j = rho_{z_pivot} d/dz_j - rho_{z_j} d/dz_pivot.  A caller that wants
    another admissible T or frame (the invariance tests do) passes its
    coefficient jets (2n entries each, (1,0) first) and gets a second
    calculus.  Vectors are (n, B) arrays, one column per batch point.
    """

    def __init__(self, n, rho_jet, pivot, T=None, frame_fields=None):
        self.n = n
        self.count = rho_jet.value.shape[0]
        self.rz = [rho_jet.wirt(k) for k in range(n)]
        self.rzb = [rho_jet.wirtbar(k) for k in range(n)]
        if T is None:
            g = _field_sum([self.rz[i] * self.rzb[i] for i in range(n)])
            N = [self.rzb[i] / g for i in range(n)]
            T = N + [-(Ni.conj()) for Ni in N]
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

    # -- values per batch column ----------------------------------------------

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

    # -- the two forms on Levi-null vectors -----------------------------------

    def forms(self, L):
        """(omega(L), dbar_omega(L, Lbar)) at each batch point for Levi-null
        (1,0) vectors L, (n, B): a (B,) complex and a (B,) real array, from
        one frame decomposition of L.

        Raises if L leaves the holomorphic tangent space, or if a dbar
        column carries an imaginary residue beyond tolerance (convention or
        extension bug).
        """
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
        return _pair(c, om), DBAR_SIGN * raw.real


class PointCalculus(BatchCalculus):
    """BatchCalculus at one boundary point, a batch of one; T and
    frame_fields as for BatchCalculus."""

    def __init__(self, domain, point, T=None, frame_fields=None):
        rho_jet = domain.rho(point.coords[:, None], order=3)
        pivot = int(levi.levi_batch(jets.wirtinger(rho_jet, domain.n)).pivot[0])
        super().__init__(domain.n, rho_jet, pivot, T, frame_fields)


# -- public operations ----------------------------------------------------------

def null_forms(n, rho_jet, pivot, L):
    """(omega(L), dbar_omega(L, Lbar)) for a batch of Levi-null vectors.

    rho_jet is the order-3 jet of rho over B boundary points whose tangent
    frames share ``pivot``, and L is (n, B), one ambient null vector per
    point.  Returns a (B,) complex and a (B,) real array (BatchCalculus.forms).
    """
    return BatchCalculus(n, rho_jet, pivot).forms(L)
