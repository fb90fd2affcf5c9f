"""The D'Angelo 1-form and its quadratic form on the Levi null space, in
closed form.

Given a defining function rho, let eta = (d'rho - d''rho)/2 (a purely
imaginary 1-form annihilating the complex tangent spaces of the level sets),
T = N - Nbar the transversal field with N = sum_k (rho_kbar / g) d/dz_k,
g = sum_k |rho_k|^2, so that eta(T) = 1, and alpha = -Lie_T eta.  omega is
alpha on (1,0) tangent vectors, and dbar_omega(L, Lbar) is d omega(L, Lbar)
with omega extended by zero on the (0,1) space and on T.  Both have closed
forms in the Wirtinger derivatives of rho up to order 3 (rho_k = d rho/dz_k,
rho_{k mbar}, rho_{lm}, rho_{k mbar lbar}) at a (1,0) vector L with
sum_k rho_k L^k = 0:

    v_m = sum_k L^k rho_{k mbar}       omega(L) = sum_m v_m rho_m / g
    A = sum rho_{k mbar lbar} L^k rho_m conj(L^l)
    S = sum rho_{lm} L^l conj(rho_m)    Q = sum rho_{k mbar} conj(rho_k) rho_m
    lev = sum_m v_m conj(L^m)

    dbar_omega(L, Lbar) = Re[(-A + omega conj(S)) / g] + |omega|^2
                          - sum_m |v_m|^2 / g + Q lev / g^2.

Derivation.  On a tangent frame field X, eta(X) vanishes identically, so
Cartan's formula alpha(X) = -T(eta(X)) + eta([T, X]) leaves
eta([T, X]) = levi(X, N): omega(L) = levi(L, N), the first line.  Extended
as above, omega is the (1,0)-form omega_k = h_k/g - rho_k Q/g^2 with
h_k = sum_m rho_{k mbar} rho_m (it vanishes on N and agrees with levi(., N)
on the tangent space), and then

    dbar_omega(L, Lbar) = -sum_{k,l} L^k conj(L^l) d/dzbar_l omega_k,

which expands to the second line.  At an exactly Levi-null L,
v_m = omega(L) conj(rho_m) and lev = 0, so its last three terms cancel;
they are kept so that numerically near-null directions give the value of
the full Cartan calculus, which the test suite carries as an independent
oracle (tests/reference.py).

The sign convention is that of the standard exterior derivative
d a(X, Y) = X a(Y) - Y a(X) - a([X, Y]).  It is pinned down independently
by the conformal transformation law: replacing rho by e^psi rho shifts omega
by the (1,0) differential of psi and therefore shifts dbar_omega(L, Lbar) by
minus the complex Hessian of psi on (L, Lbar).  Calibration tests check both
the shift and the boundary-layer plurisubharmonicity threshold it predicts.

null_forms evaluates both forms as one array expression over a batch of
(point, null direction) columns.  It reads the four Wirtinger tensors of
jets.wirtinger (grad, hess, hess_mixed, third), never the real jet, so
jets.wirtinger is the one place where d/dz and d/dzbar are formed.
PointCalculus, kept only for the benchmark's tracer, is the same at one
boundary point.
"""

from __future__ import annotations

import numpy as np

from . import jets

__all__ = [
    "DAngeloError",
    "PointCalculus",
    "null_forms",
]

IMAG_RESIDUE_TOL = 1e-8  # |Im| of dbar relative to its summed terms
TANGENT_TOL = 1e-8       # |sum rho_k L^k| relative to |d'rho| |L|


class DAngeloError(ValueError):
    """Convention violation (imaginary residue) or misuse (non-tangent input)."""


def null_forms(w, L):
    """(omega(L), dbar_omega(L, Lbar)) for a batch of Levi-null vectors.

    w is the WirtingerData of rho's order-3 jet over K boundary points and
    L is (n, K), one ambient (1,0) vector per point.  Returns a (K,) complex
    and a (K,) real array.  Raises DAngeloError if an L leaves the
    holomorphic tangent space, or if a dbar carries an imaginary residue
    beyond tolerance.
    """
    L = np.asarray(L, dtype=complex)
    Lb = np.conj(L)
    r, r_hh, r_hb, r_hbb = w.grad, w.hess, w.hess_mixed, w.third

    g = np.sum(np.abs(r) ** 2, axis=0)
    off = np.abs(np.sum(r * L, axis=0))
    bad = off > TANGENT_TOL * np.sqrt(g) * np.linalg.norm(L, axis=0)
    if bad.any():
        b = int(np.argmax(bad))
        raise DAngeloError(f"vector is not in the holomorphic tangent space "
                           f"(|d'rho(L)| = {off[b]:.3e})")

    v = np.einsum("kb,kmb->mb", L, r_hb)
    omega = np.sum(v * r, axis=0) / g
    A = np.einsum("kmlb,kb,mb,lb->b", r_hbb, L, r, Lb)
    S = np.einsum("lmb,lb,mb->b", r_hh, L, np.conj(r))
    Q = np.einsum("kmb,kb,mb->b", r_hb, np.conj(r), r)
    lev = np.sum(v * Lb, axis=0)
    vsq = np.sum(np.abs(v) ** 2, axis=0) / g
    msq = np.abs(omega) ** 2
    terms = (-A, omega * np.conj(S), Q * lev / g)  # each divided by g below
    raw = sum(terms) / g
    scale = sum(np.abs(t) for t in terms) / g + msq + vsq
    bad = np.abs(raw.imag) > IMAG_RESIDUE_TOL * scale
    if bad.any():
        b = int(np.argmax(bad))
        raise DAngeloError(f"imaginary residue {raw.imag[b]:.3e} exceeds "
                           f"tolerance (scale {scale[b]:.3e})")
    return omega, raw.real + msq - vsq


class PointCalculus:
    """null_forms at one boundary point, a batch of one.

    Nothing in the package or its tests calls it; its one remaining user is
    benchmarks/tracing.py, which patches __init__ through the class
    __dict__.  Delete it once the tracer stops doing that.
    """

    def __init__(self, domain, point):
        self.wirt = jets.wirtinger(domain.rho(point.coords[:, None], order=3),
                                   domain.n)

    def forms(self, L):
        """(omega(L), dbar_omega(L, Lbar)) for Levi-null vectors L, (n, B),
        all at this point: a (B,) complex and a (B,) real array."""
        return null_forms(self.wirt.take(np.zeros(np.shape(L)[1], int)), L)
