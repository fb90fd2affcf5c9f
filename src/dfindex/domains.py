"""Concrete defining functions and boundary discretization.

Provides the smooth even convex profile phi used by the worm family, the
one-parameter deformed worm defining function, reference domains (ball,
ellipsoid, user expressions), and boundary point sampling by ray bisection
plus Newton polish.  Everything here, phi-check's quadrature oracle of the
ramp included (a composite Gauss-Legendre rule), is plain numpy.

Rays come from one deterministic design, not from a random stream: ray i
is point i + 1 of the Kronecker (R_d) sequence frac(shift + k alpha) in
[0, 1)^2n (Niederreiter 1992), mapped to a normal vector by Box-Muller and divided by
its own length-2n dot product, as one ray alone would be.  The seed picks
the Cranley-Patterson shift, a hash of the seed alone, so ray i depends on
(seed, i) and not on the ray count, and sampling never imports numpy.random.
All rays of one scan run in lockstep: each doubling, bisection
or Newton step evaluates one order-1 jet over the batch of rays that still
move (see jets), instead of one jet per ray.  The roots then get one
order-2 jet pass and one Wirtinger conversion over the whole batch, and one
vectorized boundary check (a BoundaryBatch, which keeps the Wirtinger data
and not the jet); BoundaryPoint objects are built from its columns only
where a caller asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet, WirtingerData, coords_of_point, point_of_coords

__all__ = [
    "DomainError",
    "annulus_radius",
    "PhiSpec",
    "make_phi",
    "DomainSpec",
    "BoundaryPoint",
    "BoundaryBatch",
    "worm_rho",
    "ball",
    "ellipsoid",
    "boundary_scan",
    "boundary_sample",
    "annulus_points",
    "ramp_derivatives",
]

BOUNDARY_TOL = 1e-12
SEARCH_RADIUS = 10.0
# annulus_points places w = e^(+-r/2), r = beta - pi/2; up to r = 708 both
# |w|^2 = e^(+-r) are finite normal doubles (e^-709 is subnormal)
ANNULUS_BETA_MAX = math.pi / 2 + 708.0
# phi_quadrature_check's composite Gauss-Legendre rule
QUAD_PANELS = 32
QUAD_NODES = 20
# 1 / ramp(1), correctly rounded, so that phi(r + 1) = 1; a test pins it
# against ramp_derivatives
RAMP_NORMALIZER = 6.734210493715397


class DomainError(ValueError):
    """Invalid domain construction or evaluation (e.g. the w = 0 axis)."""


# -- smoothing profile --------------------------------------------------------

# exp(-1/s) is exactly 0.0 in doubles at and below this argument
_DEAD = 1.0 / 746.0
# ramp(s) is summed as a series in 1/s from here on
_SERIES_FROM = 2.0
# h(s) = ramp(s) / (s^2 exp(-1/s)) as 16 ascending coefficients in
# t in [-1, 1], Chebyshev-fitted on each of 13 rows: [0, 1/32], then the
# halves [a, 1.5a] and [1.5a, 2a] of each octave from a = 1/32 up to 2.
# Made with
#   python3 -c "import mpmath as m, numpy as np; m.mp.dps = 40; E = [0] + [m.mpf(2)**k * f for k in range(-5, 1) for f in (1, 1.5)] + [2]; h = lambda s: (1 - m.exp(1/s) * m.e1(1/s) / s) / s; print(np.array2string(np.array([[float(c) for c in m.chebyfit(lambda t: h((a + b + (b - a) * t) / 2), [-1, 1], 16)[::-1]] for a, b in zip(E, E[1:])]), separator=', ', floatmode='unique', max_line_width=79))"
_H_ROWS = np.array([0.0] + [2.0 ** k * f for k in range(-5, 1)
                            for f in (1.0, 1.5)] + [_SERIES_FROM])
_H_CENTERS = 0.5 * (_H_ROWS[:-1] + _H_ROWS[1:])
# powers of two, so that t is exact on every row but the first
_H_SCALES = 2.0 / (_H_ROWS[1:] - _H_ROWS[:-1])
_H_COEFFS = np.array(
[[ 9.7012983831167532e-01, -2.8569328570574357e-02,  1.2273330878527851e-03,
  -6.8443479323949342e-05,  4.6495399782929363e-06, -3.6971235491968906e-07,
   3.3483184108692858e-08, -3.3859814913601258e-09,  3.7663045543384029e-10,
  -4.5542992264558591e-11,  5.9314488676837364e-12, -8.2549781143105901e-13,
   1.2126881991744605e-13, -1.8903945992465854e-14,  3.5437865232008948e-15,
  -6.1553029305342351e-16],
 [ 9.2982741068069630e-01, -1.2647306957443795e-02,  2.4293216680577699e-04,
  -5.8848197730850790e-06,  1.6921054655185368e-07, -5.5630273664364704e-09,
   2.0390577052624814e-10, -8.1837199950756595e-12,  3.5483797375248211e-13,
  -1.6449770390136186e-14,  8.0867180860179370e-16, -4.1877747465240287e-17,
   2.2718728762992988e-18, -1.2854694799335731e-19,  7.6739838703071991e-21,
  -4.6756232639162227e-22],
 [ 9.0545998831233632e-01, -1.1741190619423717e-02,  2.1128326536150240e-04,
  -4.7250561441105751e-06,  1.2386361770579745e-07, -3.6723085110000703e-09,
   1.2023026563684015e-10, -4.2737039560491267e-12,  1.6287455192120499e-13,
  -6.5913845484334802e-15,  2.8111336800940346e-16, -1.2557948646352275e-17,
   5.8465545325741651e-19, -2.8252503520298693e-20,  1.4276833613252271e-21,
  -7.3627668524815089e-23],
 [ 8.7201960916329491e-01, -2.1178043123353002e-02,  6.9832808070124637e-04,
  -2.8116136211442051e-05,  1.3076584318498780e-06, -6.7939041389407966e-08,
   3.8566036079296317e-09, -2.3549482134310169e-10,  1.5292126994165591e-11,
  -1.0468185441975279e-12,  7.5028004100996691e-14, -5.5994583158495211e-15,
   4.3307369712923452e-16, -3.4604362802132748e-17,  2.9330032097894097e-18,
  -2.4815646390798609e-19],
 [ 8.3225087476028636e-01, -1.8685065944945699e-02,  5.5637058586154595e-04,
  -1.9864518819637925e-05,  8.0744854546105677e-07, -3.6226575484048953e-08,
   1.7579656424257883e-09, -9.0974943686605701e-11,  4.9690432346573048e-12,
  -2.8422612696300024e-13,  1.6921839639540462e-14, -1.0435477384656967e-15,
   6.6386922841985505e-17, -4.3436869123154777e-18,  2.9720605590441931e-19,
  -2.0422566415817981e-20],
 [ 7.8072438091050633e-01, -3.1616959929650565e-02,  1.6526630904163348e-03,
  -1.0152309089148088e-04,  6.9901018252125218e-06, -5.2458316168035257e-07,
   4.2140266158006668e-08, -3.5784286636797649e-09,  3.1830939528583568e-10,
  -2.9457285430759885e-11,  2.8210923554815456e-12, -2.7840944567038345e-13,
   2.8191720650856882e-14, -2.9258728579984672e-15,  3.2580671694143043e-16,
  -3.5287268720948688e-17],
 [ 7.2338629141137945e-01, -2.6036110304560347e-02,  1.1774901576618545e-03,
  -6.1400957505416292e-05,  3.5373654583123125e-06, -2.1961832335010340e-07,
   1.4460995778108528e-08, -9.9883728190852086e-10,  7.1797454680740231e-11,
  -5.3389168786544260e-12,  4.0881534015490121e-13, -3.2117747035639399e-14,
   2.5803642832790096e-15, -2.1162414760045381e-16,  1.8210228220464230e-17,
  -1.5477961626927196e-18],
 [ 6.5445944855178684e-01, -4.0637826493858262e-02,  3.0808571335064769e-03,
  -2.6407931546297504e-04,  2.4650131318991322e-05, -2.4520967179145830e-06,
   2.5639041777545169e-07, -2.7913707974017053e-08,  3.1429626250870021e-09,
  -3.6413646139533132e-10,  4.3241861736249319e-11, -5.2468360898988771e-12,
   6.4765162504807281e-13, -8.1462639810563010e-14,  1.1165977345296841e-14,
  -1.4486739034845937e-15],
 [ 5.8372401443151312e-01, -3.0851437407048880e-02,  1.9389307861951465e-03,
  -1.3539913862701945e-04,  1.0168443042677321e-05, -8.0608330014355396e-07,
   6.6658747479577174e-08, -5.7041227739857533e-09,  5.0218809067425536e-10,
  -4.5291620919605752e-11,  4.1706567260161434e-12, -3.9109739745806412e-13,
   3.7245043618555733e-14, -3.6003425444498003e-15,  3.6714516142116531e-16,
  -3.6405191448112956e-17],
 [ 5.0563078323346411e-01, -4.4054163928094185e-02,  4.4451004703941902e-03,
  -4.9001768120928476e-04,  5.7404468164441392e-05, -7.0349659800070823e-06,
   8.9300585300726693e-07, -1.1662682612648991e-07,  1.5595561588641141e-08,
  -2.1276626660007962e-09,  2.9534442238439959e-10, -4.1618473604875252e-11,
   5.9238009814853254e-12, -8.5597754687317434e-13,  1.3709015593833917e-13,
  -2.0250931587304538e-14],
 [ 4.3212143171222739e-01, -3.0748397911612303e-02,  2.4765251162611030e-03,
  -2.1483715699468191e-04,  1.9609579503135987e-05, -1.8586180255973301e-06,
   1.8141286171104224e-07, -1.8132469855988485e-08,  1.8484526858241803e-09,
  -1.9161097277044687e-10,  2.0151007380810275e-11, -2.1460529138504549e-12,
   2.3087815673790264e-13, -2.5111022208388152e-14,  2.8988670036415167e-15,
  -3.2094652247086264e-16],
 [ 3.5760294540618787e-01, -4.0257649427465195e-02,  5.0195539089358540e-03,
  -6.6522512828562450e-04,  9.1916900086667965e-05, -1.3099095706437080e-05,
   1.9122715105291649e-06, -2.8465383579522612e-07,  4.3063701175726522e-08,
  -6.6049164909416552e-09,  1.0252026878355952e-09, -1.6077003904496999e-10,
   2.5318847958507419e-11, -4.0392923760063557e-12,  7.2584529162594053e-13,
  -1.1759646881383635e-13],
 [ 2.9298995229298713e-01, -2.5996309005587102e-02,  2.5092039142123788e-03,
  -2.5465614310889862e-04,  2.6747719028989259e-05, -2.8818387453113455e-06,
   3.1671937225696776e-07, -3.5371733955794782e-08,  4.0034847020893385e-09,
  -4.5829350678847773e-10,  5.2979261693117177e-11, -6.1770225702895313e-12,
   7.2466105862002085e-13, -8.5708181603918424e-14,  1.0822619367674048e-14,
  -1.2957525182917581e-15]]).T
# for s >= 2, with x = 1/s: ramp(s) = s - 1 - log s + euler_gamma + x R(x)
# (Abramowitz & Stegun 5.1.11 folded with s exp(-x)), where R has the
# ascending coefficients (-1)^m / (m (m + 1)!), m = 1..16, correctly rounded
_SERIES = np.array([(-1) ** m / (m * math.factorial(m + 1))
                    for m in range(1, 17)])[:, None]


def _estrin(c, t):
    """Sum of c[k] t^k over the leading axis of c, whose length is a power of
    two, by Estrin's scheme: one vectorized step per halving.  Each column
    of the result depends only on its own columns of c and t."""
    while len(c) > 1:
        c = c[0::2] + c[1::2] * t
        t = t * t
    return c[0]


def _ramp_value(s, e):
    """ramp(s) for s >= _DEAD, given e = exp(-1/s); both (B,)."""
    far = s >= _SERIES_FROM
    if far.all() or not e.any():
        out = np.zeros_like(s)
    else:
        near = np.minimum(s, _SERIES_FROM)
        i = np.searchsorted(_H_ROWS[1:-1], near, side="right")
        h = _estrin(_H_COEFFS[:, i], (near - _H_CENTERS[i]) * _H_SCALES[i])
        out = e * (near * near * h)
    if far.any():
        sf = s[far]
        x = 1.0 / sf
        out[far] = (((sf - 1.0) - np.log(sf))
                    + (np.euler_gamma + x * _estrin(_SERIES, x)))
    return out


def ramp_derivatives(s, first, last):
    """ramp^(k)(s) for k = first..last, 0 <= first <= last <= 4.

    ramp(s) is the integral of exp(-1/t) over [0, s] for s > 0 and 0 for
    s <= 0; its derivative, the mollifier exp(-1/s), vanishes with all of
    its derivatives at s <= 0.  One exp per argument: with e = exp(-1/s),
    ramp'' = e/s^2, ramp''' = e (1 - 2s)/s^4, ramp'''' = e (1 - 6s + 6s^2)/s^6,
    and ramp = s^2 e h(s) below s = 2 (h from a piecewise Chebyshev table),
    or the series s - 1 - log s + euler_gamma + sum_m (-1)^m/(m (m+1)! s^m)
    from s = 2 on.  Plain numpy: no scipy.  For s >= 1/700 the relative
    error of ramp stays within (8 + 1/s) 2^-53, where 1/s is the rounding
    of -1/s inside exp that no double formula avoids.  Each entry depends only on its own
    argument, so a batch gives the bits of its elements taken one at a
    time.  Every entry has the shape of s.
    """
    s = np.asarray(s, dtype=float)
    shape = s.shape
    # at and below _DEAD every entry is 0.0
    s = np.maximum(s.reshape(-1), _DEAD)
    q = 1.0 / s
    e = np.exp(-q)
    derivs = [e]
    if last >= 2:
        q2 = q * q
        derivs.append(e * q2)
    if last >= 3:
        derivs.append(derivs[1] * q2 * (1.0 - 2.0 * s))
    if last >= 4:
        derivs.append(derivs[1] * (q2 * q2) * (1.0 - 6.0 * s * (1.0 - s)))
    out = derivs[max(first, 1) - 1:last]
    if first == 0:
        out = [_ramp_value(s, e)] + out
    return [d.reshape(shape) for d in out]


def annulus_radius(beta):
    """r = beta - pi/2 for a finite beta > pi/2; phi's zero set is [-r, r]."""
    if not (math.isfinite(beta) and beta > math.pi / 2):
        raise DomainError(f"beta must be finite and exceed pi/2, got {beta}")
    return beta - math.pi / 2


@dataclass(frozen=True)
class PhiSpec:
    """Even convex profile phi with phi^{-1}(0) = [-r, r] and phi(r+1) = 1.

    phi(x) = K * ramp(|x| - r), where ramp is the integral of exp(-1/s).
    For r > 0 this is the one live branch of K * (ramp(x - r) + ramp(-x - r)),
    so phi^(k)(x) = sign(x)^k K ramp^(k)(|x| - r), every order from one
    ramp_derivatives call.  K = RAMP_NORMALIZER normalizes phi(r + 1) = 1,
    beyond which phi exceeds 1 with nonvanishing slope.
    """

    r: float

    def derivatives(self, x, first, last):
        """phi^(k)(x) for k = first..last, 0 <= first <= last <= 3."""
        x = np.asarray(x, dtype=float)
        ramps = ramp_derivatives(np.abs(x) - self.r, first, last)
        odd = np.copysign(RAMP_NORMALIZER, x)
        return [(odd if k % 2 else RAMP_NORMALIZER) * d
                for k, d in enumerate(ramps, first)]

    def jet(self, xj: Jet) -> Jet:
        """phi composed with xj; only the derivatives its order needs."""
        return jets.compose(xj, *self.derivatives(xj.value, 0, xj.order))


def make_phi(beta):
    """Build the profile for a given opening parameter beta > pi/2.

    Runs a construction self-check on 2001 points of [-r - 3, r + 3]
    (convexity, the zero set, and outward growth through phi'); a failure
    there indicates a bug, not bad input.  The value-level axioms are
    cli.run_phi_check's.
    """
    r = annulus_radius(beta)
    phi = PhiSpec(r=r)

    xs = np.linspace(-r - 3.0, r + 3.0, 2001)
    d1, d2 = phi.derivatives(xs, 1, 2)
    if np.any(d2 < -1e-12):
        raise DomainError("profile self-check failed: convexity")
    # values on [-r, r] only: past r each costs a table or series evaluation
    inside = np.abs(xs) <= r
    if np.any(np.abs(phi.derivatives(xs[inside], 0, 0)[0]) > 1e-12):
        raise DomainError("profile self-check failed: zero set too small")
    # outside [-r, r], phi grows away from the interval: phi' points outward,
    # strictly from r + 0.01 on (exp(-1/s) underflows to 0 for s below about
    # 1/745); the values are checked by phi-check.
    outside = xs[~inside]
    slope = np.sign(outside) * d1[~inside]
    if np.any(slope < 0) or np.any(slope[np.abs(outside) >= r + 0.01] <= 0):
        raise DomainError("profile self-check failed: zero set too large")
    return phi


def phi_quadrature_check(phi):
    """Max deviation of ramp_derivatives' ramp from quadrature at 17 points u
    of [0.05, r + 2].

    The quadrature is a composite Gauss-Legendre rule, QUAD_NODES nodes on
    each of QUAD_PANELS equal panels of [0, u], applied to exp(-1/s), which
    is smooth there with every derivative vanishing at 0.  It shares no code
    with ramp_derivatives, so it stays an independent oracle of the ramp.
    """
    x, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    us = np.linspace(0.05, phi.r + 2.0, 17)
    h = us[:, None, None] / QUAD_PANELS  # panel width per u
    s = h * (np.arange(QUAD_PANELS)[:, None] + 0.5 * (x + 1.0))
    quad = np.sum(0.5 * h * weights * np.exp(-1.0 / s), axis=(1, 2))
    return float(np.max(np.abs(quad - ramp_derivatives(us, 0, 0)[0])))


# -- domains ------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """A defining function of the jets of 2n real coordinates.

    ``fn(xs)`` takes the coordinate jets x1, y1, ..., xn, yn over a batch
    (jets.lift) and returns the real jet of the function, of their order.
    It lifts nothing itself: rho is the one place where coordinates become
    jets, so functions of coordinate jets compose.
    """

    n: int
    fn: Callable[[list], Jet]

    def rho(self, coords, order=3) -> Jet:
        """The jet of fn at coords (2n, B), one point per column, as
        _ray_roots (order 1), boundary_batch (order 2) and
        index.criterion_samples (order 3) evaluate it; one point (2n,) is
        read as a batch of one, and its jet comes back without the batch
        axis."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            return self.fn(jets.lift(coords[:, None], order)).take(0)
        return self.fn(jets.lift(coords, order))

    def value(self, coords) -> float:
        return self.rho(coords, order=1).value

    def boundary_point(self, coords):
        """Wrap coordinates as a BoundaryPoint, verifying the residual
        (_check_boundary).

        The point carries the Wirtinger data of rho's order-2 jet: the Levi
        form needs no third derivatives.  One point is a batch of one.
        """
        coords = np.asarray(coords, dtype=float)
        return self.boundary_batch(coords[:, None]).point(0)

    def boundary_batch(self, coords):
        """The BoundaryBatch of the points that are the columns of coords
        (2n, B), from one order-2 jet pass and the check of boundary_point
        on every point."""
        coords = np.asarray(coords, dtype=float)
        w = _check_boundary(jets.wirtinger(self.rho(coords, order=2), self.n))
        return BoundaryBatch(coords=coords, wirt=w)


def _check_boundary(w):
    """Wirtinger data w of a batch, after checking that every point has a
    finite |d'rho|, |rho| <= BOUNDARY_TOL (1 + |d'rho|) and
    |d'rho| >= 1e-10 (1 + |d'rho|), d'rho the complex gradient."""
    with np.errstate(over="ignore"):  # an infinite norm raises below
        grad_norm = np.linalg.norm(w.grad, axis=0)
    if not np.isfinite(grad_norm).all():
        raise DomainError("complex gradient norm is not finite at a boundary "
                          "point")
    scale = 1.0 + grad_norm
    off = np.abs(w.value) > BOUNDARY_TOL * scale
    if off.any():
        raise DomainError(f"point is not on the boundary: |rho| = "
                          f"{abs(w.value[np.argmax(off)]):.3e}")
    if np.any(grad_norm < 1e-10 * scale):
        raise DomainError("vanishing complex gradient at boundary point")
    return w


@dataclass(frozen=True)
class BoundaryPoint:
    """A point on the zero set of a defining function with the Wirtinger
    data of its order-2 jet; wirt.value is the residual rho(point)."""

    z: np.ndarray
    coords: np.ndarray
    wirt: WirtingerData


@dataclass(frozen=True)
class BoundaryBatch:
    """B checked boundary points as one batch: coords (2n, B), one point per
    column, and the batched Wirtinger data of rho's order-2 jet."""

    coords: np.ndarray
    wirt: WirtingerData

    def point(self, b):
        """The BoundaryPoint of column b.  Its arrays are contiguous copies,
        so per-point arithmetic on them (levi.levi_form, a stacked matmul)
        rounds as it does on the point evaluated alone."""
        w = self.wirt.take(b)
        coords = self.coords[:, b].copy()
        return BoundaryPoint(
            z=point_of_coords(coords), coords=coords,
            wirt=replace(w, value=float(w.value), grad=w.grad.copy(),
                         hess_mixed=w.hess_mixed.copy()))


def worm_rho(beta, t):
    """Deformed worm defining function on C^2.

    rho_t(z, w) = |z - e^{iu}|^2 - (1 - |t|^2) + phi(u), u = log|w|^2,
    undefined on the axis w = 0.  It is evaluated expanded as

        x1 (x1 - 2 cos u) + y1 (y1 - 2 sin u) + (|t|^2 + phi(u)),

    |z|^2 - 2 Re(conj(z) e^{iu}) + |t|^2 + phi(u), the same function with
    the constant 1 = |e^{iu}|^2 cancelled.  On the central fiber's weak
    annulus (z = 0, t = 0, |u| <= beta - pi/2, where phi = 0) every term is
    then an exact 0.0, so rho vanishes there exactly instead of leaving the
    rounding of cos^2 u + sin^2 u - 1, which a steep conformal factor would
    amplify past the Levi null cutoff.
    """
    t = complex(t)
    if not abs(t) < 1:
        raise DomainError(f"deformation parameter must satisfy |t| < 1, got {abs(t)}")
    phi = make_phi(beta)
    tsq = abs(t) ** 2

    def fn(xs):
        x1, y1, x2, y2 = xs
        if np.any((x2.value == 0.0) & (y2.value == 0.0)):
            raise DomainError("worm defining function is singular at w = 0")
        u = jets.log(x2 * x2 + y2 * y2)
        return (x1 * (x1 - 2.0 * jets.cos(u)) + y1 * (y1 - 2.0 * jets.sin(u))
                + (phi.jet(u) + tsq))

    return DomainSpec(n=2, fn=fn)


def ball(n=2):
    """Unit ball in C^n: sum |z_k|^2 - 1."""
    return ellipsoid(np.ones(n))


def ellipsoid(coeffs):
    """Ellipsoid in C^n: sum c_k |z_k|^2 - 1, n >= 1 finite positive c_k,
    summed one real coordinate x_j at a time, c_k x_j^2 in coordinate order
    (so for c_k = 1 it rounds as the plain sum of squares does)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if not (coeffs.ndim == 1 and coeffs.size
            and np.all((coeffs > 0) & (coeffs < math.inf))):
        raise DomainError(f"an ellipsoid takes one or more finite positive "
                          f"coefficients, got {coeffs.tolist()}")
    weights = np.repeat(coeffs, 2)  # one per real coordinate

    def fn(xs):
        acc = None
        for c, x in zip(weights, xs):
            # c = 1 (every term of the ball) skips the scaling: 1.0 * v is v
            term = x * x if c == 1.0 else c * (x * x)
            acc = term if acc is None else acc + term
        return acc - 1.0

    return DomainSpec(n=coeffs.size, fn=fn)


# -- boundary sampling --------------------------------------------------------

def _ray_roots(domain, anchor, directions):
    """First zero of rho along anchor + s*direction for every column of
    ``directions`` (2n, B), by bracketing + bisection + Newton polish with
    all rays in lockstep.  Returns the roots as rows of a (B, 2n) array, or
    raises if a ray exits SEARCH_RADIUS without a sign change or if rho is
    NaN or infinite at any probe."""
    count = directions.shape[1]
    # per-ray slopes as contiguous length-2n dot products, the same BLAS
    # kernel, and so the same rounding, as one ray's d1 @ direction
    rows = np.ascontiguousarray(directions.T)

    def probe(s, rays, finite=True):
        with np.errstate(all="ignore"):  # a non-finite value raises below
            j = domain.rho(anchor[:, None] + s * directions[:, rays], 1)
        if finite and not np.isfinite(j.value).all():
            raise DomainError("rho is not finite on a ray from the anchor")
        return j

    # expand outward until the sign flips
    lo, hi = np.zeros(count), np.zeros(count)
    s = np.full(count, 0.25)
    rays = np.arange(count)
    while rays.size:
        if np.any(s[rays] > SEARCH_RADIUS):
            raise DomainError(
                "ray exited the search radius without leaving the domain "
                "(unbounded direction or invalid anchor)")
        try:
            v = probe(s[rays], rays).value
        except DomainError:
            # nudge only the rays whose probe hits a coordinate singularity
            singular = []
            for i in rays:
                try:
                    probe(s[i], [i], finite=False)
                except DomainError:
                    singular.append(i)
            if not singular:
                raise
            s[singular] *= 1.0 + 1e-9
            continue
        out = v > 0
        hi[rays[out]] = s[rays[out]]
        rays = rays[~out]
        lo[rays] = s[rays]
        s[rays] *= 2.0

    every = np.arange(count)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        out = probe(mid, every).value > 0
        hi = np.where(out, mid, hi)
        lo = np.where(out, lo, mid)

    s = 0.5 * (lo + hi)
    rays = every
    for _ in range(5):
        j = probe(s[rays], rays)
        g = np.matmul(np.ascontiguousarray(j.d1.T)[:, None, :],
                      rows[rays][:, :, None])[:, 0, 0]
        moving = g != 0.0
        rays, v, g = rays[moving], j.value[moving], g[moving]
        s[rays] = np.minimum(np.maximum(s[rays] - v / g, lo[rays]), hi[rays])
    return anchor + s[:, None] * rows


def _kronecker(d, count, shift):
    """Points i = 1..count of the Kronecker (R_d) sequence frac(shift +
    i alpha) in [0, 1)^d, the columns of a (d, count) array: alpha_k = g^-k,
    k = 1..d, with g the positive root of x^(d+1) = x + 1.  shift is one
    number or d of them; column i depends on i alone, not on count."""
    g = 2.0
    for _ in range(64):  # a contraction, by a factor below 1/(d + 1)
        g = (1.0 + g) ** (1.0 / (d + 1))
    i = np.arange(1, count + 1)
    return (np.reshape(shift, (-1, 1))
            + np.outer(g ** -np.arange(1.0, d + 1), i)) % 1.0


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment, 2^64 / golden ratio


def _mix64(z):
    """splitmix64's output function (Steele, Lea & Flood, OOPSLA 2014), a
    bijection of 64-bit words with full avalanche."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _seed_shift(seed, d):
    """The Cranley-Patterson shift of seed's ray design: d numbers in [0, 1).

    The seed's 64-bit words, lowest first, are absorbed into one word h by
    _mix64; shift k is the top 53 bits of _mix64(h + k _GOLDEN), k = 1..d,
    the splitmix64 stream from h.  Integer arithmetic, so any non-negative
    int seed works, and unrelated seeds get unrelated designs (a shift of
    seed * alpha would make seed s + 1 seed s's design moved by one ray)."""
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"the seed must be non-negative, got {seed}")
    h = 0
    for bit in range(0, max(seed.bit_length(), 1), 64):
        h = _mix64((h + (seed >> bit & _M64) + _GOLDEN) & _M64)
    return np.array([(_mix64((h + k * _GOLDEN) & _M64) >> 11) * 2.0 ** -53
                     for k in range(1, d + 1)])


def _ray_directions(seed, count, nvars):
    """(nvars, count) unit ray directions, nvars even: column i is point
    i + 1 of the seed's shifted R_d design through Box-Muller, each pair
    (u, v) giving sqrt(-2 log(1 - u)) (cos 2 pi v, sin 2 pi v), divided by
    its norm as one ray's np.linalg.norm computes it (the same BLAS dot
    product per row)."""
    u = _kronecker(nvars, count, _seed_shift(seed, nvars))
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * math.pi * u[1::2]
    d = np.empty((count, nvars))
    d[:, 0::2] = (radius * np.cos(angle)).T
    d[:, 1::2] = (radius * np.sin(angle)).T
    norms = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    return (d / norms[:, None]).T


def boundary_scan(domain, anchor, count, seed=0):
    """BoundaryBatch of ``count`` boundary points along the rays of
    _ray_directions from an interior anchor.

    The anchor is given by its 2n interleaved real coordinates, or by n real
    numbers, a point of R^n inside C^n.
    Deterministic: the i-th ray's direction depends on (seed, i) alone.  Every
    point satisfies |rho| <= 1e-12 * (1 + |grad|).  A count below 1 raises:
    no verdict rests on an empty sample.
    """
    if count < 1:
        raise DomainError(f"boundary sample count must be at least 1, "
                          f"got {count}")
    anchor = np.asarray(anchor, dtype=float)
    if anchor.size == domain.n:
        anchor = coords_of_point(anchor)
    elif anchor.size != 2 * domain.n:
        raise DomainError(f"anchor has {anchor.size} coordinates; a domain in "
                          f"C^{domain.n} takes {domain.n} or {2 * domain.n}")
    with np.errstate(all="ignore"):  # a NaN value is an anchor outside
        inside = domain.value(anchor) < 0
    if not inside:
        raise DomainError("anchor must lie strictly inside the domain")
    directions = _ray_directions(seed, count, 2 * domain.n)
    return domain.boundary_batch(_ray_roots(domain, anchor, directions).T)


def boundary_sample(domain, anchor, count, seed=0):
    """The points of boundary_scan(domain, anchor, count, seed), one
    BoundaryPoint each, in ray order."""
    scan = boundary_scan(domain, anchor, count, seed)
    return [scan.point(b) for b in range(count)]


def annulus_points(beta, count, domain=None):
    """Weak boundary points of the undeformed worm: z = 0 and
    |log|w|^2| <= beta - pi/2.

    The worm depends on w only through |w|, so every quantity of the
    criterion is invariant under w -> e^{i theta} w; the points therefore
    sit at real w = e^{u/2}, for ``count`` values of u spread over the
    interval.  The endpoints of the interval, and the point (0, 1), are
    always included, so ``count`` must be at least 3.  ``domain`` is the
    worm_rho(beta, 0) to place them on; by default it is built here.
    """
    if count < 3:
        raise DomainError(f"annulus point count must be at least 3 (both "
                          f"ends and the middle), got {count}")
    r = annulus_radius(beta)
    if beta > ANNULUS_BETA_MAX:
        raise DomainError(f"the annulus ends w = e^(+-r/2), r = beta - pi/2, "
                          f"need e^(+-r) to be finite normal doubles: beta "
                          f"must be at most {ANNULUS_BETA_MAX!r}, got {beta}")
    if domain is None:
        domain = worm_rho(beta, 0.0)
    us = np.linspace(-r, r, count)
    us[count // 2] = 0.0
    # one boundary_batch over all us gives the same points faster, a one-line
    # change that waits on ROADMAP item 1: the benchmark's report retention
    # reads a faster central round as a peak-RSS regression
    return [domain.boundary_point(coords_of_point([0.0, math.exp(u / 2.0)]))
            for u in us]


def samples_to_csv(scan, path):
    """Dump a BoundaryBatch as CSV: re/im of each coordinate plus the
    residual rho, one row per point."""
    import csv

    z = point_of_coords(scan.coords)
    header = []
    for i in range(len(z)):
        header += [f"re(z{i + 1})", f"im(z{i + 1})"]
    header.append("rho_residual")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for zb, value in zip(z.T, scan.wirt.value):
            row = []
            for zi in zb:
                row += [repr(float(zi.real)), repr(float(zi.imag))]
            row.append(repr(float(value)))
            writer.writerow(row)
