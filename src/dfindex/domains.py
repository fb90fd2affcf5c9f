"""Concrete defining functions and boundary discretization.

Provides the smooth even convex profile phi used by the worm family, the
one-parameter deformed worm defining function, reference domains (ball,
ellipsoid, user expressions), and boundary point sampling by ray bisection
plus Newton polish.  All rays of one boundary_sample call run in lockstep:
each doubling, bisection or Newton step evaluates one order-1 jet over the
batch of rays that still move (see jets), instead of one jet per ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet, WirtingerData, coords_of_point, point_of_coords

__all__ = [
    "DomainError",
    "PhiSpec",
    "make_phi",
    "DomainSpec",
    "BoundaryPoint",
    "worm_rho",
    "ball",
    "ellipsoid",
    "boundary_sample",
    "annulus_points",
    "mollifier",
    "mollifier_d1",
    "mollifier_d2",
    "mollifier_d3",
]

BOUNDARY_TOL = 1e-12
SEARCH_RADIUS = 10.0
# 1 / _ramp(1), so that phi(r + 1) = 1; a test pins it against _ramp
RAMP_NORMALIZER = 6.734210493715406


class DomainError(ValueError):
    """Invalid domain construction or evaluation (e.g. the w = 0 axis)."""


# -- smoothing profile --------------------------------------------------------

def mollifier(s):
    """exp(-1/s) for s > 0, identically 0 for s <= 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out if out.ndim else float(out)


def _moll_scaled(s, k):
    # exp(-1/s) / s^k computed as exp(-1/s - k log s); avoids 0 * inf at s -> 0+
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    sp = s[pos]
    out[pos] = np.exp(-1.0 / sp - k * np.log(sp))
    return out if out.ndim else float(out)


def mollifier_d1(s):
    return _moll_scaled(s, 2)


def mollifier_d2(s):
    return _moll_scaled(s, 4) - 2.0 * _moll_scaled(s, 3)


def mollifier_d3(s):
    return _moll_scaled(s, 6) - 6.0 * _moll_scaled(s, 5) + 6.0 * _moll_scaled(s, 4)


def _ramp(u):
    """Antiderivative of the mollifier: integral of exp(-1/s) over [0, u].

    Closed form u*exp(-1/u) - E1(1/u) for u > 0; zero for u <= 0.  Smooth,
    convex, and exact to machine precision (an adaptive-quadrature cross-check
    lives in phi_quadrature_check).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    e = np.zeros_like(u)
    pos = u > 0
    e[pos] = np.exp(-1.0 / u[pos])
    # where exp(-1/u) underflows to 0, E1(1/u) < exp(-1/u) does too and the
    # ramp is exactly 0.  Only the other arguments import scipy.special,
    # which costs about 25 MB and 0.3 s at start-up: the central worm fiber,
    # whose arguments all lie below 1e-15, never loads it.
    live = e > 0.0
    if live.any():
        from scipy.special import exp1

        up = u[live]
        out[live] = up * e[live] - exp1(1.0 / up)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PhiSpec:
    """Even convex profile phi with phi^{-1}(0) = [-r, r] and phi(r+1) = 1.

    phi(x) = K * (ramp(x - r) + ramp(-x - r)) where ramp is the integral of
    exp(-1/s).  K = RAMP_NORMALIZER normalizes phi(r + 1) = 1, which fixes
    the threshold a = r + 1 beyond which phi exceeds 1 with nonvanishing
    slope.
    """

    r: float

    @property
    def a(self):
        return self.r + 1.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return RAMP_NORMALIZER * (_ramp(x - self.r) + _ramp(-x - self.r))

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        return RAMP_NORMALIZER * (mollifier(x - self.r)
                                  - mollifier(-x - self.r))

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        return RAMP_NORMALIZER * (mollifier_d1(x - self.r)
                                  + mollifier_d1(-x - self.r))

    def d3(self, x):
        x = np.asarray(x, dtype=float)
        return RAMP_NORMALIZER * (mollifier_d2(x - self.r)
                                  - mollifier_d2(-x - self.r))

    def jet(self, xj: Jet) -> Jet:
        """phi composed with xj; only the derivatives its order needs."""
        v = xj.value
        derivs = (self.value, self.d1, self.d2, self.d3)[:xj.order + 1]
        return jets.compose(xj, *(f(v) for f in derivs))


def make_phi(beta):
    """Build the profile for a given opening parameter beta > pi/2.

    Runs a construction self-check on 2001 points of [-r - 3, r + 3]
    (convexity, the zero set, and outward growth through phi'); a failure
    there indicates a bug, not bad input.  The value-level axioms are
    cli.run_phi_check's.
    """
    if not beta > math.pi / 2:
        raise DomainError(f"beta must exceed pi/2, got {beta}")
    r = beta - math.pi / 2
    phi = PhiSpec(r=r)

    xs = np.linspace(-r - 3.0, r + 3.0, 2001)
    if np.any(phi.d2(xs) < -1e-12):
        raise DomainError("profile self-check failed: convexity")
    inside = np.abs(xs) <= r
    if np.any(np.abs(phi.value(xs[inside])) > 1e-12):
        raise DomainError("profile self-check failed: zero set too small")
    # outside [-r, r], phi grows away from the interval: phi' points outward,
    # strictly from r + 0.01 on (exp(-1/s) underflows to 0 for s below about
    # 1/745).  The slope needs no scipy; the values are checked by phi-check.
    outside = xs[~inside]
    slope = np.sign(outside) * phi.d1(outside)
    if np.any(slope < 0) or np.any(slope[np.abs(outside) >= r + 0.01] <= 0):
        raise DomainError("profile self-check failed: zero set too large")
    return phi


def phi_quadrature_check(phi):
    """Max deviation of the closed-form ramp from adaptive quadrature at 17
    points of [0.05, r + 2]."""
    from scipy.integrate import quad

    worst = 0.0
    for u in np.linspace(0.05, phi.r + 2.0, 17):
        q, _ = quad(lambda s: math.exp(-1.0 / s) if s > 0 else 0.0, 0.0, u,
                    epsabs=1e-12, epsrel=1e-13)
        worst = max(worst, abs(q - _ramp(u)))
    return worst


# -- domains ------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """A defining function with jet evaluation over 2n real coordinates.

    ``eval_fn(coords, order)`` returns a real-valued Jet of the requested
    order at the given interleaved real coordinates.  boundary_sample (at
    order 1) and index.criterion_samples (at order 3) pass a (2n, B) batch,
    one point per column, and need the batched jet back (see jets.lift).
    """

    n: int
    kind: str
    params: dict = field(default_factory=dict)
    eval_fn: Callable[[np.ndarray, int], Jet] = None

    def rho(self, coords, order=3) -> Jet:
        return self.eval_fn(np.asarray(coords, dtype=float), order)

    def value(self, coords) -> float:
        return self.rho(coords, order=1).value

    def boundary_point(self, coords):
        """Wrap coordinates as a BoundaryPoint, verifying the residual.

        The point carries the order-2 jet of rho and its Wirtinger data: the
        Levi form needs no third derivatives.
        """
        coords = np.asarray(coords, dtype=float)
        j = self.rho(coords, order=2)
        w = jets.wirtinger(j, self.n)
        scale = 1.0 + w.grad_norm()
        if abs(j.value) > BOUNDARY_TOL * scale:
            raise DomainError(
                f"point is not on the boundary: |rho| = {abs(j.value):.3e}")
        if w.grad_norm() < 1e-10 * scale:
            raise DomainError("vanishing complex gradient at boundary point")
        return BoundaryPoint(z=point_of_coords(coords), coords=coords, jet=j,
                             wirt=w)


@dataclass(frozen=True)
class BoundaryPoint:
    """A point on the zero set of a defining function with its order-2 jet."""

    z: np.ndarray
    coords: np.ndarray
    jet: Jet
    wirt: WirtingerData


def worm_rho(beta, t):
    """Deformed worm defining function on C^2.

    rho_t(z, w) = |z - e^{i log|w|^2}|^2 - (1 - phi(log|w|^2) - |t|^2),
    undefined on the axis w = 0.
    """
    t = complex(t)
    if not abs(t) < 1:
        raise DomainError(f"deformation parameter must satisfy |t| < 1, got {abs(t)}")
    phi = make_phi(beta)
    tsq = abs(t) ** 2

    def ev(coords, order=3):
        if coords.ndim == 1:  # `and` on one point: np.any costs 50x more
            singular = coords[2] == 0.0 and coords[3] == 0.0
        else:
            singular = np.any((coords[2] == 0.0) & (coords[3] == 0.0))
        if singular:
            raise DomainError("worm defining function is singular at w = 0")
        x1, y1, x2, y2 = jets.lift(coords, order)
        wsq = x2 * x2 + y2 * y2
        u = jets.log(wsq)
        dre = x1 - jets.cos(u)
        dim = y1 - jets.sin(u)
        return dre * dre + dim * dim - (1.0 - tsq) + phi.jet(u)

    return DomainSpec(n=2, kind="worm",
                      params={"beta": beta, "t": t, "phi": phi}, eval_fn=ev)


def ball(n=2):
    """Unit ball: sum |z_i|^2 - 1."""

    def ev(coords, order=3):
        xs = jets.lift(coords, order)
        acc = xs[0] * xs[0]
        for x in xs[1:]:
            acc = acc + x * x
        return acc - 1.0

    return DomainSpec(n=n, kind="ball", eval_fn=ev)


def ellipsoid(coeffs):
    """Ellipsoid: sum c_i |z_i|^2 - 1 with positive coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(coeffs <= 0):
        raise DomainError("ellipsoid coefficients must be positive")
    n = coeffs.size

    def ev(coords, order=3):
        xs = jets.lift(coords, order)
        acc = None
        for i, c in enumerate(coeffs):
            term = c * (xs[2 * i] * xs[2 * i] + xs[2 * i + 1] * xs[2 * i + 1])
            acc = term if acc is None else acc + term
        return acc - 1.0

    return DomainSpec(n=n, kind="ellipsoid", params={"coeffs": coeffs}, eval_fn=ev)


# -- boundary sampling --------------------------------------------------------

def _ray_roots(domain, anchor, directions):
    """First zero of rho along anchor + s*direction for every column of
    ``directions`` (2n, B), by bracketing + bisection + Newton polish with
    all rays in lockstep.  Returns the roots as rows of a (B, 2n) array, or
    raises if a ray exits SEARCH_RADIUS without a sign change."""
    count = directions.shape[1]
    # per-ray slopes as contiguous length-2n dot products, the same BLAS
    # kernel, and so the same rounding, as one ray's d1 @ direction
    rows = np.ascontiguousarray(directions.T)

    def probe(s, rays):
        return domain.rho(anchor[:, None] + s * directions[:, rays], 1)

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
                    probe(s[i], [i])
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


def boundary_sample(domain, anchor, count, seed=0):
    """Sample boundary points along random rays from an interior anchor.

    Deterministic: the i-th ray derives its direction from (seed, i).  Every
    returned point satisfies |rho| <= 1e-12 * (1 + |grad|).  A count below 1
    raises: no verdict rests on an empty sample.
    """
    if count < 1:
        raise DomainError(f"boundary sample count must be at least 1, "
                          f"got {count}")
    anchor = np.asarray(anchor, dtype=float)
    if anchor.size != 2 * domain.n:
        anchor = coords_of_point(anchor)
    if domain.value(anchor) >= 0:
        raise DomainError("anchor must lie strictly inside the domain")

    directions = np.empty((2 * domain.n, count))
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        direction = rng.normal(size=2 * domain.n)
        directions[:, i] = direction / np.linalg.norm(direction)
    roots = _ray_roots(domain, anchor, directions)
    return [domain.boundary_point(coords) for coords in roots]


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
    if domain is None:
        domain = worm_rho(beta, 0.0)
    r = beta - math.pi / 2
    us = np.linspace(-r, r, count)
    us[count // 2] = 0.0
    return [domain.boundary_point(coords_of_point([0.0, math.exp(u / 2.0)]))
            for u in us]


def samples_to_csv(points, path):
    """Dump boundary samples as CSV: re/im of each coordinate plus residual."""
    import csv

    n = points[0].z.size if points else 0
    header = []
    for i in range(n):
        header += [f"re(z{i + 1})", f"im(z{i + 1})"]
    header.append("rho_residual")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in points:
            row = []
            for i in range(n):
                row += [repr(float(p.z[i].real)), repr(float(p.z[i].imag))]
            row.append(repr(float(p.jet.value)))
            writer.writerow(row)
