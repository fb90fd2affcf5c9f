"""Truncated Taylor (jet) arithmetic up to third order over real coordinates.

A ``Jet`` carries the value and the derivative tensors (gradient, Hessian,
third-order tensor) of a smooth function of ``nvars`` real variables at a
batch of B points, one per trailing index: value of shape (B,), d1 (nvars,
B), d2 (nvars, nvars, B) and d3 (nvars, nvars, nvars, B).  Arithmetic on jets
reproduces the analytic Taylor coefficients of the composed functions,
truncated beyond order 3, so every first/second/third derivative of a
defining function is available to machine precision without symbolic work.

Coefficients may be real or complex (complex jets arise from intermediate
quantities such as z = x + iy); the underlying coordinates are always real.
The real coordinates of a point in C^n are interleaved: (x1, y1, ..., xn, yn)
with z_k = x_k + i*y_k.

The arithmetic, the univariate functions and the Wirtinger conversion below
act pointwise on the trailing axis, so one pass evaluates a defining
function and its derivatives up to order 3 at every point of the batch
(Taylor mode over a batch; Griewank & Walther, *Evaluating Derivatives*,
ch. 13).  (The derivative rules write powers as products: numpy's power
would move results in their last bits.)  One point is a batch of one;
domains.DomainSpec.rho alone accepts a single point.  A tensor that is the
same at every point, such as lift's d1, keeps a singleton batch axis.
wirtinger is the one conversion from a real jet to complex tensors, and it
broadcasts every batch axis to full length for the layers that read it.

Jets are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "WirtingerData",
    "lift",
    "compose",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "reciprocal",
    "wirtinger",
    "coords_of_point",
    "point_of_coords",
]


class JetError(ValueError):
    """Raised on malformed jet operations (dimension or order mismatch)."""


def _sym_outer(t2, t1):
    # symmetrized product of a symmetric 2-tensor with a 1-tensor:
    # S_{ijk} = t2_{ij} t1_k + t2_{ik} t1_j + t2_{jk} t1_i
    # (a batch axis trails the three tensor axes and stays in place)
    a = t2[:, :, None] * t1[None, None, :]
    batch = tuple(range(3, a.ndim))
    return a + a.transpose(0, 2, 1, *batch) + a.transpose(2, 0, 1, *batch)


class Jet:
    """Value plus derivative tensors up to ``order`` (1, 2 or 3)."""

    __slots__ = ("nvars", "order", "value", "d1", "d2", "d3")
    # numpy arrays defer to Jet's operators: array * jet is a jet
    __array_ufunc__ = None

    def __init__(self, nvars, order, value, d1, d2=None, d3=None):
        if order not in (1, 2, 3):
            raise JetError(f"jet order must be 1, 2 or 3, got {order}")
        self.nvars = int(nvars)
        self.order = int(order)
        self.value = value
        self.d1 = np.asarray(d1)
        self.d2 = None if order < 2 else np.asarray(d2)
        self.d3 = None if order < 3 else np.asarray(d3)
        if self.d1.shape[:1] != (self.nvars,):
            raise JetError("d1 has wrong shape")

    # -- structural helpers -------------------------------------------------

    def real_part(self):
        d2 = None if self.d2 is None else self.d2.real.copy()
        d3 = None if self.d3 is None else self.d3.real.copy()
        return Jet(self.nvars, self.order, self.value.real.copy(),
                   self.d1.real.copy(), d2, d3)

    def imag_part(self):
        d2 = None if self.d2 is None else self.d2.imag.copy()
        d3 = None if self.d3 is None else self.d3.imag.copy()
        return Jet(self.nvars, self.order, self.value.imag.copy(),
                   self.d1.imag.copy(), d2, d3)

    def take(self, idx):
        """Jet of the batch columns ``idx``: an index array keeps a batch,
        an integer gives the jet at that one point."""
        count = self.value.shape[0]

        def pick(a):
            return None if a is None else \
                np.broadcast_to(a, a.shape[:-1] + (count,))[..., idx]

        return Jet(self.nvars, self.order, self.value[idx], pick(self.d1),
                   pick(self.d2), pick(self.d3))

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise JetError("jets over different coordinate spaces")

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.nvars, self.order, self.value + other,
                       self.d1, self.d2, self.d3)
        self._check(other)
        # the sum has the lower order of the two; higher tensors go unread
        k = min(self.order, other.order)
        return Jet(self.nvars, k, self.value + other.value, self.d1 + other.d1,
                   None if k < 2 else self.d2 + other.d2,
                   None if k < 3 else self.d3 + other.d3)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.value, -self.d1,
                   None if self.d2 is None else -self.d2,
                   None if self.d3 is None else -self.d3)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.nvars, self.order, self.value * other,
                       self.d1 * other,
                       None if self.d2 is None else self.d2 * other,
                       None if self.d3 is None else self.d3 * other)
        self._check(other)
        # the product has the lower order of the two; higher tensors go unread
        k = min(self.order, other.order)
        value = self.value * other.value
        d1 = self.d1 * other.value + self.value * other.d1
        d2 = d3 = None
        if k >= 2:
            cross = self.d1[:, None] * other.d1[None, :]
            d2 = (self.d2 * other.value + self.value * other.d2
                  + cross + cross.swapaxes(0, 1))
        if k >= 3:
            d3 = (self.d3 * other.value + self.value * other.d3
                  + _sym_outer(self.d2, other.d1)
                  + _sym_outer(other.d2, self.d1))
        return Jet(self.nvars, k, value, d1, d2, d3)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, value={self.value})"


def lift(coords, order=3):
    """Seed jets for the coordinate functions over a batch of points.

    Coordinates of shape (nvars, B) hold one point per column.  The i-th
    returned jet has value coords[i] of shape (B,), unit gradient e_i as an
    (nvars, 1) column and zero d2, d3 with the same singleton batch axis,
    which broadcasts over the batch.  Any other shape raises JetError.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise JetError(f"coordinates must be (nvars, B), got {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise JetError("non-finite coordinates")
    nvars = coords.shape[0]
    eye = np.eye(nvars)
    d2 = np.zeros((nvars, nvars, 1)) if order >= 2 else None
    d3 = np.zeros((nvars, nvars, nvars, 1)) if order >= 3 else None
    return [Jet(nvars, order, coords[i], eye[:, i:i + 1], d2, d3)
            for i in range(nvars)]


def compose(g, f0, f1, f2=None, f3=None):
    """Jet of f(g) for a univariate smooth f with derivatives f0..f3 at g.value.

    This is Faa di Bruno truncated at order 3; callers supply the derivative
    values of f at the point g.value.
    """
    value = f0
    d1 = f1 * g.d1
    d2 = d3 = None
    if g.order >= 2:
        outer = g.d1[:, None] * g.d1[None, :]
        d2 = f1 * g.d2 + f2 * outer
    if g.order >= 3:
        d3 = (f1 * g.d3 + f2 * _sym_outer(g.d2, g.d1)
              + f3 * g.d1[:, None, None] * g.d1[None, :, None] * g.d1[None, None, :])
    return Jet(g.nvars, g.order, value, d1, d2, d3)


def exp(j):
    e = np.exp(j.value)
    return compose(j, e, e, e, e)


def log(j):
    v = j.value
    v2 = v * v
    return compose(j, np.log(v), 1.0 / v, -1.0 / v2, 2.0 / (v2 * v))


def sqrt(j):
    s = np.sqrt(j.value)
    s3 = s * s * s
    return compose(j, s, 0.5 / s, -0.25 / s3, 0.375 / (s3 * s * s))


def sin(j):
    s, c = np.sin(j.value), np.cos(j.value)
    return compose(j, s, c, -s, -c)


def cos(j):
    s, c = np.sin(j.value), np.cos(j.value)
    return compose(j, c, -s, -c, s)


def reciprocal(j):
    v = j.value
    v2 = v * v
    return compose(j, 1.0 / v, -1.0 / v2, 2.0 / (v2 * v), -6.0 / (v2 * v2))


# -- Wirtinger conversion ----------------------------------------------------

@dataclass(frozen=True)
class WirtingerData:
    """Complex derivatives of a real-valued function on C^n.

    value             = rho                     (B,) real
    grad[k]           = rho_{z_k}
    hess_mixed[k, m]  = rho_{z_k zbar_m}        (Hermitian)
    hess[l, m]        = rho_{z_l z_m}           (symmetric)
    third[k, m, l]    = rho_{z_k zbar_m zbar_l}

    hess and third come from an order-3 jet and are None otherwise.  Every
    field carries the full batch axis last; the data of one point (an
    unbatched jet) has none.
    """

    n: int
    value: np.ndarray
    grad: np.ndarray
    hess_mixed: np.ndarray
    hess: Optional[np.ndarray] = None
    third: Optional[np.ndarray] = None

    def take(self, idx):
        """The data of the batch columns ``idx``; an integer gives one point."""
        fields = (self.value, self.grad, self.hess_mixed, self.hess, self.third)
        return WirtingerData(self.n, *(None if a is None else a[..., idx]
                                       for a in fields))


def wirtinger(j, n):
    """Convert a real-coordinate jet of order 2 or 3 into Wirtinger tensors.

    One axis at a time, with x = x_k, y = y_k: d/dz = (d_x - i d_y)/2 or
    d/dzbar = (d_x + i d_y)/2, each a combination of two exact terms, so
    mixed = ((xx + yy) + i(xy - yx))/4 is formed like the matrix product
    C d2 conj(C)^T that it equals.  Every batch axis is broadcast to the
    length of j.value's.
    """
    if j.nvars != 2 * n:
        raise JetError(f"jet has {j.nvars} real variables, expected {2 * n}")
    if j.order < 2:
        raise JetError("wirtinger conversion needs a second-order jet")
    x, y = slice(0, None, 2), slice(1, None, 2)
    batch = np.shape(j.value)  # () for one point

    def full(a):
        return np.broadcast_to(a, a.shape[:a.ndim - len(batch)] + batch)

    grad = full(0.5 * (j.d1[x] - 1j * j.d1[y]))
    rows = j.d2[x] - 1j * j.d2[y]        # (xx - i yx, xy - i yy) per column
    mixed = full(0.25 * (rows[:, x] + 1j * rows[:, y]))
    hess = third = None
    if j.order == 3:
        hess = full(0.25 * (rows[:, x] - 1j * rows[:, y]))
        a = j.d3[x] - 1j * j.d3[y]
        a = a[:, x] + 1j * a[:, y]
        third = full(0.125 * (a[:, :, x] + 1j * a[:, :, y]))
    return WirtingerData(n, np.real(j.value), grad, mixed, hess, third)


def coords_of_point(z):
    """Interleave a complex point (z1..zn) into real coordinates."""
    z = np.asarray(z, dtype=complex)
    coords = np.empty(2 * z.size)
    coords[0::2] = z.real
    coords[1::2] = z.imag
    return coords


def point_of_coords(coords):
    coords = np.asarray(coords, dtype=float)
    return coords[0::2] + 1j * coords[1::2]
