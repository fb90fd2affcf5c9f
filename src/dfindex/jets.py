"""Truncated Taylor (jet) arithmetic up to third order over real coordinates.

A ``Jet`` carries the value and the derivative tensors (gradient, Hessian,
third-order tensor) of a smooth function of ``nvars`` real variables at a
point.  Arithmetic on jets reproduces the analytic Taylor coefficients of the
composed functions, truncated beyond order 3, so every first/second/third
derivative of a defining function is available to machine precision without
symbolic work.

Coefficients may be real or complex (complex jets arise from intermediate
quantities such as z = x + iy); the underlying coordinates are always real.
The real coordinates of a point in C^n are interleaved: (x1, y1, ..., xn, yn)
with z_k = x_k + i*y_k.

An order-1 jet may also carry a batch of B points: value of shape (B,) and
d1 of shape (nvars, B), one column per point.  Its arithmetic and the
univariate functions below act pointwise on the trailing axis, so one pass
evaluates a defining function at every point of the batch (Taylor mode over
a batch; Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Orders 2
and 3 take one point at a time.

Jets are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "WirtingerData",
    "lift",
    "variable",
    "constant",
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
    a = t2[:, :, None] * t1[None, None, :]
    return a + a.transpose(0, 2, 1) + a.transpose(2, 0, 1)


class Jet:
    """Value plus derivative tensors up to ``order`` (1, 2 or 3)."""

    __slots__ = ("nvars", "order", "value", "d1", "d2", "d3")

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

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value, nvars, order=3, dtype=float):
        n = nvars
        d2 = np.zeros((n, n), dtype) if order >= 2 else None
        d3 = np.zeros((n, n, n), dtype) if order >= 3 else None
        return cls(n, order, value, np.zeros(n, dtype), d2, d3)

    @classmethod
    def seed(cls, value, index, nvars, order=3):
        j = cls.const(float(value), nvars, order)
        j.d1 = j.d1.copy()
        j.d1[index] = 1.0
        return j

    # -- structural helpers -------------------------------------------------

    def truncate(self, order):
        """Copy of this jet truncated to a lower (or equal) order."""
        if order > self.order:
            raise JetError("cannot raise jet order")
        return Jet(self.nvars, order, self.value, self.d1,
                   self.d2 if order >= 2 else None,
                   self.d3 if order >= 3 else None)

    def conj(self):
        d2 = None if self.d2 is None else np.conj(self.d2)
        d3 = None if self.d3 is None else np.conj(self.d3)
        return Jet(self.nvars, self.order, np.conj(self.value),
                   np.conj(self.d1), d2, d3)

    def real_part(self):
        v = self.value
        value = v.real.copy() if isinstance(v, np.ndarray) else float(np.real(v))
        d2 = None if self.d2 is None else self.d2.real.copy()
        d3 = None if self.d3 is None else self.d3.real.copy()
        return Jet(self.nvars, self.order, value, self.d1.real.copy(), d2, d3)

    def imag_part(self):
        v = self.value
        value = v.imag.copy() if isinstance(v, np.ndarray) else float(np.imag(v))
        d2 = None if self.d2 is None else self.d2.imag.copy()
        d3 = None if self.d3 is None else self.d3.imag.copy()
        return Jet(self.nvars, self.order, value, self.d1.imag.copy(), d2, d3)

    def max_imag(self):
        m = abs(np.imag(self.value))
        m = max(m, np.abs(self.d1.imag).max())
        if self.d2 is not None:
            m = max(m, np.abs(self.d2.imag).max())
        if self.d3 is not None:
            m = max(m, np.abs(self.d3.imag).max())
        return m

    def deriv(self, i):
        """Jet of the partial derivative with respect to real coordinate i.

        Drops the order by one; only available for jets of order >= 2.
        """
        if self.order < 2:
            raise JetError("cannot differentiate an order-1 jet")
        d2 = self.d3[i] if self.order == 3 else None
        return Jet(self.nvars, self.order - 1, self.d1[i], self.d2[i], d2)

    def wirt(self, k):
        """Jet of the holomorphic Wirtinger derivative d/dz_k."""
        return 0.5 * (self.deriv(2 * k) - 1j * self.deriv(2 * k + 1))

    def wirtbar(self, k):
        """Jet of the antiholomorphic Wirtinger derivative d/dzbar_k."""
        return 0.5 * (self.deriv(2 * k) + 1j * self.deriv(2 * k + 1))

    def wirt_value(self, k):
        """Value of d/dz_k at the base point (available at any order)."""
        return 0.5 * (self.d1[2 * k] - 1j * self.d1[2 * k + 1])

    def wirtbar_value(self, k):
        """Value of d/dzbar_k at the base point (available at any order)."""
        return 0.5 * (self.d1[2 * k] + 1j * self.d1[2 * k + 1])

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise JetError("jets over different coordinate spaces")

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.nvars, self.order, self.value + other,
                       self.d1, self.d2, self.d3)
        self._check(other)
        k = min(self.order, other.order)
        a, b = self.truncate(k), other.truncate(k)
        return Jet(self.nvars, k, a.value + b.value, a.d1 + b.d1,
                   None if k < 2 else a.d2 + b.d2,
                   None if k < 3 else a.d3 + b.d3)

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
        k = min(self.order, other.order)
        a, b = self.truncate(k), other.truncate(k)
        value = a.value * b.value
        d1 = a.d1 * b.value + a.value * b.d1
        d2 = d3 = None
        if k >= 2:
            cross = a.d1[:, None] * b.d1[None, :]
            d2 = a.d2 * b.value + a.value * b.d2 + cross + cross.T
        if k >= 3:
            d3 = (a.d3 * b.value + a.value * b.d3
                  + _sym_outer(a.d2, b.d1) + _sym_outer(b.d2, a.d1))
        return Jet(self.nvars, k, value, d1, d2, d3)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, p):
        if not isinstance(p, int) or p < 0:
            raise JetError("jet powers must be nonnegative integers")
        out = Jet.const(1.0, self.nvars, self.order)
        for _ in range(p):
            out = out * self
        return out

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, value={self.value})"


def lift(coords, order=3):
    """Seed jets for the coordinate functions at a point.

    The i-th returned jet has value coords[i], unit gradient e_i and zero
    higher derivatives.  Coordinates of shape (nvars, B), one point per
    column, give order-1 seeds over the batch: value coords[i] of shape (B,)
    and d1 = e_i as an (nvars, 1) column, which broadcasts over the batch.
    """
    coords = np.asarray(coords, dtype=float)
    if not np.all(np.isfinite(coords)):
        raise JetError("non-finite coordinates")
    if coords.ndim == 1:
        return [Jet.seed(c, i, coords.size, order) for i, c in enumerate(coords)]
    if order != 1:
        raise JetError("batched jets are order 1 only")
    nvars = coords.shape[0]
    eye = np.eye(nvars)
    return [Jet(nvars, 1, coords[i], eye[:, i:i + 1]) for i in range(nvars)]


def variable(value, index, nvars, order=3):
    return Jet.seed(value, index, nvars, order)


def constant(value, nvars, order=3):
    dtype = complex if isinstance(value, complex) else float
    return Jet.const(value, nvars, order, dtype=dtype)


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


def _lift_scalar(fn):
    def wrapped(x):
        return fn(x) if isinstance(x, Jet) else getattr(np, fn.__name__)(x)
    wrapped.__name__ = fn.__name__
    return wrapped


@_lift_scalar
def exp(j):
    e = np.exp(j.value)
    return compose(j, e, e, e, e)


@_lift_scalar
def log(j):
    v = j.value
    return compose(j, np.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)


@_lift_scalar
def sqrt(j):
    s = np.sqrt(j.value)
    return compose(j, s, 0.5 / s, -0.25 / s ** 3, 0.375 / s ** 5)


@_lift_scalar
def sin(j):
    s, c = np.sin(j.value), np.cos(j.value)
    return compose(j, s, c, -s, -c)


@_lift_scalar
def cos(j):
    s, c = np.sin(j.value), np.cos(j.value)
    return compose(j, c, -s, -c, s)


def reciprocal(j):
    if not isinstance(j, Jet):
        return 1.0 / j
    v = j.value
    return compose(j, 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4)


# -- Wirtinger conversion ----------------------------------------------------

@dataclass(frozen=True)
class WirtingerData:
    """Complex first and second derivatives of a real-valued function on C^n.

    grad[i]           = rho_{z_i}
    hess_hol[i, j]    = rho_{z_i z_j}           (complex symmetric)
    hess_mixed[i, j]  = rho_{z_i zbar_j}        (Hermitian)
    """

    n: int
    value: float
    grad: np.ndarray
    hess_hol: np.ndarray
    hess_mixed: np.ndarray

    def grad_norm(self):
        return float(np.linalg.norm(self.grad))


def _wirtinger_matrix(n):
    # rows 0..n-1: d/dz_k, rows n..2n-1: d/dzbar_k, columns are real coords
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        C[k, 2 * k] = 0.5
        C[k, 2 * k + 1] = -0.5j
        C[n + k, 2 * k] = 0.5
        C[n + k, 2 * k + 1] = 0.5j
    return C


def wirtinger(j, n):
    """Convert a real-coordinate jet of order 2 or 3 into Wirtinger tensors."""
    if j.nvars != 2 * n:
        raise JetError(f"jet has {j.nvars} real variables, expected {2 * n}")
    if j.order < 2:
        raise JetError("wirtinger conversion needs a second-order jet")
    C = _wirtinger_matrix(n)
    grad_full = C @ j.d1.astype(complex)
    h_full = C @ j.d2.astype(complex) @ C.T
    return WirtingerData(
        n=n,
        value=float(np.real(j.value)),
        grad=grad_full[:n],
        hess_hol=h_full[:n, :n],
        hess_mixed=h_full[:n, n:],
    )


def coords_of_point(z):
    """Interleave a complex point (z1..zn) into real coordinates."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    coords = np.empty(2 * z.size)
    coords[0::2] = z.real
    coords[1::2] = z.imag
    return coords


def point_of_coords(coords):
    coords = np.asarray(coords, dtype=float)
    return coords[0::2] + 1j * coords[1::2]
