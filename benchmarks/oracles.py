"""Independent numerical oracles for the benchmark's checks.

Nothing in this module calls dfindex.  The worm defining function, its
profile and the expression domains are evaluated again with plain
numpy/scipy arithmetic, and first and second derivatives come from central
finite differences, so a fault in the jet engine, the expression parser or
the Levi assembly cannot hide behind the same code on both sides of a check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import exp1

# |rho| at a reported boundary point, relative to 1 + |d'rho|.  The program
# itself guarantees 1e-12 in its own arithmetic; the slack covers a different
# order of floating-point operations here.
RESIDUAL_TOL = 1e-11
# |Levi_AD(L, L) - Levi_FD(L, L)| relative to |L|^2 * max |rho_{z_i zbar_j}|.
# Central second differences with step FD_STEP carry an error of about 1e-8.
LEVI_TOL = 1e-6
FD_STEP = 1e-4


# -- the worm family ---------------------------------------------------------


def ramp(u):
    """Integral of exp(-1/s) over [0, u] for u > 0 (zero for u <= 0)."""
    if u <= 0.0:
        return 0.0
    return u * math.exp(-1.0 / u) - float(exp1(1.0 / u))


def phi(beta, x):
    """The worm profile: K (ramp(x - r) + ramp(-x - r)), r = beta - pi/2,
    normalised so that phi(r + 1) = 1."""
    r = beta - math.pi / 2.0
    return (ramp(x - r) + ramp(-x - r)) / ramp(1.0)


def worm_rho(beta, t):
    """rho_t(z, w) = |z - e^{i log|w|^2}|^2 - (1 - phi(log|w|^2) - |t|^2) as
    a function of the complex point (z, w)."""
    tsq = abs(complex(t)) ** 2

    def rho(zw):
        z, w = complex(zw[0]), complex(zw[1])
        u = math.log(abs(w) ** 2)
        return abs(z - cmath.exp(1j * u)) ** 2 - (1.0 - phi(beta, u) - tsq)

    return rho


# -- expression domains ------------------------------------------------------

_FUNCTIONS = {
    "abs2": lambda v: abs(v) ** 2,
    "re": lambda v: complex(v).real,
    "im": lambda v: complex(v).imag,
    "exp": cmath.exp,
    "log": cmath.log,
    "sqrt": cmath.sqrt,
    "sin": cmath.sin,
    "cos": cmath.cos,
}


def expression_rho(text, n):
    """Evaluate a dfindex expression with Python's own arithmetic.

    The expression grammar (+ - * /, parentheses, calls, z1..zn, numbers) is
    a subset of Python's, so the text compiles as a Python expression over
    complex variables; the value must come out real.
    """
    code = compile(text, "<expression>", "eval")
    unknown = set(code.co_names) - set(_FUNCTIONS) - {f"z{k + 1}" for k in range(n)}
    if unknown:
        raise ValueError(f"unknown names in {text!r}: {sorted(unknown)}")

    def rho(z):
        scope = dict(_FUNCTIONS)
        scope.update({f"z{k + 1}": complex(z[k]) for k in range(n)})
        value = complex(eval(code, {"__builtins__": {}}, scope))
        if abs(value.imag) > 1e-12 * (1.0 + abs(value.real)):
            raise ValueError(f"{text!r} is not real at {z}")
        return value.real

    return rho


# -- finite-difference calculus over interleaved real coordinates -------------


def _as_real(rho):
    def f(x):
        return rho(x[0::2] + 1j * x[1::2])
    return f


def real_gradient(rho, z, h=1e-6):
    f = _as_real(rho)
    x = np.empty(2 * len(z))
    x[0::2], x[1::2] = np.real(z), np.imag(z)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def real_hessian(rho, z, h=FD_STEP):
    f = _as_real(rho)
    x = np.empty(2 * len(z))
    x[0::2], x[1::2] = np.real(z), np.imag(z)
    m = x.size
    f0 = f(x)
    H = np.empty((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h ** 2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            H[i, j] = H[j, i] = (f(x + ei + ej) - f(x + ei - ej)
                                 - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h ** 2)
    return H


def complex_gradient(rho, z):
    """rho_{z_k} = (d/dx_k - i d/dy_k) rho / 2."""
    g = real_gradient(rho, z)
    return 0.5 * (g[0::2] - 1j * g[1::2])


def complex_hessian(rho, z):
    """rho_{z_i zbar_j} = (H_xx + H_yy + i (H_{x_i y_j} - H_{y_i x_j})) / 4."""
    H = real_hessian(rho, z)
    xx, yy = H[0::2, 0::2], H[1::2, 1::2]
    xy, yx = H[0::2, 1::2], H[1::2, 0::2]
    return 0.25 * (xx + yy + 1j * (xy - yx))


def residual_ok(rho, z):
    """Whether z lies on {rho = 0} to RESIDUAL_TOL (1 + |d'rho|)."""
    scale = 1.0 + float(np.linalg.norm(complex_gradient(rho, z)))
    return abs(rho(z)) <= RESIDUAL_TOL * scale


def levi_tangent(rho, z):
    """The tangent (1,0) vector L = (-rho_w, rho_z) on C^2 and the Levi value
    sum rho_{z_i zbar_j} L_i conj(L_j), both by finite differences."""
    grad = complex_gradient(rho, z)
    L = np.array([-grad[1], grad[0]])
    hess = complex_hessian(rho, z)
    return L, float((L @ hess @ np.conj(L)).real), float(np.abs(hess).max())
