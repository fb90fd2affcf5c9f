"""Numerical toolkit for Diederich-Fornaess and Steinness index bounds.

Third-order jet arithmetic, boundary geometry (batched tangent frames and
Levi matrices, Schur block-diagonalization), the D'Angelo 1-form and its
quadratic forms on the Levi null space, and closed-form index bound
aggregation with the extremal conformal factor of the central worm fiber.
"""

from . import dangelo, domains, exprparse, index, jets, levi

__version__ = "0.1.0"

__all__ = ["dangelo", "domains", "exprparse", "index", "jets", "levi",
           "__version__"]
