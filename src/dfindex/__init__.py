"""Numerical toolkit for Diederich-Fornaess and Steinness index bounds.

Third-order jet arithmetic, boundary geometry (batched tangent frames and
Levi matrices, Schur block-diagonalization), the D'Angelo 1-form and its
quadratic forms on the Levi null space, and closed-form index bound
aggregation with the extremal conformal factor of the central worm fiber.
"""

from . import dangelo, domains, exprparse, index, jets, levi
from .dangelo import null_forms
from .domains import (BoundaryPoint, DomainSpec, annulus_points, ball,
                      boundary_sample, ellipsoid, make_phi, worm_rho)
from .exprparse import parse_expression
from .index import (CriterionSamples, IndexReport, RhoFamily,
                    criterion_samples, deformation_sweep, df_bound,
                    optimize_rho, s_bound, sampled_report, spc_check,
                    worm_fiber_report, worm_psi_basis)
from .jets import Jet, wirtinger
from .levi import levi_batch, schur_frame

__version__ = "0.1.0"

__all__ = [
    "dangelo", "domains", "exprparse", "index", "jets", "levi",
    "Jet", "wirtinger",
    "DomainSpec", "BoundaryPoint", "worm_rho", "ball", "ellipsoid",
    "make_phi", "boundary_sample", "annulus_points",
    "parse_expression",
    "levi_batch", "schur_frame",
    "null_forms",
    "CriterionSamples", "RhoFamily", "IndexReport", "criterion_samples",
    "df_bound", "s_bound", "optimize_rho", "spc_check", "sampled_report",
    "deformation_sweep",
    "worm_fiber_report", "worm_psi_basis",
    "__version__",
]
