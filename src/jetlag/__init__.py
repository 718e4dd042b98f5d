"""Numerical geometry of multi-time Lagrangians on first-order jet bundles.

The package builds, from a scalar Lagrangian L(t, x, v) on the jet space of
maps T -> M, the objects that govern its variational geometry: the vertical
Hessian and its block factorization, canonical sprays and the induced
nonlinear connection, the metric (Cartan) and Berwald linear connections,
their torsion and curvature tables, and extremal / harmonic-map residuals.
"""

__version__ = "0.1.0"

from .jet_core import (
    Dims,
    JetPoint,
    SlotKind,
    IndexSlot,
    DTensor,
)
from .errors import (
    JetLagError,
    DimensionError,
    DslError,
    DslSyntaxError,
    DslSemanticError,
    EvalDomainError,
    DegeneracyError,
    DecompositionError,
    StencilError,
    ConfigError,
)

__all__ = [
    "Dims",
    "JetPoint",
    "SlotKind",
    "IndexSlot",
    "DTensor",
    "JetLagError",
    "DimensionError",
    "DslError",
    "DslSyntaxError",
    "DslSemanticError",
    "EvalDomainError",
    "DegeneracyError",
    "DecompositionError",
    "StencilError",
    "ConfigError",
    "__version__",
]
