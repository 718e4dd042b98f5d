"""Exception hierarchy shared across the package."""


class JetLagError(Exception):
    """Base class for all library errors."""


class DimensionError(JetLagError):
    """Inconsistent or invalid tensor/slot dimensions."""


class DslError(JetLagError):
    """Base for expression-language errors; carries a diagnostic."""

    def __init__(self, diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


class DslSyntaxError(DslError):
    """Source text does not match the grammar."""


class DslSemanticError(DslError):
    """Source parses but refers to out-of-range variables or unknown names."""


class EvalDomainError(JetLagError):
    """Evaluation hit a domain violation (log of non-positive, zero divide,
    overflow).

    ``offset`` is the offset of the offending node in the expression's
    source text, or None when the scalar arithmetic raised it, before an
    expression field located it.
    """

    def __init__(self, message, offset=None):
        self.offset = offset
        super().__init__(message)


class DegeneracyError(JetLagError):
    """A metric or Hessian is numerically singular; carries the determinant."""

    def __init__(self, message, det=None):
        self.det = det
        super().__init__(message)


class DecompositionError(JetLagError):
    """Quadratic-in-velocity reassembly of a Lagrangian failed."""


class StencilError(JetLagError):
    """A finite-difference grid is too small for the requested stencil."""


class ConfigError(JetLagError):
    """Problem configuration failed schema or consistency validation."""
