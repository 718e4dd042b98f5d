"""Scalar fields on the jet space: parsed expressions and builtin families.

A scalar field is any callable JetPoint -> scalar that works for plain
floats and for the derivative scalars in ``scalars``; everything downstream
(Hessians, sprays, connections) only assumes that much.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dsl
from .errors import EvalDomainError
from .jet_core import Dims, JetPoint
from .metric_engine import TemporalMetric, symmetric_matrix


class ExpressionField:
    """Field backed by a parsed expression.

    Evaluation runs the closure ``dsl.compile_ast`` builds.  A domain error,
    zero division or overflow inside it is raised again as an
    EvalDomainError carrying the failing node's source offset, which the
    closure's line table gives for the line the traceback stopped at.
    """

    def __init__(self, source, dims: Dims):
        if not isinstance(source, str):
            source = dsl.format_ast(source)
        self.source = source
        self.ast = dsl.parse(source, dims)
        self.dims = dims
        self._evaluate, self._offsets = dsl.compile_ast(self.ast)

    def __call__(self, point: JetPoint):
        try:
            return self._evaluate(point.t, point.x, point.v)
        except (EvalDomainError, ZeroDivisionError, ValueError, OverflowError) as exc:
            # the first traceback entry below this frame is the closure's
            offset = self._offsets[exc.__traceback__.tb_next.tb_lineno]
            where = dsl.ParseDiagnostic(offset, str(exc)).render(self.source)
            raise EvalDomainError(f"{where} in {self.source!r}", offset=offset) from exc

    def __repr__(self):
        return f"ExpressionField({self.source!r})"


class ElectrodynamicsLagrangian:
    """Closed-form family L = h^{ab}(t) g_ij v^i_a v^j_b + U^a_i v^i_a + F.

    ``g_entries`` is a symmetric n x n grid of fields (one field at [i][j]
    and [j][i]) that may depend on (t, x), and on v only when p = 1;
    ``u_entries`` is an n x p matrix of (t, x) fields, ``f_entry`` a (t, x)
    field.  Evaluation is generic over the scalar kind, including the
    temporal-metric inversion.
    """

    def __init__(self, dims: Dims, h: TemporalMetric, g_entries, u_entries=None, f_entry=None):
        self.dims = dims
        self.h = h
        self.g_entries = g_entries
        self.u_entries = u_entries
        self.f_entry = f_entry

    def g_matrix(self, point: JetPoint):
        return symmetric_matrix(self.g_entries, point)

    def __call__(self, point: JetPoint):
        n, p = self.dims.n, self.dims.p
        hinv = self.h.inverse_at(point.t)
        g = self.g_matrix(point)
        v = point.v
        total = 0.0
        for a in range(p):
            for b in range(p):
                hab = hinv[a][b]
                if isinstance(hab, float) and hab == 0.0:
                    continue
                s = 0.0
                for i in range(n):
                    for j in range(n):
                        gij = g[i][j]
                        if isinstance(gij, float) and gij == 0.0:
                            continue
                        s = s + gij * (v[i][a] * v[j][b])
                total = total + hab * s
        if self.u_entries is not None:
            for i in range(n):
                for a in range(p):
                    total = total + self.u_entries[i][a](point) * v[i][a]
        if self.f_entry is not None:
            total = total + self.f_entry(point)
        return total

    def __repr__(self):
        return f"ElectrodynamicsLagrangian(p={self.dims.p}, n={self.dims.n})"


@dataclass
class LagrangianModel:
    """A Lagrangian plus what is known about its provenance."""

    dims: Dims
    field: object  # JetPoint -> scalar
    structure: ElectrodynamicsLagrangian = None

    def __call__(self, point: JetPoint):
        return self.field(point)

    @classmethod
    def from_family(cls, family: ElectrodynamicsLagrangian) -> "LagrangianModel":
        return cls(dims=family.dims, field=family, structure=family)
