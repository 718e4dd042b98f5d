"""Test oracles: independent references for what the commands compute,
written against jetlag's public names only, so that a reference shares
none of the internals it checks.

* ``covariant_derivative``: the generic T-horizontal, M-horizontal and
  vertical covariant derivative of a d-tensor field of any valence over a
  connection pack, the reference for ``curvature.metric_compatibility``;
* ``h_christoffel_by_dual_lift``: h's matrix, inverse and Christoffels
  from a Dual lift of h, the reference for ``h_christoffel_values``;
* ``h_curvature_values`` and ``g_curvature_values``: the Riemann tensors of
  the temporal and spatial metrics;
* ``action_value``: the action of a p = 1 trajectory;
* ``quadratic_form_by_terms``: h^{ab} g_ij v^i_a v^j_b summed term by
  term, the reference for ``ElectrodynamicsLagrangian``'s contraction;
* small shared constructors: a constant field, an expression Lagrangian and
  the failed entries of a crosscheck report.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from jetlag.calculus import field_jacobian, structure_entry, t_coord, v_coord, vertical_coords, x_coord
from jetlag.connection import delta_entry
from jetlag.errors import DimensionError
from jetlag.fields import ExpressionField, LagrangianModel
from jetlag.jet_core import DTensor, JetPoint, SlotKind
from jetlag.metric_engine import g_christoffel_values, h_christoffel_values, levi_civita, riemann
from jetlag.scalars import scalar_value


# --- Shared constructors ------------------------------------------------------


def constant(value):
    """The field that is ``value`` everywhere (a field is any callable of a
    JetPoint)."""
    value = float(value)
    return lambda point: value


def expression_lagrangian(source: str, dims) -> LagrangianModel:
    return LagrangianModel(dims, ExpressionField(source, dims))


def failures(report):
    """The entries of a ``calculus.fd_crosscheck`` report that disagree."""
    return [e for e in report.entries if not e.ok]


# --- Covariant derivatives ------------------------------------------------------


class THorizontal(NamedTuple):
    gamma: int


class MHorizontal(NamedTuple):
    k: int


class VerticalCov(NamedTuple):
    k: int
    gamma: int


def _direction_tables(co, dims, direction):
    """(spatial, temporal) correction coefficient tables for a direction:
    spatial[m][l] multiplies upper-spatial slots, temporal[a][mu] upper-
    temporal slots (lower slots use the transposes with a minus sign)."""
    n, p = dims.n, dims.p
    if isinstance(direction, THorizontal):
        c = direction.gamma
        spatial = [[co.g[m][l][c] for l in range(n)] for m in range(n)]
        temporal = [[co.hbar[a][mu][c] for mu in range(p)] for a in range(p)]
    elif isinstance(direction, MHorizontal):
        k = direction.k
        spatial = [[co.l[m][l][k] for l in range(n)] for m in range(n)]
        temporal = [[0.0] * p for _ in range(p)]
    else:
        k, c = direction.k, direction.gamma
        spatial = [[co.c[m][l][k][c] for l in range(n)] for m in range(n)]
        temporal = [[0.0] * p for _ in range(p)]
    return spatial, temporal


def covariant_derivative(field, valence, direction, pack, point: JetPoint):
    """Covariant derivative of a tensor field of the given valence, over the
    pack's nonlinear connection.

    ``field`` maps a JetPoint to nested lists matching ``valence`` (flat
    vertical indexing i*p + a).  The base derivative is the adapted one for
    horizontal directions, d/dt^a - M^{(l)}_{(b)a} d/dv^l_b and
    d/dx^k - N^{(l)}_{(b)k} d/dv^l_b, and the plain d/dv^k_c for vertical
    ones; slot corrections contract the pack coefficients, vertical slots
    receiving both their spatial and temporal contributions.  An empty
    valence (a scalar field) has no corrections and gives the base
    derivative as a scalar; any other valence gives a DTensor.
    """
    dims = pack.dims
    n, p = dims.n, dims.p
    valence = tuple(valence)
    co = pack.coefficients_at(point)
    if isinstance(direction, THorizontal):
        base_coord, coeffs = t_coord(direction.gamma), co.m
    elif isinstance(direction, MHorizontal):
        base_coord, coeffs = x_coord(direction.k), co.n
    elif isinstance(direction, VerticalCov):
        base_coord, coeffs = v_coord(direction.k, direction.gamma), None
    else:
        raise DimensionError(f"unknown covariant direction {direction!r}")

    coords = [base_coord] if coeffs is None else [base_coord] + vertical_coords(dims)
    values, jac = field_jacobian(field, point, coords)
    if not valence:
        return jac[base_coord] if coeffs is None else delta_entry(jac, (), base_coord, coeffs)

    out = DTensor(valence)
    spatial, temporal = _direction_tables(co, dims, direction)

    for idx in np.ndindex(out.shape):
        if coeffs is None:
            acc = structure_entry(jac[base_coord], idx)
        else:
            acc = delta_entry(jac, idx, base_coord, coeffs)
        for pos, slot in enumerate(valence):
            kind = slot.kind
            if kind is SlotKind.SPATIAL_UPPER:
                m = idx[pos]
                for l in range(n):
                    acc = acc + spatial[m][l] * structure_entry(values, _with(idx, pos, l))
            elif kind is SlotKind.SPATIAL_LOWER:
                i = idx[pos]
                for l in range(n):
                    acc = acc - spatial[l][i] * structure_entry(values, _with(idx, pos, l))
            elif kind is SlotKind.TEMPORAL_UPPER:
                a = idx[pos]
                for mu in range(p):
                    acc = acc + temporal[a][mu] * structure_entry(values, _with(idx, pos, mu))
            elif kind is SlotKind.TEMPORAL_LOWER:
                b = idx[pos]
                for mu in range(p):
                    acc = acc - temporal[mu][b] * structure_entry(values, _with(idx, pos, mu))
            elif kind is SlotKind.VERTICAL_UPPER:
                i, a = divmod(idx[pos], p)
                for l in range(n):
                    acc = acc + spatial[i][l] * structure_entry(values, _with(idx, pos, l * p + a))
                for mu in range(p):
                    acc = acc - temporal[mu][a] * structure_entry(values, _with(idx, pos, i * p + mu))
            elif kind is SlotKind.VERTICAL_LOWER:
                k, c = divmod(idx[pos], p)
                for l in range(n):
                    acc = acc - spatial[l][k] * structure_entry(values, _with(idx, pos, l * p + c))
                for mu in range(p):
                    acc = acc + temporal[c][mu] * structure_entry(values, _with(idx, pos, k * p + mu))
        out.data[idx] = scalar_value(acc)
    return out


def _with(idx, pos, value):
    lst = list(idx)
    lst[pos] = value
    return tuple(lst)


# --- Christoffels and Riemann tensors of the metrics ---------------------------


def h_christoffel_by_dual_lift(h, ts):
    """h's matrix at ``ts``, its inverse and its Christoffels [c][a][b]:
    the ``levi_civita`` of h along t on the point (ts, (), ()), from one
    Dual lift of h over the t coordinates and a plain factorization of its
    matrix; generic over the scalar kind of ts."""
    p = h.p
    if h.constant:
        return h.matrix_at(ts), h.inverse_at(ts), [[[0.0] * p for _ in range(p)] for _ in range(p)]
    return levi_civita(lambda q: h.matrix_at(q.t), JetPoint(ts, (), ()),
                       [t_coord(a) for a in range(p)])


def h_curvature_values(h, ts):
    """H^c_{m a b} = d_b H^c_{ma} - d_a H^c_{mb} + H^e_{ma} H^c_{eb}
    - H^e_{mb} H^c_{ea}, [c][m][a][b]; the t-partials of h's Christoffels
    come from one Jacobian over the t coordinates."""
    p = h.p
    if h.constant or p == 1:
        return [[[[0.0] * p for _ in range(p)] for _ in range(p)] for _ in range(p)]
    coords = [t_coord(a) for a in range(p)]
    ch, dch = field_jacobian(lambda q: h_christoffel_values(h, q.t)[2],
                             JetPoint(ts, (), ()), coords)
    return riemann(ch, [dch[c] for c in coords])


def g_curvature_values(g_matrix, point: JetPoint):
    """r^m_{pij} = d_j Gamma^m_{pi} - d_i Gamma^m_{pj}
    + Gamma^k_{pi} Gamma^m_{kj} - Gamma^k_{pj} Gamma^m_{ki}, [m][p][i][j]."""
    xs = [x_coord(j) for j in range(len(point.x))]
    gam, dgam = field_jacobian(lambda q: g_christoffel_values(g_matrix, q), point, xs)
    return riemann(gam, [dgam[c] for c in xs])


# --- Action ------------------------------------------------------------------------


def action_value(L, h, traj) -> float:
    """Trapezoidal quadrature of L * sqrt(|h_11|) over a p = 1 trajectory."""
    vals = []
    for t, x, y in zip(traj.t, traj.x, traj.y):
        point = JetPoint((t,), tuple(x), tuple((yi,) for yi in y))
        h11 = scalar_value(h.matrix_at((t,))[0][0])
        vals.append(scalar_value(L(point)) * math.sqrt(abs(h11)))
    dt = traj.t[1] - traj.t[0]
    vals = np.asarray(vals)
    return float(dt * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1]))


# --- Quadratic form ------------------------------------------------------------------


def quadratic_form_by_terms(hinv, g, v):
    """h^{ab} g_ij v^i_a v^j_b from the inverse temporal metric ``hinv``,
    the spatial metric ``g`` and the velocities ``v[i][a]``, summed term by
    term over every (a, b, i, j), skipping the h and g entries that are a
    plain 0.0.  Generic over the scalar kind."""
    p, n = len(hinv), len(g)
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
    return total
