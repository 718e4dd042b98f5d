"""Metric linear connections on the jet space.

An h-normal linear connection is determined by four coefficient families
(Hbar, G, L, C); the temporal block is always the Levi-Civita data of h.
This module builds the two instances the geometry singles out:

* the Cartan canonical connection, metric for the spatial metric derived
  from the Lagrangian's vertical Hessian, with symmetric L and C;
* the Berwald connection of a metric pair (h, g), whose only nonzero
  spatial block is the Christoffel symbols of g.

``metric_compatibility`` checks that a pack is metric for (h, g) in all
three directions.  ``covariant_derivative`` is the generic T-horizontal,
M-horizontal and vertical operator for any d-tensor valence; an empty
valence gives the adapted-frame derivative of a scalar field.  The tests
use it as the reference for ``metric_compatibility``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import (
    all_coords,
    field_jacobian,
    structure_entry,
    t_coord,
    v_coord,
    vertical_coords,
    x_coord,
)
from .connection import NonlinearConnection, delta_entry, metric_pair_connection
from .errors import DimensionError
from .jet_core import Dims, DTensor, JetPoint, SlotKind
from .metric_engine import (
    SpatialMetricField,
    TemporalMetric,
    checked_inverse,
    christoffel,
    g_christoffel_values,
    h_christoffel_values,
)
from .regularity import (
    ElectrodynamicsDecomposition,
    electrodynamics_decompose,
    g_from_hessian,
)
from .scalars import scalar_value


class Coefficients(NamedTuple):
    """Point values of the four effective families (generic scalars) and
    of the (M, N) coefficients of the nonlinear connection below them."""

    hbar: list  # [c][a][b]
    g: list     # [k][j][c]
    l: list     # [i][j][k]
    c: list     # [i][j][k][c]  (C^{i(c)}_{j(k)})
    m: list     # [i][a][b]
    n: list     # [i][a][j]


@dataclass
class LinearConnectionPack:
    """An h-normal linear connection: the four effective coefficient fields
    plus the nonlinear connection and spatial metric they were built over.
    The derived vertical coefficients are delta-combinations of these four,
    which the covariant derivative operators implement."""

    dims: Dims
    kind: str                  # "cartan" | "berwald" | "custom"
    coefficients_at: object    # JetPoint -> Coefficients
    g_matrix_at: object        # JetPoint -> n x n spatial metric values
    conn: NonlinearConnection
    h: TemporalMetric


# --- Cartan construction -------------------------------------------------------


def _delta_matrix(jac, coord, coeffs):
    """Adapted derivative of a square-matrix field along one direction."""
    size = len(jac[coord])
    return [[delta_entry(jac, (i, j), coord, coeffs) for j in range(size)]
            for i in range(size)]


def _cartan_coefficients_p1(L, h, conn, dims):
    """Generic-coefficient closure for p = 1: the spatial metric is the
    h-trace of the vertical Hessian evaluated at the full point (velocity
    dependence allowed), and all delta-derivatives use the adapted frame."""
    n = dims.n

    def g_matrix(point: JetPoint):
        return g_from_hessian(L, h, point, dims)

    def coefficients(point: JetPoint):
        g = g_matrix(point)
        ginv = checked_inverse(g)
        hbar = h_christoffel_values(h, point.t)
        m_co = conn.m_at(point)
        n_co = conn.n_at(point)
        jac = field_jacobian(g_matrix, point, all_coords(dims))
        dg_t = _delta_matrix(jac, t_coord(0), m_co)
        g_co = [[[0.0] for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for j in range(n):
                acc = 0.0
                for i in range(n):
                    acc = acc + ginv[k][i] * dg_t[i][j]
                g_co[k][j][0] = acc * 0.5

        l_co = christoffel(ginv, [_delta_matrix(jac, x_coord(k), n_co) for k in range(n)])
        c_co = christoffel(ginv, [jac[v_coord(k, 0)] for k in range(n)])
        c_co = [[[[e] for e in row] for row in plane] for plane in c_co]  # trailing index c = 0
        return Coefficients(hbar=hbar, g=g_co, l=l_co, c=c_co, m=m_co, n=n_co)

    return coefficients, g_matrix


def _cartan_coefficients_p2(h, conn, deco: ElectrodynamicsDecomposition, dims):
    """For p >= 2 the spatial metric depends on (t, x) only, so the adapted
    derivatives reduce to plain partials and the vertical coefficients
    vanish identically."""
    n, p = dims.n, dims.p
    ts = [t_coord(a) for a in range(p)]

    def coefficients(point: JetPoint):
        g = deco.metric.matrix_at(point)
        ginv = checked_inverse(g)
        hbar = h_christoffel_values(h, point.t)
        l_co = g_christoffel_values(deco.metric, point)
        g_co = [[[0.0] * p for _ in range(n)] for _ in range(n)]
        jac = field_jacobian(deco.metric.matrix_at, point, ts)
        for a in range(p):
            dg = jac[ts[a]]
            for k in range(n):
                for j in range(n):
                    acc = 0.0
                    for i in range(n):
                        acc = acc + ginv[k][i] * dg[i][j]
                    g_co[k][j][a] = acc * 0.5
        c_co = [[[[0.0] * p for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return Coefficients(hbar=hbar, g=g_co, l=l_co, c=c_co,
                            m=conn.m_at(point), n=conn.n_at(point))

    return coefficients, deco.metric.matrix_at


def cartan_connection(L, h: TemporalMetric, conn: NonlinearConnection,
                      decomposition: ElectrodynamicsDecomposition | None = None
                      ) -> LinearConnectionPack:
    """The unique h-normal connection over ``conn`` that is metric for the
    derived spatial metric and has symmetric L and C blocks:

    G^k_{jc} = (g^{ki}/2) delta g_ij/delta t^c,
    L^i_{jk} = (g^{im}/2)(delta g_jm/delta x^k + delta g_km/delta x^j
               - delta g_jk/delta x^m),
    C^{i(c)}_{j(k)} = (g^{im}/2)(d g_jm/dv^k_c + d g_km/dv^j_c
               - d g_jk/dv^m_c).
    """
    dims = getattr(L, "dims", None)
    if dims is None:
        raise DimensionError("Lagrangian must expose .dims")
    if dims.p == 1:
        coefficients, g_matrix = _cartan_coefficients_p1(L, h, conn, dims)
    else:
        deco = decomposition or electrodynamics_decompose(L, h)
        coefficients, g_matrix = _cartan_coefficients_p2(h, conn, deco, dims)
    return LinearConnectionPack(
        dims=dims, kind="cartan", coefficients_at=coefficients,
        g_matrix_at=g_matrix, conn=conn, h=h,
    )


def berwald_connection(h: TemporalMetric, g: SpatialMetricField,
                       dims: Dims | None = None) -> LinearConnectionPack:
    """The connection (Hbar, 0, gamma^k_ij, 0) of the metric pair (h, g),
    over the pair's own nonlinear connection.  Intended for g = g(x); for
    time-dependent g it freezes t as a parameter, which is what the
    distinctness probes exercise."""
    dims = dims or Dims(h.p, g.n)
    conn0 = metric_pair_connection(h, g, dims)
    n, p = dims.n, dims.p

    def coefficients(point: JetPoint):
        hbar = h_christoffel_values(h, point.t)
        l_co = g_christoffel_values(g, point)
        g_co = [[[0.0] * p for _ in range(n)] for _ in range(n)]
        c_co = [[[[0.0] * p for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return Coefficients(hbar=hbar, g=g_co, l=l_co, c=c_co,
                            m=conn0.m_at(point), n=conn0.n_at(point))

    return LinearConnectionPack(
        dims=dims, kind="berwald", coefficients_at=coefficients,
        g_matrix_at=g.matrix_at, conn=conn0, h=h,
    )


# --- Covariant derivatives -------------------------------------------------------


class THorizontal(NamedTuple):
    gamma: int


class MHorizontal(NamedTuple):
    k: int


class VerticalCov(NamedTuple):
    k: int
    gamma: int


def _direction_tables(pack: LinearConnectionPack, point: JetPoint, direction):
    """(spatial, temporal) correction coefficient tables for a direction:
    spatial[m][l] multiplies upper-spatial slots, temporal[a][mu] upper-
    temporal slots (lower slots use the transposes with a minus sign)."""
    co = pack.coefficients_at(point)
    n, p = pack.dims.n, pack.dims.p
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


def covariant_derivative(field, valence, direction, pack: LinearConnectionPack,
                         point: JetPoint):
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
    if isinstance(direction, THorizontal):
        base_coord, coeffs = t_coord(direction.gamma), pack.conn.m_at(point)
    elif isinstance(direction, MHorizontal):
        base_coord, coeffs = x_coord(direction.k), pack.conn.n_at(point)
    elif isinstance(direction, VerticalCov):
        base_coord, coeffs = v_coord(direction.k, direction.gamma), None
    else:
        raise DimensionError(f"unknown covariant direction {direction!r}")

    coords = [base_coord] if coeffs is None else [base_coord] + vertical_coords(dims)
    jac = field_jacobian(field, point, coords)
    if not valence:
        return jac[base_coord] if coeffs is None else delta_entry(jac, (), base_coord, coeffs)
    values = field(point)

    out = DTensor(valence)
    spatial, temporal = _direction_tables(pack, point, direction)

    shape = out.shape
    for idx in np.ndindex(shape):
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


# --- Metric compatibility ------------------------------------------------------------


def metric_compatibility(pack: LinearConnectionPack, point: JetPoint) -> dict:
    """Max |covariant derivative| of the spatial and temporal metrics in all
    three directions; all six must vanish for the Cartan pack.

    Shares one coefficient/jacobian evaluation across all directions (the
    slot rules are the same ones ``covariant_derivative`` implements; the
    test-suite pins the two code paths against each other).
    """
    dims = pack.dims
    n, p = dims.n, dims.p
    co = pack.coefficients_at(point)
    conn_m, n_co = co.m, co.n
    gv = [[scalar_value(e) for e in row] for row in pack.g_matrix_at(point)]
    hv = [[scalar_value(e) for e in row] for row in pack.h.matrix_at(point.t)]

    coords = all_coords(dims)
    g_jac = field_jacobian(pack.g_matrix_at, point, coords)
    h_jac = field_jacobian(lambda q: pack.h.matrix_at(q.t), point, coords)

    G = [[[scalar_value(e) for e in r] for r in m] for m in co.g]
    Lc = [[[scalar_value(e) for e in r] for r in m] for m in co.l]
    C = [[[[scalar_value(e) for e in r] for r in m] for m in q] for q in co.c]
    H = [[[scalar_value(e) for e in r] for r in m] for m in co.hbar]

    worst = {
        "g_t_horizontal": 0.0, "g_m_horizontal": 0.0, "g_vertical": 0.0,
        "h_t_horizontal": 0.0, "h_m_horizontal": 0.0, "h_vertical": 0.0,
    }
    for c in range(p):
        dg = _delta_matrix(g_jac, t_coord(c), conn_m)
        dh = _delta_matrix(h_jac, t_coord(c), conn_m)
        for i in range(n):
            for j in range(n):
                val = dg[i][j]
                for m in range(n):
                    val -= G[m][i][c] * gv[m][j] + G[m][j][c] * gv[i][m]
                worst["g_t_horizontal"] = max(worst["g_t_horizontal"], abs(val))
        for a in range(p):
            for b in range(p):
                val = dh[a][b]
                for mu in range(p):
                    val -= H[mu][a][c] * hv[mu][b] + H[mu][b][c] * hv[a][mu]
                worst["h_t_horizontal"] = max(worst["h_t_horizontal"], abs(val))
    for k in range(n):
        dg = _delta_matrix(g_jac, x_coord(k), n_co)
        dh = _delta_matrix(h_jac, x_coord(k), n_co)
        for i in range(n):
            for j in range(n):
                val = dg[i][j]
                for m in range(n):
                    val -= Lc[m][i][k] * gv[m][j] + Lc[m][j][k] * gv[i][m]
                worst["g_m_horizontal"] = max(worst["g_m_horizontal"], abs(val))
        worst["h_m_horizontal"] = max(
            worst["h_m_horizontal"],
            max(abs(dh[a][b]) for a in range(p) for b in range(p)))
    for k in range(n):
        for c in range(p):
            dg = g_jac[v_coord(k, c)]
            dh = h_jac[v_coord(k, c)]
            for i in range(n):
                for j in range(n):
                    val = scalar_value(dg[i][j])
                    for m in range(n):
                        val -= C[m][i][k][c] * gv[m][j] + C[m][j][k][c] * gv[i][m]
                    worst["g_vertical"] = max(worst["g_vertical"], abs(val))
            worst["h_vertical"] = max(
                worst["h_vertical"],
                max(abs(scalar_value(dh[a][b])) for a in range(p) for b in range(p)))
    return worst
