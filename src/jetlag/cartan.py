"""Metric linear connections on the jet space.

An h-normal linear connection is determined by four coefficient families
(Hbar, G, L, C); the temporal block is always the Levi-Civita data of h.
This module builds the two instances the geometry singles out:

* the Cartan canonical connection, metric for the spatial metric derived
  from the Lagrangian's vertical Hessian, with symmetric L and C;
* the Berwald connection of a metric pair (h, g), whose only nonzero
  spatial block is the Christoffel symbols of g.

A pack's ``coefficients_at`` also returns the (M, N) below it, built by
the ``connection`` kernels from the closure's own H, g^{-1} and
Christoffels; the p = 1 Cartan N is the spray derivative
(``spray_n_values``).

``metric_compatibility`` checks that a pack is metric for (h, g) in all
three directions.  Its reference is the generic T-horizontal, M-horizontal
and vertical covariant derivative of any d-tensor valence, which lives
with the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import NamedTuple

from .calculus import all_coords, field_jacobian, structure_values, t_coord, v_coord, x_coord
from .connection import (
    delta_entry,
    electrodynamics_n_values,
    m_values,
    pair_n_values,
    spray_n_values,
)
from .jet_core import Dims, JetPoint
from .metric_engine import (
    TemporalMetric,
    checked_inverse,
    christoffel,
    g_christoffel_values,
    h_christoffel_values,
)
from .regularity import ElectrodynamicsDecomposition, g_from_hessian
from .scalars import nan_max


class Coefficients(NamedTuple):
    """Point values of the four effective families (generic scalars) and
    of the (M, N) coefficients of the nonlinear connection below them."""

    hbar: list  # [c][a][b]
    g: list     # [k][j][c]
    l: list     # [i][j][k]
    c: list     # [i][j][k][c]  (C^{i(c)}_{j(k)})
    m: list     # [i][a][b]
    n: list     # [i][a][j]


class LinearConnectionPack:
    """An h-normal linear connection: the four effective coefficient fields
    (with the M, N below them) and the spatial metric they were built over.
    The derived vertical coefficients are delta-combinations of these four."""

    __slots__ = ("dims", "kind", "coefficients_at", "g_matrix_at", "h")

    def __init__(self, dims: Dims, kind: str, coefficients_at, g_matrix_at, h: TemporalMetric):
        self.dims = dims
        self.kind = kind                        # "cartan" | "berwald" | "custom"
        self.coefficients_at = coefficients_at  # JetPoint -> Coefficients
        self.g_matrix_at = g_matrix_at          # JetPoint -> n x n spatial metric values
        self.h = h


# --- Cartan construction -------------------------------------------------------


def _delta_matrix(jac, coord, coeffs):
    """Adapted derivative of a square-matrix field along one direction."""
    size = len(jac[coord])
    return [[delta_entry(jac, (i, j), coord, coeffs) for j in range(size)]
            for i in range(size)]


def _g_block(ginv, dg_dt):
    """G^k_{jc} = (g^{ki}/2) dg_ij/dt^c as [k][j][c], from the (adapted)
    t-derivatives ``dg_dt[c]`` of g."""
    n, p = len(ginv), len(dg_dt)
    g_co = [[[0.0] * p for _ in range(n)] for _ in range(n)]
    for c, dg in enumerate(dg_dt):
        for k in range(n):
            for j in range(n):
                acc = 0.0
                for i in range(n):
                    acc = acc + ginv[k][i] * dg[i][j]
                g_co[k][j][c] = acc * 0.5
    return g_co


def _cartan_coefficients_p1(L, h, dims):
    """Generic-coefficient closure for p = 1: the spatial metric is the
    h-trace of the vertical Hessian evaluated at the full point (velocity
    dependence allowed), N is the spray derivative, and all
    delta-derivatives use the adapted frame."""
    n = dims.n

    def g_matrix(point: JetPoint):
        return g_from_hessian(L, h, point)

    def coefficients(point: JetPoint):
        g, jac = field_jacobian(g_matrix, point, all_coords(dims))
        ginv = checked_inverse(g).inverse
        hmat, _, hbar = h_christoffel_values(h, point.t)
        m_co = m_values(hbar, point)
        n_co = spray_n_values(L, h, hmat, point)
        g_co = _g_block(ginv, [_delta_matrix(jac, t_coord(0), m_co)])
        l_co = christoffel(ginv, [_delta_matrix(jac, x_coord(k), n_co) for k in range(n)])
        c_co = christoffel(ginv, [jac[v_coord(k, 0)] for k in range(n)])
        c_co = [[[[e] for e in row] for row in plane] for plane in c_co]  # trailing index c = 0
        return Coefficients(hbar=hbar, g=g_co, l=l_co, c=c_co, m=m_co, n=n_co)

    return coefficients, g_matrix


def _cartan_coefficients_p2(h, deco: ElectrodynamicsDecomposition, dims):
    """For p >= 2 the spatial metric depends on (t, x) only, so the adapted
    derivatives reduce to plain partials and the vertical coefficients
    vanish identically.  The decomposition's jet at the point gives L (the
    Christoffels of g), G and, with g^{-1} and H, the M below them; N is L's
    pair N plus the G block plus the potentials' term
    (``electrodynamics_n_values``)."""
    n, p = dims.n, dims.p

    def coefficients(point: JetPoint):
        jet = deco.jet_at(point)
        ginv = checked_inverse(jet.g).inverse
        hmat, _, hbar = h_christoffel_values(h, point.t)
        l_co = christoffel(ginv, jet.dg_dx)
        g_co = _g_block(ginv, jet.dg_dt)
        c_co = [[[[0.0] * p for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return Coefficients(
            hbar=hbar, g=g_co, l=l_co, c=c_co, m=m_values(hbar, point),
            n=electrodynamics_n_values(hmat, jet, ginv, pair_n_values(l_co, point), g_co))

    return coefficients, deco.g_field


def cartan_connection(L, h: TemporalMetric,
                      decomposition: ElectrodynamicsDecomposition | None
                      ) -> LinearConnectionPack:
    """The unique h-normal connection over the canonical nonlinear
    connection that is metric for the derived spatial metric and has
    symmetric L and C blocks:

    G^k_{jc} = (g^{ki}/2) delta g_ij/delta t^c,
    L^i_{jk} = (g^{im}/2)(delta g_jm/delta x^k + delta g_km/delta x^j
               - delta g_jk/delta x^m),
    C^{i(c)}_{j(k)} = (g^{im}/2)(d g_jm/dv^k_c + d g_km/dv^j_c
               - d g_jk/dv^m_c).

    M comes from the temporal Christoffels H the closure computes; N is
    the spray derivative for p = 1 and, for p >= 2, Gamma's pair N plus
    the G block plus the potentials' term.  ``decomposition`` is L's
    electrodynamics decomposition for p >= 2 and None for p = 1.
    """
    dims = L.dims
    if dims.p == 1:
        coefficients, g_matrix = _cartan_coefficients_p1(L, h, dims)
    else:
        coefficients, g_matrix = _cartan_coefficients_p2(h, decomposition, dims)
    return LinearConnectionPack(
        dims=dims, kind="cartan", coefficients_at=coefficients,
        g_matrix_at=g_matrix, h=h,
    )


def berwald_connection(h: TemporalMetric, g_matrix, dims: Dims) -> LinearConnectionPack:
    """The connection (Hbar, 0, gamma^k_ij, 0) of the metric pair (h, g),
    over the pair's own nonlinear connection M = -H^c_{ab} v^i_c,
    N = gamma^i_{jk} v^k_a.  Intended for g = g(x); for time-dependent g it
    freezes t as a parameter, which is what the distinctness probes
    exercise.  ``g_matrix`` maps a jet point to the n x n matrix of g."""
    n, p = dims.n, dims.p

    def coefficients(point: JetPoint):
        _, _, hbar = h_christoffel_values(h, point.t)
        l_co = g_christoffel_values(g_matrix, point)
        g_co = [[[0.0] * p for _ in range(n)] for _ in range(n)]
        c_co = [[[[0.0] * p for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return Coefficients(hbar=hbar, g=g_co, l=l_co, c=c_co,
                            m=m_values(hbar, point), n=pair_n_values(l_co, point))

    return LinearConnectionPack(
        dims=dims, kind="berwald", coefficients_at=coefficients,
        g_matrix_at=g_matrix, h=h,
    )


# --- Metric compatibility ------------------------------------------------------------


def _covariant_defect(d, metric, gamma) -> float:
    """Max over i, j of |d_ij - gamma[m][i] metric_mj - gamma[m][j] metric_im|,
    the covariant derivative of a metric along one direction, from the
    metric's (adapted) derivative ``d`` along it and the pack's coefficients
    ``gamma`` [m][i] in that direction, all plain values; an empty
    ``gamma`` is a direction the pack has no coefficients in.  A NaN
    defect is kept."""
    defects = []
    for i, row in enumerate(d):
        for j, val in enumerate(row):
            for m, gm in enumerate(gamma):
                val -= gm[i] * metric[m][j] + gm[j] * metric[i][m]
            defects.append(abs(val))
    return nan_max(0.0, *defects)


def metric_compatibility(pack: LinearConnectionPack, point: JetPoint,
                         co: Coefficients) -> dict:
    """Max |covariant derivative| of the spatial and temporal metrics in all
    three directions; all six must vanish for the Cartan pack.

    ``co`` is the pack's coefficients at ``point``, which the caller has
    already evaluated: ``verify`` reads them from the torsion table's frame
    (``curvature._Frame.coefficients``), bitwise ``pack.coefficients_at(point)``.
    One Jacobian of each metric serves all directions (the
    slot rules are those of the covariant derivative in ``tests/oracles.py``,
    which the test-suite pins this code path against).  The pack is
    h-normal: h has no coefficients along x or v.
    """
    n, p = pack.dims.n, pack.dims.p
    coords = all_coords(pack.dims)
    g, g_jac = field_jacobian(pack.g_matrix_at, point, coords)
    hmat, h_jac = field_jacobian(lambda q: pack.h.matrix_at(q.t), point, coords)
    g, hmat, G, Lc, C, H = structure_values((g, hmat, co.g, co.l, co.c, co.hbar))

    worst = dict.fromkeys(("g_t_horizontal", "g_m_horizontal", "g_vertical",
                           "h_t_horizontal", "h_m_horizontal", "h_vertical"), 0.0)

    def record(direction, dg, dh, gamma_g, gamma_h):
        g_key, h_key = "g_" + direction, "h_" + direction
        worst[g_key] = nan_max(worst[g_key], _covariant_defect(dg, g, gamma_g))
        worst[h_key] = nan_max(worst[h_key], _covariant_defect(dh, hmat, gamma_h))

    for c in range(p):
        record("t_horizontal", _delta_matrix(g_jac, t_coord(c), co.m),
               _delta_matrix(h_jac, t_coord(c), co.m),
               [[G[m][i][c] for i in range(n)] for m in range(n)],
               [[H[mu][a][c] for a in range(p)] for mu in range(p)])
    for k in range(n):
        record("m_horizontal", _delta_matrix(g_jac, x_coord(k), co.n),
               _delta_matrix(h_jac, x_coord(k), co.n),
               [[Lc[m][i][k] for i in range(n)] for m in range(n)], [])
    for k in range(n):
        for c in range(p):
            record("vertical", g_jac[v_coord(k, c)], h_jac[v_coord(k, c)],
                   [[C[m][i][k][c] for i in range(n)] for m in range(n)], [])
    return worst
