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
Christoffels (the p = 1 Cartan N is the spray derivative,
``spray_n_values``), and the matrices of g and h the closure built its
families from.  This module only builds the packs; ``curvature`` reads
them at a point, through one lift of ``coefficients_at``.
"""

from __future__ import annotations

from typing import NamedTuple

from .calculus import all_coords, field_jacobian, t_coord, v_coord, x_coord
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
    h_christoffel_values,
    levi_civita,
)
from .regularity import ElectrodynamicsDecomposition, g_from_hessian


class Coefficients(NamedTuple):
    """Point values of the four effective families (generic scalars), of
    the (M, N) coefficients of the nonlinear connection below them and of
    the metrics g and h the families were built from."""

    hbar: list  # [c][a][b]
    g: list     # [k][j][c]
    l: list     # [i][j][k]
    c: list     # [i][j][k][c]  (C^{i(c)}_{j(k)})
    m: list     # [i][a][b]
    n: list     # [i][a][j]
    gmat: list  # [i][j]
    hmat: list  # [a][b]


class LinearConnectionPack:
    """An h-normal linear connection: the four effective coefficient fields
    (with the M, N below them) and the spatial metric they were built over.
    The derived vertical coefficients are delta-combinations of these four."""

    __slots__ = ("dims", "kind", "coefficients_at", "g_matrix_at")

    def __init__(self, dims: Dims, kind: str, coefficients_at, g_matrix_at):
        self.dims = dims
        self.kind = kind                        # "cartan" | "berwald" | "custom"
        self.coefficients_at = coefficients_at  # JetPoint -> Coefficients
        self.g_matrix_at = g_matrix_at          # JetPoint -> n x n spatial metric values


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
        return Coefficients(hbar=hbar, g=g_co, l=l_co, c=c_co, m=m_co, n=n_co,
                            gmat=g, hmat=hmat)

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
            n=electrodynamics_n_values(hmat, jet, ginv, pair_n_values(l_co, point), g_co),
            gmat=jet.g, hmat=hmat)

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
        dims=dims, kind="cartan", coefficients_at=coefficients, g_matrix_at=g_matrix)


def berwald_connection(h: TemporalMetric, g_matrix, dims: Dims) -> LinearConnectionPack:
    """The connection (Hbar, 0, gamma^k_ij, 0) of the metric pair (h, g),
    over the pair's own nonlinear connection M = -H^c_{ab} v^i_c,
    N = gamma^i_{jk} v^k_a.  Intended for g = g(x); for time-dependent g it
    freezes t as a parameter, which is what the distinctness probes
    exercise.  ``g_matrix`` maps a jet point to the n x n matrix of g."""
    n, p = dims.n, dims.p

    def coefficients(point: JetPoint):
        hmat, _, hbar = h_christoffel_values(h, point.t)
        gmat, _, l_co = levi_civita(g_matrix, point, [x_coord(k) for k in range(n)])
        g_co = [[[0.0] * p for _ in range(n)] for _ in range(n)]
        c_co = [[[[0.0] * p for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return Coefficients(hbar=hbar, g=g_co, l=l_co, c=c_co, m=m_values(hbar, point),
                            n=pair_n_values(l_co, point), gmat=gmat, hmat=hmat)

    return LinearConnectionPack(
        dims=dims, kind="berwald", coefficients_at=coefficients, g_matrix_at=g_matrix)
