"""Canonical spray and nonlinear connection of a block-regular Lagrangian.

From L and the temporal metric h this module assembles, at any jet point:

* the Euler-Lagrange residual of a candidate map,
* the spray entity vectors S, H, J and their sum G (stored halved: the
  displayed geometric quantities are 2S, 2H, 2J, 2G),
* the spray coefficient packages (temporal and spatial blocks),
* the induced nonlinear connection (M, N), and the adapted-frame
  derivative of a field's entries along it (``delta_entry``).

Every assembly evaluates generically over the scalar kind; derivatives of
M and N (needed by torsion/curvature) come from running the same assembly
on a lifted point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import (
    Coord,
    all_coords,
    d1,
    d2,
    dual_part,
    field_jacobian,
    gradient_hessian,
    lift_d1,
    structure_dual_parts,
    structure_entry,
    t_coord,
    v_coord,
    x_coord,
)
from .errors import DimensionError
from .jet_core import (
    Dims,
    DTensor,
    JetPoint,
    spatial_lower,
    temporal_lower,
    vertical_upper,
)
from .metric_engine import (
    SpatialMetricField,
    TemporalMetric,
    checked_inverse,
    g_christoffel_values,
    h_christoffel_values,
)
from .regularity import (
    ElectrodynamicsDecomposition,
    electrodynamics_decompose,
    g_from_hessian,
    hessian_blocks,
)
from .scalars import scalar_value


def _sum(items):
    acc = 0.0
    for item in items:
        acc = acc + item
    return acc


# --- Shared derivative gathering ----------------------------------------------


class SprayData(NamedTuple):
    """One generic spray assembly at a point; entity vectors are halved."""

    g: list        # h-trace spatial metric
    ginv: list
    hch: list      # temporal Christoffels [c][a][b]
    bracket: list  # first-order Euler-Lagrange bracket, per i
    s_vec: list
    h_vec: list
    j_vec: list
    g_vec: list


@functools.cache
def _spray_pairs(n: int, p: int):
    """The Hessian pairs the spray reads, over the coordinates ordered t, x,
    v: t^a with v^i_a, and x^j with v^i_a, row-major with the row first."""
    off = p + n  # index of v^0_0
    kept = sorted(
        [(a, off + i * p + a) for i in range(n) for a in range(p)]
        + [(p + j, off + i * p + a) for j in range(n) for i in range(n) for a in range(p)]
    )
    return tuple(r for r, _ in kept), tuple(c for _, c in kept)


def spray_data(L, h: TemporalMetric, point: JetPoint, dims: Dims | None = None) -> SprayData:
    """Assemble the spray entities from first/second partials of L.

    2S^k = (g^{ki}/2)[d2L/dx^j dv^i_a v^j_a - dL/dx^i]
    2H^k = (g^{ki}/2)[d2L/dt^a dv^i_a + dL/dv^i_a H^c_{ac}]
    2J^k = h^{ab} H^c_{ab} v^k_c
    """
    dims = dims or getattr(L, "dims", None) or point.dims
    n, p = dims.n, dims.p
    v = point.v

    g = g_from_hessian(L, h, point, dims)
    hinv = h.inverse_at(point.t)
    hch = h_christoffel_values(h, point.t)
    htrace = [_sum(hch[c][a][c] for c in range(p)) for a in range(p)]
    ginv = checked_inverse(g)

    # one evaluation over every coordinate, ordered t, x, v, carrying only
    # the mixed pairs read below
    grad, hess = gradient_hessian(L, point, all_coords(dims), _spray_pairs(n, p))
    off = p + n  # index of v^0_0
    dldx = grad[p:off]
    dldv = [[grad[off + i * p + a] for a in range(p)] for i in range(n)]
    cross_xv = [[[hess[p + j][off + i * p + a] for a in range(p)] for i in range(n)]
                for j in range(n)]  # [j][i][a]
    cross_tv = [[hess[a][off + i * p + a] for a in range(p)] for i in range(n)]  # [i][a]

    spatial_part = [0.0] * n
    temporal_part = [0.0] * n
    bracket = [0.0] * n
    for i in range(n):
        acc = 0.0
        for j in range(n):
            for a in range(p):
                acc = acc + cross_xv[j][i][a] * v[j][a]
        spatial_part[i] = acc - dldx[i]
        acc_t = 0.0
        for a in range(p):
            acc_t = acc_t + cross_tv[i][a] + dldv[i][a] * htrace[a]
        temporal_part[i] = acc_t
        bracket[i] = spatial_part[i] + acc_t

    s_vec, h_vec, j_vec, g_vec = [], [], [], []
    for k in range(n):
        s_k = _sum(ginv[k][i] * spatial_part[i] for i in range(n)) * 0.25
        h_k = _sum(ginv[k][i] * temporal_part[i] for i in range(n)) * 0.25
        j_k = 0.0
        for a in range(p):
            for b in range(p):
                hab = hinv[a][b]
                if isinstance(hab, float) and hab == 0.0:
                    continue
                for c in range(p):
                    j_k = j_k + hab * hch[c][a][b] * v[k][c]
        j_k = j_k * 0.5
        s_vec.append(s_k)
        h_vec.append(h_k)
        j_vec.append(j_k)
        g_vec.append(s_k + h_k + j_k)
    return SprayData(g=g, ginv=ginv, hch=hch, bracket=bracket,
                     s_vec=s_vec, h_vec=h_vec, j_vec=j_vec, g_vec=g_vec)


def gcal_values(L, h: TemporalMetric, point: JetPoint, dims: Dims | None = None):
    """The spray vector G^k (halved doubled entity) as a plain list."""
    return spray_data(L, h, point, dims).g_vec


# --- Euler-Lagrange residual ---------------------------------------------------


@dataclass
class JetMap:
    """A candidate map t -> x(t) with first and second derivatives."""

    dims: Dims
    x: object    # ts -> [n]
    dx: object   # ts -> [n][p]
    d2x: object  # ts -> [n][p][p]

    def point_at(self, ts) -> JetPoint:
        ts = tuple(ts)
        return JetPoint(ts, self.x(ts), self.dx(ts))


def jet_map_from_fields(fields, dims: Dims) -> JetMap:
    """JetMap from n scalar fields of t only; derivatives by forward mode."""

    def as_point(ts):
        return JetPoint(ts, (0.0,) * dims.n, tuple((0.0,) * dims.p for _ in range(dims.n)))

    def x(ts):
        return [scalar_value(f(as_point(ts))) for f in fields]

    def dx(ts):
        return [[d1(f, as_point(ts), t_coord(a)) for a in range(dims.p)] for f in fields]

    def d2x(ts):
        return [
            [[d2(f, as_point(ts), t_coord(a), t_coord(b)) for b in range(dims.p)]
             for a in range(dims.p)]
            for f in fields
        ]

    return JetMap(dims=dims, x=x, dx=dx, d2x=d2x)


def euler_lagrange_residual(L, h: TemporalMetric, map2jet: JetMap, t) -> np.ndarray:
    """Left side of the extremal equations at parameter value t, per i:
    2 G^{(ab)}_{(ij)} x^j_{ab} + d2L/dx^j dv^i_a x^j_a - dL/dx^i
    + d2L/dt^a dv^i_a + dL/dv^i_a H^c_{ac}."""
    ts = tuple(float(val) for val in t)
    point = map2jet.point_at(ts)
    dims = map2jet.dims
    xab = map2jet.d2x(ts)
    blocks = hessian_blocks(L, point, dims)
    data_bracket = spray_data(L, h, point, dims).bracket
    res = []
    for i in range(dims.n):
        acc = data_bracket[i]
        for j in range(dims.n):
            for a in range(dims.p):
                for b in range(dims.p):
                    acc = acc + 2.0 * blocks[i][a][j][b] * xab[j][a][b]
        res.append(scalar_value(acc))
    return np.array(res)


# --- Spray coefficient packages -------------------------------------------------


@dataclass
class SprayPack:
    """Point values of the canonical spray: entity vectors plus the temporal
    and spatial coefficient blocks (and the trace-normalized tensor part for
    p >= 2)."""

    S: np.ndarray
    Hc: np.ndarray
    J: np.ndarray
    Gc: np.ndarray
    H_temporal: DTensor
    G_spatial: DTensor
    T_tensor: DTensor | None


def spray_entities(L, h: TemporalMetric, point: JetPoint,
                   decomposition: ElectrodynamicsDecomposition | None = None) -> SprayPack:
    dims = getattr(L, "dims", None) or point.dims
    n, p = dims.n, dims.p
    data = spray_data(L, h, point, dims)
    hmat = [[scalar_value(e) for e in row] for row in h.matrix_at(point.t)]

    s = np.array([scalar_value(e) for e in data.s_vec])
    hv = np.array([scalar_value(e) for e in data.h_vec])
    jv = np.array([scalar_value(e) for e in data.j_vec])
    gv = np.array([scalar_value(e) for e in data.g_vec])

    h_temp = DTensor((vertical_upper(n, p), temporal_lower(p)))
    for i in range(n):
        for a in range(p):
            for b in range(p):
                acc = 0.0
                for c in range(p):
                    acc += scalar_value(data.hch[c][a][b]) * scalar_value(point.v[i][c])
                h_temp.set(((i, a), b), -0.5 * acc)

    g_spat = DTensor((vertical_upper(n, p), temporal_lower(p)))
    t_tens = None
    if p == 1:
        for l in range(n):
            g_spat.set(((l, 0), 0), hmat[0][0] * gv[l])
    else:
        if decomposition is None:
            decomposition = electrodynamics_decompose(L, h)
        t_vec = _trace_tensor_vector(h, point, decomposition, data)
        gamma = g_christoffel_values(decomposition.metric, point)
        t_tens = DTensor((vertical_upper(n, p), temporal_lower(p)))
        for l in range(n):
            for a in range(p):
                for b in range(p):
                    quad = 0.0
                    for j in range(n):
                        for k in range(n):
                            quad += scalar_value(gamma[l][j][k]) * \
                                scalar_value(point.v[j][a]) * scalar_value(point.v[k][b])
                    t_ab = (hmat[a][b] / p) * t_vec[l]
                    t_tens.set(((l, a), b), t_ab)
                    g_spat.set(((l, a), b), 0.5 * quad + t_ab)
    return SprayPack(S=s, Hc=hv, J=jv, Gc=gv, H_temporal=h_temp,
                     G_spatial=g_spat, T_tensor=t_tens)


def _trace_tensor_vector(h, point, deco: ElectrodynamicsDecomposition, data: SprayData):
    """T^l = (g^{li}/4)[2 h^{ab} dg_ij/dt^a v^j_b + U^{(a)}_{(i)j} v^j_a
    + dU^a_i/dt^a + U^a_i H^c_{ac} - dF/dx^i] (halved displayed value)."""
    dims = deco.dims
    n, p = dims.n, dims.p
    v = point.v
    hinv = h.inverse_at(point.t)
    htrace = [_sum(data.hch[c][a][c] for c in range(p)) for a in range(p)]

    dg_dt = []
    du_dt = []
    for a in range(p):
        lifted = lift_d1(point, t_coord(a))
        dg_dt.append(structure_dual_parts(deco.g_field(lifted)))
        du_dt.append(structure_dual_parts(deco.u_field(lifted)))
    u = deco.u_field(point)
    ucurl = deco.u_curl_at(point)
    df_dx = [d1(deco.f_field, point, x_coord(i)) for i in range(n)]

    out = []
    for l in range(n):
        acc = 0.0
        for i in range(n):
            inner = 0.0
            for a in range(p):
                for b in range(p):
                    for j in range(n):
                        inner = inner + 2.0 * hinv[a][b] * dg_dt[a][i][j] * v[j][b]
            for j in range(n):
                for a in range(p):
                    inner = inner + ucurl[i][a][j] * v[j][a]
            for a in range(p):
                inner = inner + du_dt[a][i][a] + u[i][a] * htrace[a]
            inner = inner - df_dx[i]
            acc = acc + data.ginv[l][i] * inner
        out.append(scalar_value(acc) * 0.25)
    return out


# --- Nonlinear connection --------------------------------------------------------


@dataclass
class NonlinearConnection:
    """Evaluatable nonlinear-connection coefficients (M, N)."""

    dims: Dims
    m_at: object  # JetPoint -> [i][a][b]
    n_at: object  # JetPoint -> [i][a][j]

    def m_tensor(self, point: JetPoint) -> DTensor:
        n, p = self.dims.n, self.dims.p
        out = DTensor((vertical_upper(n, p), temporal_lower(p)))
        m = self.m_at(point)
        for i in range(n):
            for a in range(p):
                for b in range(p):
                    out.set(((i, a), b), scalar_value(m[i][a][b]))
        return out

    def n_tensor(self, point: JetPoint) -> DTensor:
        n, p = self.dims.n, self.dims.p
        out = DTensor((vertical_upper(n, p), spatial_lower(n)))
        nn = self.n_at(point)
        for i in range(n):
            for a in range(p):
                for j in range(n):
                    out.set(((i, a), j), scalar_value(nn[i][a][j]))
        return out


def _m_values(h: TemporalMetric, point: JetPoint, dims: Dims):
    """M^{(i)}_{(a)b} = -H^c_{ab} v^i_c as [i][a][b]."""
    hch = h_christoffel_values(h, point.t)
    return [
        [[-_sum(hch[c][a][b] * point.v[i][c] for c in range(dims.p))
          for b in range(dims.p)] for a in range(dims.p)]
        for i in range(dims.n)
    ]


def metric_pair_connection(h: TemporalMetric, g: SpatialMetricField, dims: Dims) -> NonlinearConnection:
    """The nonlinear connection of a metric pair: M = -H^c_{ab} v^i_c,
    N = gamma^i_{jk} v^k_a (the frame the Berwald connection lives over)."""

    def m_at(point: JetPoint):
        return _m_values(h, point, dims)

    def n_at(point: JetPoint):
        gamma = g_christoffel_values(g, point)
        return [
            [[_sum(gamma[i][j][k] * point.v[k][a] for k in range(dims.n))
              for j in range(dims.n)] for a in range(dims.p)]
            for i in range(dims.n)
        ]

    return NonlinearConnection(dims=dims, m_at=m_at, n_at=n_at)


def canonical_nonlinear_connection(L, h: TemporalMetric,
                                   decomposition: ElectrodynamicsDecomposition | None = None
                                   ) -> NonlinearConnection:
    """The nonlinear connection induced by the canonical spray.

    M^{(i)}_{(a)b} = -H^c_{ab} v^i_c for every p.  N^{(i)}_{(1)j} is
    h_11 dG^i/dy^j for p = 1 (forward mode pushed through the whole spray
    assembly, metric inversion included); for p >= 2 it is the closed
    electrodynamics form Gamma^i_{jk} v^k_a + (g^{ik}/2) dg_jk/dt^a
    + (g^{ik}/4) h_{ac} U^{(c)}_{(k)j}.
    """
    dims = getattr(L, "dims", None)
    if dims is None:
        raise DimensionError("Lagrangian must expose .dims")
    n, p = dims.n, dims.p

    def m_at(point: JetPoint):
        return _m_values(h, point, dims)

    if p == 1:

        def n_at(point: JetPoint):
            hmat = h.matrix_at(point.t)
            cols = []
            for j in range(n):
                lifted = lift_d1(point, v_coord(j, 0))
                cols.append([dual_part(e) for e in gcal_values(L, h, lifted, dims)])
            return [[[hmat[0][0] * cols[j][i] for j in range(n)]] for i in range(n)]

    else:
        deco = decomposition or electrodynamics_decompose(L, h)
        ts = [t_coord(a) for a in range(p)]

        def n_at(point: JetPoint):
            gamma = g_christoffel_values(deco.metric, point)
            ginv = deco.metric.inverse_at(point)
            hmat = h.matrix_at(point.t)
            dg_dt = field_jacobian(deco.g_field, point, ts)
            ucurl = deco.u_curl_at(point)
            out = [[[0.0] * n for _ in range(p)] for _ in range(n)]
            for i in range(n):
                for a in range(p):
                    for j in range(n):
                        acc = 0.0
                        for k in range(n):
                            acc = acc + gamma[i][j][k] * point.v[k][a]
                            acc = acc + 0.5 * ginv[i][k] * dg_dt[ts[a]][j][k]
                            for c in range(p):
                                acc = acc + 0.25 * ginv[i][k] * hmat[a][c] * ucurl[k][c][j]
                        out[i][a][j] = acc
            return out

    return NonlinearConnection(dims=dims, m_at=m_at, n_at=n_at)


# --- Adapted derivatives ----------------------------------------------------------


def delta_entry(jac, idx, coord: Coord, coeffs):
    """Adapted derivative of entry ``idx`` of a field whose coordinate
    Jacobian is ``jac`` (``calculus.field_jacobian`` along ``coord`` and
    every vertical coordinate): for coord = t^a and coeffs = M values
    delta/delta t^a = d/dt^a - M^{(l)}_{(b)a} d/dv^l_b, for coord = x^j and
    coeffs = N values delta/delta x^j = d/dx^j - N^{(l)}_{(b)j} d/dv^l_b.
    Weights that are plain float zeros are skipped.  An ``idx`` that ends at
    an ndarray leaf gives the derivative of every entry of that array."""
    col = coord.alpha if coord.kind == "t" else coord.i
    acc = structure_entry(jac[coord], idx)
    for l, block in enumerate(coeffs):
        for b, row in enumerate(block):
            w = row[col]
            if type(w) is float and w == 0.0:
                continue
            acc = acc - w * structure_entry(jac[v_coord(l, b)], idx)
    return acc
