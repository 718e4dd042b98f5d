"""Canonical spray and nonlinear connection of a block-regular Lagrangian.

From L and the temporal metric h this module assembles, at any jet point:

* the Euler-Lagrange residual at a map's 2-jet, from the spray there, and
  the extremal equations rearranged as the harmonic-map form
  h^{ab}(x_ab - H^c_ab x_c) + 2G (``harmonic_form``, over plain floats),
  which lattice residuals and ``verify`` both evaluate,
* the spray entity vectors S, H, J and their sum G (stored halved: the
  displayed geometric quantities are 2S, 2H, 2J, 2G),
* the spray coefficient packages (the temporal block is 1/2 M, from
  ``m_values``; the spatial block),
* the M and N kernels of the induced nonlinear connection, and the
  adapted-frame derivative of a field's entries along it (``delta_entry``).

M and N are kernels over values the caller holds at the point
(``m_values``, ``pair_n_values``, ``electrodynamics_n_values``), so a
linear-connection closure computes H, Gamma and g^{-1} once per point.
The p >= 2 canonical N (section 3) is the metric pair's N plus the Cartan
G block plus the potentials' term; the p = 1 one, the spray derivative,
is ``spray_n_values``.

Every assembly evaluates generically over the scalar kind; derivatives of
M and N (needed by torsion/curvature) come from running the same assembly
on a lifted point.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .calculus import (
    Coord,
    all_coords,
    field_jacobian,
    structure_entry,
    structure_values,
    v_coord,
)
from .jet_core import DTensor, JetPoint, temporal_lower, vertical_upper
from .metric_engine import (
    TemporalMetric,
    checked_inverse,
    christoffel,
    h_christoffel_values,
)
from .regularity import DecompositionJet, hessian_blocks, trace_metric
from .scalars import pair_positions, scalar_value


def _sum(items):
    acc = 0.0
    for item in items:
        acc = acc + item
    return acc


# --- Shared derivative gathering ----------------------------------------------


class SprayData(NamedTuple):
    """One generic spray assembly at a point; entity vectors are halved."""

    blocks: list   # vertical Hessian blocks [i][a][j][b], as hessian_blocks gives them
    g: list        # h-trace spatial metric
    ginv: list
    inertia: tuple  # of g: (positive, negative) eigenvalue counts
    hmat: list     # temporal metric h at the point's t
    hinv: list
    hch: list      # temporal Christoffels [c][a][b]
    bracket: list  # first-order Euler-Lagrange bracket, per i
    s_vec: list
    h_vec: list
    j_vec: list
    g_vec: list


@functools.cache
def _spray_pairs(n: int, p: int):
    """The Hessian pairs the spray reads, over the coordinates ordered t, x,
    v: t^a with v^i_a, x^j with v^i_a, and the v-v triangle that g is the
    h-trace of; row-major with the row first.  That is np + n^2 p +
    np(np + 1)/2 of the (p + n + np)(p + n + np + 1)/2 pairs."""
    off = p + n  # index of v^0_0
    k = n * p
    kept = sorted(
        [(a, off + i * p + a) for i in range(n) for a in range(p)]
        + [(p + j, off + i * p + a) for j in range(n) for i in range(n) for a in range(p)]
        + [(off + r, off + c) for r in range(k) for c in range(r, k)]
    )
    return tuple(r for r, _ in kept), tuple(c for _, c in kept)


@functools.cache
def _cross_positions(pairs, n: int, p: int):
    """Positions in ``pairs``, over the coordinates ordered t, x, v, of the
    spray's cross partials d2L/dx^j dv^i_a, as [j][i][a], and d2L/dt^a
    dv^i_a, as [i][a]; built once per pair set."""
    at = pair_positions(pairs)
    off = p + n  # index of v^0_0
    xv = tuple(tuple(tuple(at[p + j, off + i * p + a] for a in range(p)) for i in range(n))
               for j in range(n))
    tv = tuple(tuple(at[a, off + i * p + a] for a in range(p)) for i in range(n))
    return xv, tv


def spray_data(L, h: TemporalMetric, point: JetPoint) -> SprayData:
    """Assemble the spray entities from first/second partials of L, all
    from one evaluation of L over every coordinate (``hessian_blocks`` with
    the pairs of ``_spray_pairs``); g is the h-trace of its vertical blocks.
    It carries h, its inverse and its Christoffels, which
    ``h_christoffel_values`` reads from the evaluation of h that L's lift
    has just kept where L inverts h (the builtin families).

    2S^k = (g^{ki}/2)[d2L/dx^j dv^i_a v^j_a - dL/dx^i]
    2H^k = (g^{ki}/2)[d2L/dt^a dv^i_a + dL/dv^i_a H^c_{ac}]
    2J^k = h^{ab} H^c_{ab} v^k_c
    """
    dims = point.dims
    n, p = dims.n, dims.p
    v = point.v

    pairs = _spray_pairs(n, p)
    blocks, _, grad, hess = hessian_blocks(L, point, all_coords(dims), pairs)
    hmat, hinv, hch = h_christoffel_values(h, point.t)
    g = trace_metric(hmat, blocks)
    htrace = [_sum(hch[c][a][c] for c in range(p)) for a in range(p)]
    ginv, _, inertia = checked_inverse(g)

    off = p + n  # index of v^0_0
    xv, tv = _cross_positions(pairs, n, p)
    spatial_part = [0.0] * n
    temporal_part = [0.0] * n
    bracket = [0.0] * n
    for i in range(n):
        acc = 0.0
        for j in range(n):
            for a in range(p):
                acc = acc + hess[xv[j][i][a]] * v[j][a]
        spatial_part[i] = acc - grad[p + i]
        acc_t = 0.0
        for a in range(p):
            acc_t = acc_t + hess[tv[i][a]] + grad[off + i * p + a] * htrace[a]
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
    return SprayData(blocks=blocks, g=g, ginv=ginv, inertia=inertia, hmat=hmat, hinv=hinv,
                     hch=hch, bracket=bracket, s_vec=s_vec, h_vec=h_vec, j_vec=j_vec,
                     g_vec=g_vec)


def gcal_values(L, h: TemporalMetric, point: JetPoint):
    """The spray vector G^k (halved doubled entity) as a plain list."""
    return spray_data(L, h, point).g_vec


# --- Euler-Lagrange residual ---------------------------------------------------


def euler_lagrange_residual(point: JetPoint, xab, data: SprayData) -> np.ndarray:
    """Left side of the extremal equations at the 2-jet (t, x, x_a, x_ab) of a
    map, per i: 2 G^{(ab)}_{(ij)} x^j_{ab} + d2L/dx^j dv^i_a x^j_a - dL/dx^i
    + d2L/dt^a dv^i_a + dL/dv^i_a H^c_{ac}.  ``point`` is (t, x, x_a),
    ``xab[j][a][b]`` the second derivatives and ``data`` the ``spray_data``
    at ``point``: its bracket holds every term but the first, and its
    vertical blocks are the G^{(ab)}_{(ij)} of the first, so L is not
    evaluated here."""
    dims = point.dims
    blocks = data.blocks
    res = []
    for i in range(dims.n):
        acc = data.bracket[i]
        for j in range(dims.n):
            for a in range(dims.p):
                for b in range(dims.p):
                    acc = acc + 2.0 * blocks[i][a][j][b] * xab[j][a][b]
        res.append(scalar_value(acc))
    return np.array(res)


def harmonic_form(hinv, hch, xa, xab, g_vec) -> list:
    """The extremal equations rearranged as harmonic-map equations, per k:
    h^{ab}(x^k_ab - H^c_ab x^k_c) + 2 G^k, over plain floats (as the spray
    of a float point holds them): h^{-1} as ``hinv[a][b]``, the temporal
    Christoffels ``hch[c][a][b]``, the map's derivatives ``xa[k][c]`` and
    ``xab[k][a][b]`` and the halved spray vector ``g_vec``."""
    p = len(hinv)
    out = []
    for first, second, g_k in zip(xa, xab, g_vec):
        acc = 0.0
        for a in range(p):
            for b in range(p):
                lap = second[a][b]
                for c in range(p):
                    lap -= hch[c][a][b] * first[c]
                acc += hinv[a][b] * lap
        out.append(acc + 2.0 * g_k)
    return out


# --- Spray coefficient packages -------------------------------------------------


class SprayPack:
    """Point values of the canonical spray: entity vectors plus the temporal
    and spatial coefficient blocks."""

    __slots__ = ("S", "Hc", "J", "Gc", "H_temporal", "G_spatial")

    def __init__(self, S: np.ndarray, Hc: np.ndarray, J: np.ndarray, Gc: np.ndarray,
                 H_temporal: DTensor, G_spatial: DTensor):
        self.S = S
        self.Hc = Hc
        self.J = J
        self.Gc = Gc
        self.H_temporal = H_temporal
        self.G_spatial = G_spatial


def spray_entities(L, h: TemporalMetric, point: JetPoint,
                   jet: DecompositionJet | None) -> SprayPack:
    """The spray pack at ``point``; for p >= 2 its spatial block reads the
    decomposition's ``jet`` at the point's (t, x), None for p = 1."""
    n, p = len(point.x), len(point.t)
    data = spray_data(L, h, point)
    hmat = structure_values(data.hmat)
    s, hv, jv, gv = (np.array(structure_values(vec))
                     for vec in (data.s_vec, data.h_vec, data.j_vec, data.g_vec))
    m = structure_values(m_values(data.hch, point))
    h_temp = DTensor((vertical_upper(n, p), temporal_lower(p)),
                     [[0.5 * e for e in row] for block in m for row in block])

    g_spat = DTensor((vertical_upper(n, p), temporal_lower(p)))
    if p == 1:
        for l in range(n):
            g_spat.set(((l, 0), 0), hmat[0][0] * gv[l])
    else:
        t_vec = _trace_tensor_vector(point, jet, data)
        gamma = christoffel(checked_inverse(jet.g).inverse, jet.dg_dx)
        for l in range(n):
            for a in range(p):
                for b in range(p):
                    quad = 0.0
                    for j in range(n):
                        for k in range(n):
                            quad += scalar_value(gamma[l][j][k]) * \
                                scalar_value(point.v[j][a]) * scalar_value(point.v[k][b])
                    g_spat.set(((l, a), b), 0.5 * quad + (hmat[a][b] / p) * t_vec[l])
    return SprayPack(S=s, Hc=hv, J=jv, Gc=gv, H_temporal=h_temp, G_spatial=g_spat)


def _trace_tensor_vector(point, jet: DecompositionJet, data: SprayData):
    """T^l = (g^{li}/4)[2 h^{ab} dg_ij/dt^a v^j_b + U^{(a)}_{(i)j} v^j_a
    + dU^a_i/dt^a + U^a_i H^c_{ac} - dF/dx^i] (halved displayed value),
    from the decomposition's ``jet`` at the point."""
    n, p = len(point.x), len(point.t)
    v = point.v
    hinv = data.hinv
    htrace = [_sum(data.hch[c][a][c] for c in range(p)) for a in range(p)]
    dg_dt, du_dt, u, ucurl, df_dx = jet.dg_dt, jet.du_dt, jet.u, jet.u_curl, jet.df_dx

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


# --- Nonlinear connection kernels -------------------------------------------------


def m_values(hch, point: JetPoint):
    """M^{(i)}_{(a)b} = -H^c_{ab} v^i_c as [i][a][b], from the temporal
    Christoffels ``hch`` [c][a][b] at the point."""
    p = len(hch)
    return [
        [[-_sum(hch[c][a][b] * vi[c] for c in range(p)) for b in range(p)] for a in range(p)]
        for vi in point.v
    ]


def pair_n_values(gamma, point: JetPoint):
    """N^{(i)}_{(a)j} = Gamma^i_{jk} v^k_a as [i][a][j], the N of a metric
    pair, from the Christoffels ``gamma`` [i][j][k] of g at the point."""
    n, p = len(gamma), len(point.t)
    return [
        [[_sum(gamma[i][j][k] * point.v[k][a] for k in range(n)) for j in range(n)]
         for a in range(p)]
        for i in range(n)
    ]


def electrodynamics_n_values(hmat, jet: DecompositionJet, ginv, pair_n, g_block):
    """The p >= 2 canonical N^{(i)}_{(a)j} = Gamma^i_{jk} v^k_a
    + (g^{ik}/2) dg_jk/dt^a + (g^{ik}/4) h_{ac} U^{(c)}_{(k)j} (section 3)
    as [i][a][j]: the metric pair's N ``pair_n`` (``pair_n_values``, the
    first term), plus the Cartan G block ``g_block`` [i][j][a] (the second),
    plus the potentials' term, the only one computed here, from h's matrix
    ``hmat``, the curl of U in the decomposition's ``jet`` and g^{-1}
    ``ginv`` at the point.  A curl entry that is a plain float zero adds
    no term."""
    n, p = len(ginv), len(hmat)
    ucurl = jet.u_curl
    curl = [[(k, c, ucurl[k][c][j]) for k in range(n) for c in range(p)
             if not (type(ucurl[k][c][j]) is float and ucurl[k][c][j] == 0.0)]
            for j in range(n)]
    return [[[pair_n[i][a][j] + g_block[i][j][a] + 0.25 * _sum(
        ginv[i][k] * hmat[a][c] * w for k, c, w in curl[j])
        for j in range(n)] for a in range(p)] for i in range(n)]


def spray_n_values(L, h: TemporalMetric, hmat, point: JetPoint):
    """The p = 1 canonical N^{(i)}_{(1)j} = h_11 dG^i/dv^j_1 as [i][0][j],
    with ``hmat`` h's matrix at point.t: forward mode pushed through the
    whole spray assembly, metric inversion included."""
    n = len(point.x)
    vs = [v_coord(j, 0) for j in range(n)]
    _, jac = field_jacobian(lambda q: gcal_values(L, h, q), point, vs)
    return [[[hmat[0][0] * jac[c][i] for c in vs]] for i in range(n)]


# --- Adapted derivatives ----------------------------------------------------------


def delta_entry(jac, idx, coord: Coord, coeffs):
    """Adapted derivative of entry ``idx`` of a field whose coordinate
    Jacobian is ``jac`` (``calculus.field_jacobian`` along ``coord`` and
    every vertical coordinate): for coord = t^a and coeffs = M values
    delta/delta t^a = d/dt^a - M^{(l)}_{(b)a} d/dv^l_b, for coord = x^j and
    coeffs = N values delta/delta x^j = d/dx^j - N^{(l)}_{(b)j} d/dv^l_b.
    Weights that are plain float zeros are skipped.  It serves two kinds of
    leaf: a scalar, one entry (the p = 1 Cartan closure, the test oracles),
    and an ndarray, every entry at once (the torsion frame, whose leaf per
    coordinate is one float64 row of every coefficient table's entries)."""
    col = coord.alpha if coord.kind == "t" else coord.i
    acc = structure_entry(jac[coord], idx)
    for l, block in enumerate(coeffs):
        for b, row in enumerate(block):
            w = row[col]
            if type(w) is float and w == 0.0:
                continue
            acc = acc - w * structure_entry(jac[v_coord(l, b)], idx)
    return acc
