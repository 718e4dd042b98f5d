"""Torsion and curvature d-tensors of an h-normal linear connection.

Both tables read one frame per point: the coefficient tables (M, N, Hbar,
G, L, C) at the point and their partials along every coordinate, from one
evaluation on a Dual lift over all of them.  Every pack's coefficient
evaluation returns M and N with the four families.  ``torsion_table``
builds the frame and keeps it; ``curvature_table`` takes that torsion
table and reads the same frame.

Every family is evaluated from its generic defining formula as one numpy
array, vertical index pairs flattened as i*p + a.  A sum over a repeated
index adds one array term per index value, in index order, so each entry
goes through the float operations of the scalar formula.  The specialized
closed forms of the two distinguished connections are exercised by the
test-suite as oracles; the zero cells of their component tables are
asserted by ``table_zero_audit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import all_coords, field_jacobian, structure_values, t_coord, vertical_coords, x_coord
from .cartan import LinearConnectionPack
from .connection import delta_entry
from .jet_core import (
    DTensor,
    JetPoint,
    spatial_lower,
    spatial_upper,
    temporal_lower,
    temporal_upper,
    vertical_lower,
    vertical_upper,
)
from .metric_engine import riemann
from .scalars import nan_max


# --- Frame data: all coefficient tables and their coordinate derivatives ----


_TABLES = ("M", "N", "H", "G", "L", "C")


class _Frame:
    """Coefficient tables at a point and their partials: ``d[coord][table]``
    is the partial of a table along ``coord``.  The derivative methods return
    a table's derivatives with the direction appended as the last axes."""

    def __init__(self, pack: LinearConnectionPack, point: JetPoint):
        self.dims = pack.dims

        def tables(q):
            co = pack.coefficients_at(q)
            return [co.m, co.n, co.hbar, co.g, co.l, co.c]

        values, jac = field_jacobian(tables, point, all_coords(self.dims))
        base = dict(zip(_TABLES, structure_values(values)))
        # M and N stay nested float lists: delta_entry skips their float zeros
        self.m_values, self.n_values = base["M"], base["N"]
        self.H, self.G, self.L, self.C = (np.array(base[k]) for k in "HGLC")
        self.d = {c: {k: np.array(part) for k, part in zip(_TABLES, parts)}
                  for c, parts in jac.items()}

    def partial_v(self, table):
        """d/dv^k_c of a table, axes (k, c) appended."""
        parts = [self.d[c][table] for c in vertical_coords(self.dims)]
        return np.stack(parts, axis=-1).reshape(parts[0].shape + (self.dims.n, self.dims.p))

    def delta_t(self, table):
        """Adapted d/dt^b of a table, axis b appended."""
        return np.stack([delta_entry(self.d, (table,), t_coord(b), self.m_values)
                         for b in range(self.dims.p)], axis=-1)

    def delta_x(self, table):
        """Adapted d/dx^j of a table, axis j appended."""
        return np.stack([delta_entry(self.d, (table,), x_coord(j), self.n_values)
                         for j in range(self.dims.n)], axis=-1)


def _tensor(slots, array) -> DTensor:
    """Wrap an array whose vertical index pairs may still be two axes."""
    return DTensor(slots, array.reshape([s.extent for s in slots]))


def _product(spec, x, y):
    """Entrywise product of two arrays laid out by an einsum-style spec with
    no summed index, e.g. "ib,lc->libc" is x[i,b] * y[l,c].  (np.einsum adds
    each product to a zero, which turns a -0.0 product into 0.0.)"""
    ins, out = spec.split("->")
    views = []
    for letters, arr in zip(ins.split(","), (x, y)):
        size = dict(zip(letters, arr.shape))
        arr = arr.transpose([letters.index(ch) for ch in out if ch in letters])
        views.append(arr.reshape([size.get(ch, 1) for ch in out]))
    return views[0] * views[1]


# --- Torsion -----------------------------------------------------------------


@dataclass
class TorsionTable:
    """The nine possibly-nonzero torsion families, keyed by the block row
    (tt/mt/mm/vt/vm/vv) and output column (m: spatial, v: vertical), and the
    frame they were read from."""

    tt_v: DTensor  # R^{(m)}_{(mu) a b}
    mt_m: DTensor  # T^m_{a j}
    mt_v: DTensor  # R^{(m)}_{(mu) a j}
    mm_m: DTensor  # T^m_{ij}
    mm_v: DTensor  # R^{(m)}_{(mu) i j}
    vt_v: DTensor  # P^{(m)(b)}_{(mu) a (j)}
    vm_m: DTensor  # P^{m(b)}_{i(j)}
    vm_v: DTensor  # P^{(m)(b)}_{(mu) i (j)}
    vv_v: DTensor  # S^{(m)(a)(b)}_{(mu)(i)(j)}
    frame: _Frame = field(repr=False, compare=False)

    def families(self) -> dict:
        return {k: getattr(self, k) for k in (
            "tt_v", "mt_m", "mt_v", "mm_m", "mm_v", "vt_v", "vm_m", "vm_v", "vv_v")}

    def to_json_dict(self) -> dict:
        return {k: v.to_json_dict() for k, v in self.families().items()}


def torsion_table(pack: LinearConnectionPack, point: JetPoint) -> TorsionTable:
    fr = _Frame(pack, point)
    n, p = fr.dims.n, fr.dims.p
    G, L, C, H = fr.G, fr.L, fr.C, fr.H
    su, vu = spatial_upper(n), vertical_upper(n, p)
    tl, sl, vl = temporal_lower(p), spatial_lower(n), vertical_lower(n, p)

    dtM, dxN = fr.delta_t("M"), fr.delta_x("N")    # [m, mu, a, b], [m, mu, i, j]
    vt_v = fr.partial_v("M")                       # [m, mu, a, j, b]
    vm_v = fr.partial_v("N")                       # [m, mu, i, j, b]
    vv_v = np.zeros((n, p, n, p, n, p))            # [m, mu, i, a, j, b]
    for mu in range(p):
        vt_v[:, mu, :, :, mu] -= G.transpose(0, 2, 1)       # delta^b_mu G^m_{ja}
        vm_v[:, mu, :, :, mu] -= L.transpose(0, 2, 1)       # delta^b_mu L^m_{ji}
        vv_v[:, mu, :, mu] += C                             # delta^a_mu C^{m(b)}_{i(j)}
        vv_v[:, mu, :, :, :, mu] -= C.transpose(0, 2, 3, 1)  # delta^b_mu C^{m(a)}_{j(i)}
    for m in range(n):
        vt_v[m, :, :, m] += H.transpose(1, 2, 0)            # delta^m_j H^b_{mu a}

    return TorsionTable(
        tt_v=_tensor((vu, tl, tl), dtM - dtM.swapaxes(2, 3)),
        mt_m=_tensor((su, tl, sl), -G.transpose(0, 2, 1)),
        mt_v=_tensor((vu, tl, sl), fr.delta_x("M") - fr.delta_t("N").swapaxes(2, 3)),
        mm_m=_tensor((su, sl, sl), L - L.transpose(0, 2, 1)),
        mm_v=_tensor((vu, sl, sl), dxN - dxN.swapaxes(2, 3)),
        vt_v=_tensor((vu, tl, vl), vt_v),
        vm_m=_tensor((su, sl, vl), C),
        vm_v=_tensor((vu, sl, vl), vm_v),
        vv_v=_tensor((vu, vl, vl), vv_v),
        frame=fr,
    )


# --- Curvature ----------------------------------------------------------------


@dataclass
class CurvatureTable:
    """The seven effective curvature families plus the delta-lifted vertical
    column (assembled exactly from the effective ones)."""

    tt_t: DTensor  # H^a_{eta b c}
    tt_m: DTensor  # R^l_{i b c}
    mt_m: DTensor  # R^l_{i b k}
    mm_m: DTensor  # R^l_{i j k}
    vt_m: DTensor  # P^{l (c)}_{i b (k)}
    vm_m: DTensor  # P^{l (c)}_{i j (k)}
    vv_m: DTensor  # S^{l (b)(c)}_{i (j)(k)}
    tt_v: DTensor
    mt_v: DTensor
    mm_v: DTensor
    vt_v: DTensor
    vm_v: DTensor
    vv_v: DTensor

    def families(self) -> dict:
        return {k: getattr(self, k) for k in (
            "tt_t", "tt_m", "mt_m", "mm_m", "vt_m", "vm_m", "vv_m",
            "tt_v", "mt_v", "mm_v", "vt_v", "vm_v", "vv_v")}

    def to_json_dict(self) -> dict:
        return {k: v.to_json_dict() for k, v in self.families().items()}


def _c_covariant(dC, gam, C):
    """dC + gam^l_{m.} C^m_{ikc} - gam^m_{i.} C^l_{mkc} - gam^m_{k.} C^l_{imc}
    over [l, i, k, c, .]: the spatial-connection part of a horizontal
    covariant derivative of C."""
    for m in range(len(C)):
        dC = (dC + _product("lx,ikc->likcx", gam[:, m], C[m])
              - _product("ix,lkc->likcx", gam[m], C[:, m])
              - _product("kx,lic->likcx", gam[m], C[:, :, m]))
    return dC


def _plus_c_torsion(acc, C, torsion):
    """acc + C^{l(mu)}_{i(m)} X^{(m)}_{(mu)...} for a torsion family's data X."""
    n = len(C)
    cz = C.reshape(n, n, -1)  # z = m*p + mu, the flat vertical index of X
    for z, x in enumerate(torsion.data):
        acc = acc + cz[:, :, z].reshape((n, n) + (1,) * x.ndim) * x
    return acc


def _delta_lift(x, p):
    """delta^alpha_eta X^l_{i...} as [l, eta, i, alpha, ...]."""
    eye = np.eye(p).reshape((1, p, 1, p) + (1,) * (x.ndim - 2))
    return eye * x[:, None, :, None]


def curvature_table(torsion: TorsionTable) -> CurvatureTable:
    fr = torsion.frame
    n, p = fr.dims.n, fr.dims.p
    G, L, C, H = fr.G, fr.L, fr.C, fr.H
    tu, su, vu = temporal_upper(p), spatial_upper(n), vertical_upper(n, p)
    tl, sl, vl = temporal_lower(p), spatial_lower(n), vertical_lower(n, p)

    # Temporal block curvature (plain t-partials; H depends on t only).
    tt_t = np.array(riemann(H, [fr.d[t_coord(b)]["H"] for b in range(p)]))

    # Covariant derivatives of C in the T- and M-horizontal directions,
    # [l, i, k, c, b] and [l, i, k, c, j].
    ccov_t = _c_covariant(fr.delta_t("C"), G, C)
    for mu in range(p):
        ccov_t = ccov_t + _product("cb,lik->likcb", H[:, mu], C[..., mu])
    ccov_x = _c_covariant(fr.delta_x("C"), L, C)

    dtG, dxL, pvC = fr.delta_t("G"), fr.delta_x("L"), fr.partial_v("C")
    tt_m = dtG - dtG.swapaxes(2, 3)                           # [l, i, b, c]
    mt_m = fr.delta_x("G") - fr.delta_t("L").swapaxes(2, 3)  # [l, i, b, k]
    mm_m = dxL - dxL.swapaxes(2, 3)                           # [l, i, j, k]
    vv_m = pvC - pvC.transpose(0, 1, 4, 5, 2, 3)              # [l, i, j, b, k, c]
    for m in range(n):
        tt_m = tt_m + (_product("ib,lc->libc", G[m], G[:, m])
                       - _product("ic,lb->libc", G[m], G[:, m]))
        mt_m = mt_m + (_product("ib,lk->libk", G[m], L[:, m])
                       - _product("ik,lb->libk", L[m], G[:, m]))
        mm_m = mm_m + (_product("ij,lk->lijk", L[m], L[:, m])
                       - _product("ik,lj->lijk", L[m], L[:, m]))
        vv_m = vv_m + (_product("ijb,lkc->lijbkc", C[m], C[:, m])
                       - _product("ikc,ljb->lijbkc", C[m], C[:, m]))
    tt_m = _plus_c_torsion(tt_m, C, torsion.tt_v)
    mt_m = _plus_c_torsion(mt_m, C, torsion.mt_v)
    mm_m = _plus_c_torsion(mm_m, C, torsion.mm_v)
    vt_m = (fr.partial_v("G") - ccov_t.transpose(0, 1, 4, 2, 3)).reshape(n, n, p, n * p)
    vt_m = _plus_c_torsion(vt_m, C, torsion.vt_v)            # [l, i, b, (k, c)]
    vm_m = (fr.partial_v("L") - ccov_x.transpose(0, 1, 4, 2, 3)).reshape(n, n, n, n * p)
    vm_m = _plus_c_torsion(vm_m, C, torsion.vm_v)            # [l, i, j, (k, c)]

    # Delta-lifted vertical column.
    tt_v = _delta_lift(tt_m, p)
    for l in range(n):
        tt_v[l, :, l] += tt_t.transpose(1, 0, 2, 3)         # delta^l_i H^alpha_{eta b c}

    return CurvatureTable(
        tt_t=_tensor((tu, tl, tl, tl), tt_t),
        tt_m=_tensor((su, sl, tl, tl), tt_m),
        mt_m=_tensor((su, sl, tl, sl), mt_m),
        mm_m=_tensor((su, sl, sl, sl), mm_m),
        vt_m=_tensor((su, sl, tl, vl), vt_m),
        vm_m=_tensor((su, sl, sl, vl), vm_m),
        vv_m=_tensor((su, sl, vl, vl), vv_m),
        tt_v=_tensor((vu, vl, tl, tl), tt_v),
        mt_v=_tensor((vu, vl, tl, sl), _delta_lift(mt_m, p)),
        mm_v=_tensor((vu, vl, sl, sl), _delta_lift(mm_m, p)),
        vt_v=_tensor((vu, vl, tl, vl), _delta_lift(vt_m, p)),
        vm_v=_tensor((vu, vl, sl, vl), _delta_lift(vm_m, p)),
        vv_v=_tensor((vu, vl, vl, vl), _delta_lift(vv_m, p)),
    )


# --- Zero audits -----------------------------------------------------------------


TORSION_ZERO_CELLS = {
    ("cartan", 1): ("tt_v", "mm_m", "vv_v"),
    ("cartan", 2): ("mm_m", "vm_m", "vm_v", "vv_v"),
    ("berwald", 1): ("tt_v", "mt_m", "mt_v", "mm_m", "vt_v", "vm_m", "vm_v", "vv_v"),
    ("berwald", 2): ("mt_m", "mt_v", "mm_m", "vt_v", "vm_m", "vm_v", "vv_v"),
}

CURVATURE_ZERO_CELLS = {
    ("cartan", 1): ("tt_t", "tt_m"),
    ("cartan", 2): ("vt_m", "vm_m", "vv_m"),
    ("berwald", 1): ("tt_t", "tt_m", "mt_m", "vt_m", "vm_m", "vv_m"),
    ("berwald", 2): ("tt_m", "mt_m", "vt_m", "vm_m", "vv_m"),
}

AUDIT_TOL = 1e-7


@dataclass
class ZeroAuditReport:
    kind: str
    p: int
    worst: float
    worst_cell: str
    per_cell: dict
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "worst": self.worst,
            "worst_cell": self.worst_cell,
            "per_cell": dict(self.per_cell),
            "passed": self.passed,
        }


def table_zero_audit(pack: LinearConnectionPack, tables) -> ZeroAuditReport:
    """The worst magnitude, over the (TorsionTable, CurvatureTable) pairs
    ``tables`` of ``pack``, of every component the tables declare zero for
    this (p, connection kind), as its generic formula evaluates it; a NaN
    cell is the worst."""
    key_p = 1 if pack.dims.p == 1 else 2
    tor_zero = TORSION_ZERO_CELLS[(pack.kind, key_p)]
    cur_zero = CURVATURE_ZERO_CELLS[(pack.kind, key_p)]
    per_cell = {}
    for tor, cur in tables:
        for cell in tor_zero:
            val = tor.families()[cell].max_abs()
            per_cell[f"torsion.{cell}"] = nan_max(per_cell.get(f"torsion.{cell}", 0.0), val)
        for cell in cur_zero:
            val = cur.families()[cell].max_abs()
            per_cell[f"curvature.{cell}"] = nan_max(per_cell.get(f"curvature.{cell}", 0.0), val)
    worst_cell, worst = "", 0.0
    for cell, val in per_cell.items():
        if val >= worst or val != val:  # the last of the largest; a NaN is largest
            worst_cell, worst = cell, val
    return ZeroAuditReport(kind=pack.kind, p=pack.dims.p, worst=worst,
                           worst_cell=worst_cell, per_cell=per_cell,
                           passed=worst <= AUDIT_TOL)
