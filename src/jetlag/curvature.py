"""Torsion and curvature d-tensors of an h-normal linear connection, and
its metric compatibility.

Every quantity here reads one frame per point: the coefficient tables
(M, N, Hbar, G, L, C) at the point, the matrices of g and h they were
built from, and all their partials along every coordinate, from one
evaluation of the pack's ``coefficients_at`` on a Dual lift over all of
them.  The lift's value is the point's coefficients, which ``verify``
reads from the frame.  ``torsion_table`` builds the frame and keeps it;
``curvature_table`` and ``metric_compatibility`` take that torsion table
and read the same frame.

Every family is evaluated from its generic defining formula as one numpy
array, vertical index pairs flattened as i*p + a.  A sum over a repeated
index adds one array term per index value, in index order, so each entry
goes through the float operations of the scalar formula.  The specialized
closed forms of the two distinguished connections are exercised by the
test-suite as oracles; the zero cells of their component tables are
asserted by ``table_zero_audit``.  The reference for
``metric_compatibility`` is the generic covariant derivative of any
d-tensor valence in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .calculus import all_coords, field_jacobian, t_coord
from .cartan import Coefficients, LinearConnectionPack
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
from .scalars import nan_max, scalar_value


# --- Frame data: all coefficient tables and their coordinate derivatives ----


_TABLES = ("M", "N", "H", "G", "L", "C", "gmat", "hmat")


def _flatten(obj):
    """The leaves of a nested list structure, row-major."""
    if isinstance(obj, (list, tuple)):
        return [leaf for item in obj for leaf in _flatten(item)]
    return [obj]


def _nest(flat, shape):
    """The row-major nested lists of ``shape`` holding ``flat``."""
    for size in reversed(shape[1:]):
        flat = [flat[i:i + size] for i in range(0, len(flat), size)]
    return flat


def _adapted(acc, dv, coeffs, col):
    """The adapted derivative of every entry along t^col (``coeffs`` M) or
    x^col (N) from its partial row ``acc`` and the vertical rows ``dv``:
    acc - coeffs[l][c][col] * dv[(l, c)] in row-major (l, c) order,
    skipping plain-zero weights, as ``connection.delta_entry``."""
    weights = [scalar_value(row[col]) for block in coeffs for row in block]
    for w, d_v in zip(weights, dv):
        if w != 0.0:
            acc = acc - w * d_v
    return acc


class _Frame:
    """Coefficient tables and metrics at a point and their partials.  The
    lifted field returns all tables' entries as one flat list, so the frame
    holds one float64 row of entries per coordinate (``all_coords`` order)
    and per adapted direction, each of those one ``_adapted`` pass over
    every entry.  ``coefficients`` is the lift's value, bitwise a plain
    call's.  The accessors return a fresh array of one table, the
    direction appended as the last axes."""

    def __init__(self, pack: LinearConnectionPack, point: JetPoint):
        self.dims = dims = pack.dims
        n, p = dims.n, dims.p

        def tables(q):
            co = pack.coefficients_at(q)
            return _flatten([co.m, co.n, co.hbar, co.g, co.l, co.c, co.gmat, co.hmat])

        coords = all_coords(dims)
        values, jac = field_jacobian(tables, point, coords)
        self._d = np.array([jac[c] for c in coords])
        shapes = ((n, p, p), (n, p, n), (p, p, p), (n, n, p), (n, n, n), (n, n, n, p),
                  (n, n), (p, p))
        self._slice, at, start = {}, {}, 0
        for name, shape in zip(_TABLES, shapes):
            stop = start + int(np.prod(shape))
            self._slice[name] = slice(start, stop), shape
            at[name] = _nest(values[start:stop], shape)
            start = stop
        self.coefficients = Coefficients(hbar=at["H"], g=at["G"], l=at["L"], c=at["C"],
                                         m=at["M"], n=at["N"], gmat=at["gmat"],
                                         hmat=at["hmat"])
        value_row = np.array([values], dtype=float)
        self.H, self.G, self.L, self.C, self.gmat, self.hmat = (
            self._table(value_row, k, ()) for k in ("H", "G", "L", "C", "gmat", "hmat"))
        dv = self._d[p + n:]  # rows (l, c) row-major
        self._dt = np.array([_adapted(self._d[b], dv, at["M"], b) for b in range(p)])
        self._dx = np.array([_adapted(self._d[p + j], dv, at["N"], j) for j in range(n)])

    def _table(self, rows, table, extra):
        sl, shape = self._slice[table]
        return rows[:, sl].T.copy().reshape(shape + extra)

    def partial(self, coord, table):
        """d/d(coord) of a table."""
        row = all_coords(self.dims).index(coord)
        return self._table(self._d[row:row + 1], table, ())

    def partial_v(self, table):
        """d/dv^k_c of a table, axes (k, c) appended."""
        n, p = self.dims.n, self.dims.p
        return self._table(self._d[p + n:], table, (n, p))

    def delta_t(self, table):
        """Adapted d/dt^b of a table, axis b appended."""
        return self._table(self._dt, table, (self.dims.p,))

    def delta_x(self, table):
        """Adapted d/dx^j of a table, axis j appended."""
        return self._table(self._dx, table, (self.dims.n,))


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


class TorsionTable:
    """The nine possibly-nonzero torsion families, keyed by the block row
    (tt/mt/mm/vt/vm/vv) and output column (m: spatial, v: vertical), and the
    frame they were read from."""

    _FAMILIES = ("tt_v", "mt_m", "mt_v", "mm_m", "mm_v", "vt_v", "vm_m", "vm_v", "vv_v")
    __slots__ = _FAMILIES + ("frame",)

    def __init__(self, tt_v, mt_m, mt_v, mm_m, mm_v, vt_v, vm_m, vm_v, vv_v, frame: _Frame):
        self.tt_v = tt_v  # R^{(m)}_{(mu) a b}
        self.mt_m = mt_m  # T^m_{a j}
        self.mt_v = mt_v  # R^{(m)}_{(mu) a j}
        self.mm_m = mm_m  # T^m_{ij}
        self.mm_v = mm_v  # R^{(m)}_{(mu) i j}
        self.vt_v = vt_v  # P^{(m)(b)}_{(mu) a (j)}
        self.vm_m = vm_m  # P^{m(b)}_{i(j)}
        self.vm_v = vm_v  # P^{(m)(b)}_{(mu) i (j)}
        self.vv_v = vv_v  # S^{(m)(a)(b)}_{(mu)(i)(j)}
        self.frame = frame

    def families(self) -> dict:
        return {k: getattr(self, k) for k in self._FAMILIES}

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


class CurvatureTable:
    """The seven effective curvature families plus the delta-lifted vertical
    column (assembled exactly from the effective ones)."""

    __slots__ = ("tt_t", "tt_m", "mt_m", "mm_m", "vt_m", "vm_m", "vv_m",
                 "tt_v", "mt_v", "mm_v", "vt_v", "vm_v", "vv_v")

    def __init__(self, tt_t, tt_m, mt_m, mm_m, vt_m, vm_m, vv_m,
                 tt_v, mt_v, mm_v, vt_v, vm_v, vv_v):
        self.tt_t = tt_t  # H^a_{eta b c}
        self.tt_m = tt_m  # R^l_{i b c}
        self.mt_m = mt_m  # R^l_{i b k}
        self.mm_m = mm_m  # R^l_{i j k}
        self.vt_m = vt_m  # P^{l (c)}_{i b (k)}
        self.vm_m = vm_m  # P^{l (c)}_{i j (k)}
        self.vv_m = vv_m  # S^{l (b)(c)}_{i (j)(k)}
        self.tt_v = tt_v
        self.mt_v = mt_v
        self.mm_v = mm_v
        self.vt_v = vt_v
        self.vm_v = vm_v
        self.vv_v = vv_v

    def families(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

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
    tt_t = np.array(riemann(H, [fr.partial(t_coord(b), "H") for b in range(p)]))

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


# --- Metric compatibility --------------------------------------------------------


def _covariant_defect(d, metric, gamma) -> float:
    """Max over i, j of |d_ij - gamma[m][i] metric_mj - gamma[m][j] metric_im|,
    the covariant derivative of a metric along one direction, from the
    metric's (adapted) derivative ``d`` along it and the pack's coefficients
    ``gamma`` [m][i] in that direction, all plain lists; an empty ``gamma``
    is a direction the pack has no coefficients in.  A NaN defect is kept."""
    defects = []
    for i, row in enumerate(d):
        for j, val in enumerate(row):
            for m, gm in enumerate(gamma):
                val -= gm[i] * metric[m][j] + gm[j] * metric[i][m]
            defects.append(abs(val))
    return nan_max(0.0, *defects)


def _per_direction(arr, axes):
    """The subarrays of ``arr`` along its last ``axes`` axes, a direction
    index or pair, as plain nested lists in row-major direction order."""
    lead = arr.ndim - axes
    moved = np.moveaxis(arr, range(lead, arr.ndim), range(axes))
    return moved.reshape((-1,) + arr.shape[:lead]).tolist()


def metric_compatibility(torsion: TorsionTable) -> dict:
    """Max |covariant derivative| of the spatial and temporal metrics in all
    three directions at the torsion table's point; all six must vanish for
    the Cartan pack.  Reads only the table's frame: g, h, their adapted and
    vertical partials and the coefficients.  The slot rules are those of
    the covariant derivative in ``tests/oracles.py``, which the test-suite
    pins this code against.  The pack is h-normal: h has no coefficients
    along x or v."""
    fr = torsion.frame
    g, hmat = fr.gmat.tolist(), fr.hmat.tolist()
    worst = dict.fromkeys(("g_t_horizontal", "g_m_horizontal", "g_vertical",
                           "h_t_horizontal", "h_m_horizontal", "h_vertical"), 0.0)
    for direction, derivative, gamma_g, gamma_h in (
            ("t_horizontal", fr.delta_t, fr.G, fr.H),
            ("m_horizontal", fr.delta_x, fr.L, None),
            ("vertical", fr.partial_v, fr.C, None)):
        axes = gamma_g.ndim - 2  # a coefficient table's direction axes are its last
        dg, dh = _per_direction(derivative("gmat"), axes), _per_direction(derivative("hmat"), axes)
        gam_g = _per_direction(gamma_g, axes)
        gam_h = [[]] * len(dh) if gamma_h is None else _per_direction(gamma_h, axes)
        worst["g_" + direction] = nan_max(
            0.0, *(_covariant_defect(d, g, gam) for d, gam in zip(dg, gam_g)))
        worst["h_" + direction] = nan_max(
            0.0, *(_covariant_defect(d, hmat, gam) for d, gam in zip(dh, gam_h)))
    return worst


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


class ZeroAuditReport:
    """The worst declared-zero cell of a pack's tables, and each cell's."""

    __slots__ = ("kind", "p", "worst", "worst_cell", "per_cell", "passed")

    def __init__(self, kind: str, p: int, worst: float, worst_cell: str, per_cell: dict,
                 passed: bool):
        self.kind = kind
        self.p = p
        self.worst = worst
        self.worst_cell = worst_cell
        self.per_cell = per_cell
        self.passed = passed

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
