"""Torsion and curvature d-tensors of an h-normal linear connection.

Every component family is evaluated from its generic defining formula:
adapted derivatives of the nonlinear-connection coefficients (M, N) and of
the linear coefficients (Hbar, G, L, C), obtained by running the coefficient
assemblies on lifted points.  The specialized closed forms of the two
distinguished connections are exercised by the test-suite as oracles; the
zero cells of their component tables are asserted by ``table_zero_audit``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import all_coords, field_jacobian, structure_entry, structure_values, t_coord, v_coord, x_coord
from .cartan import LinearConnectionPack
from .connection import NonlinearConnection, delta_entry
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
from .metric_engine import TemporalMetric, riemann


# --- Frame data: all coefficient tables and their coordinate derivatives ----


_TABLES = ("M", "N", "H", "G", "L", "C")


class _Frame:
    """Coefficient tables at a point plus their full coordinate jacobian;
    ``d[coord][table]`` is the partial of a table along ``coord``."""

    def __init__(self, pack: LinearConnectionPack, conn: NonlinearConnection,
                 point: JetPoint):
        self.dims = pack.dims

        def tables(q):
            co = pack.coefficients_at(q)
            return [conn.m_at(q), conn.n_at(q), co.hbar, co.g, co.l, co.c]

        self.base = dict(zip(_TABLES, structure_values(tables(point))))
        jac = field_jacobian(tables, point, all_coords(self.dims))
        self.d = {c: dict(zip(_TABLES, parts)) for c, parts in jac.items()}

    def partial_v(self, table, idx, l, c):
        return structure_entry(self.d[v_coord(l, c)][table], idx)

    def delta_t(self, table, idx, b):
        """Adapted d/dt^b of a coefficient entry."""
        return delta_entry(self.d, (table,) + idx, t_coord(b), self.base["M"])

    def delta_x(self, table, idx, j):
        """Adapted d/dx^j of a coefficient entry."""
        return delta_entry(self.d, (table,) + idx, x_coord(j), self.base["N"])


# --- Torsion -----------------------------------------------------------------


@dataclass
class TorsionTable:
    """The nine possibly-nonzero torsion families, keyed by the block row
    (tt/mt/mm/vt/vm/vv) and output column (m: spatial, v: vertical)."""

    tt_v: DTensor  # R^{(m)}_{(mu) a b}
    mt_m: DTensor  # T^m_{a j}
    mt_v: DTensor  # R^{(m)}_{(mu) a j}
    mm_m: DTensor  # T^m_{ij}
    mm_v: DTensor  # R^{(m)}_{(mu) i j}
    vt_v: DTensor  # P^{(m)(b)}_{(mu) a (j)}
    vm_m: DTensor  # P^{m(b)}_{i(j)}
    vm_v: DTensor  # P^{(m)(b)}_{(mu) i (j)}
    vv_v: DTensor  # S^{(m)(a)(b)}_{(mu)(i)(j)}

    def families(self) -> dict:
        return {k: getattr(self, k) for k in (
            "tt_v", "mt_m", "mt_v", "mm_m", "mm_v", "vt_v", "vm_m", "vm_v", "vv_v")}

    def to_json_dict(self) -> dict:
        return {k: v.to_json_dict() for k, v in self.families().items()}


def torsion_table(pack: LinearConnectionPack, conn: NonlinearConnection,
                  h: TemporalMetric, point: JetPoint) -> TorsionTable:
    dims = pack.dims
    n, p = dims.n, dims.p
    fr = _Frame(pack, conn, point)
    G, L, C, H = fr.base["G"], fr.base["L"], fr.base["C"], fr.base["H"]

    tt_v = DTensor((vertical_upper(n, p), temporal_lower(p), temporal_lower(p)))
    mt_m = DTensor((spatial_upper(n), temporal_lower(p), spatial_lower(n)))
    mt_v = DTensor((vertical_upper(n, p), temporal_lower(p), spatial_lower(n)))
    mm_m = DTensor((spatial_upper(n), spatial_lower(n), spatial_lower(n)))
    mm_v = DTensor((vertical_upper(n, p), spatial_lower(n), spatial_lower(n)))
    vt_v = DTensor((vertical_upper(n, p), temporal_lower(p), vertical_lower(n, p)))
    vm_m = DTensor((spatial_upper(n), spatial_lower(n), vertical_lower(n, p)))
    vm_v = DTensor((vertical_upper(n, p), spatial_lower(n), vertical_lower(n, p)))
    vv_v = DTensor((vertical_upper(n, p), vertical_lower(n, p), vertical_lower(n, p)))

    for m in range(n):
        for mu in range(p):
            for a in range(p):
                for b in range(p):
                    val = fr.delta_t("M", (m, mu, a), b) - fr.delta_t("M", (m, mu, b), a)
                    tt_v.set(((m, mu), a, b), val)
                for j in range(n):
                    val = fr.delta_x("M", (m, mu, a), j) - fr.delta_t("N", (m, mu, j), a)
                    mt_v.set(((m, mu), a, j), val)
                    for b in range(p):
                        val = fr.partial_v("M", (m, mu, a), j, b)
                        if b == mu:
                            val -= G[m][j][a]
                        if m == j:
                            val += H[b][mu][a]
                        vt_v.set(((m, mu), a, (j, b)), val)
            for i in range(n):
                for j in range(n):
                    val = fr.delta_x("N", (m, mu, i), j) - fr.delta_x("N", (m, mu, j), i)
                    mm_v.set(((m, mu), i, j), val)
                    for b in range(p):
                        val = fr.partial_v("N", (m, mu, i), j, b)
                        if b == mu:
                            val -= L[m][j][i]
                        vm_v.set(((m, mu), i, (j, b)), val)
                for ia in range(n):
                    for aa in range(p):
                        for j in range(n):
                            for b in range(p):
                                val = 0.0
                                if aa == mu:
                                    val += C[m][ia][j][b]
                                if b == mu:
                                    val -= C[m][j][ia][aa]
                                vv_v.set(((m, mu), (ia, aa), (j, b)), val)
    for m in range(n):
        for a in range(p):
            for j in range(n):
                mt_m.set((m, a, j), -G[m][j][a])
        for i in range(n):
            for j in range(n):
                mm_m.set((m, i, j), L[m][i][j] - L[m][j][i])
                for b in range(p):
                    vm_m.set((m, i, (j, b)), C[m][i][j][b])

    return TorsionTable(tt_v=tt_v, mt_m=mt_m, mt_v=mt_v, mm_m=mm_m, mm_v=mm_v,
                        vt_v=vt_v, vm_m=vm_m, vm_v=vm_v, vv_v=vv_v)


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

    def effective(self) -> dict:
        return {k: getattr(self, k) for k in (
            "tt_t", "tt_m", "mt_m", "mm_m", "vt_m", "vm_m", "vv_m")}

    def to_json_dict(self) -> dict:
        return {k: v.to_json_dict() for k, v in self.families().items()}


def curvature_table(pack: LinearConnectionPack, conn: NonlinearConnection,
                    h: TemporalMetric, point: JetPoint,
                    torsion: TorsionTable | None = None) -> CurvatureTable:
    dims = pack.dims
    n, p = dims.n, dims.p
    fr = _Frame(pack, conn, point)
    G, L, C, H = fr.base["G"], fr.base["L"], fr.base["C"], fr.base["H"]
    tor = torsion or torsion_table(pack, conn, h, point)

    # Temporal block curvature (plain t-partials; H depends on t only).
    tt_t = DTensor((temporal_upper(p), temporal_lower(p), temporal_lower(p), temporal_lower(p)),
                   riemann(H, [fr.d[t_coord(b)]["H"] for b in range(p)]))

    # Covariant derivatives of C in the T- and M-horizontal directions.
    ccov_t = [[[[[0.0] * p for _ in range(p)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    ccov_x = [[[[[0.0] * n for _ in range(p)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    # index order: [l][i][k][c][b or j]
    for l in range(n):
        for i in range(n):
            for k in range(n):
                for c in range(p):
                    for b in range(p):
                        acc = fr.delta_t("C", (l, i, k, c), b)
                        for m in range(n):
                            acc += G[l][m][b] * C[m][i][k][c]
                            acc -= G[m][i][b] * C[l][m][k][c]
                            acc -= G[m][k][b] * C[l][i][m][c]
                        for mu in range(p):
                            acc += H[c][mu][b] * C[l][i][k][mu]
                        ccov_t[l][i][k][c][b] = acc
                    for j in range(n):
                        acc = fr.delta_x("C", (l, i, k, c), j)
                        for m in range(n):
                            acc += L[l][m][j] * C[m][i][k][c]
                            acc -= L[m][i][j] * C[l][m][k][c]
                            acc -= L[m][k][j] * C[l][i][m][c]
                        ccov_x[l][i][k][c][j] = acc

    tt_m = DTensor((spatial_upper(n), spatial_lower(n), temporal_lower(p), temporal_lower(p)))
    mt_m = DTensor((spatial_upper(n), spatial_lower(n), temporal_lower(p), spatial_lower(n)))
    mm_m = DTensor((spatial_upper(n), spatial_lower(n), spatial_lower(n), spatial_lower(n)))
    vt_m = DTensor((spatial_upper(n), spatial_lower(n), temporal_lower(p), vertical_lower(n, p)))
    vm_m = DTensor((spatial_upper(n), spatial_lower(n), spatial_lower(n), vertical_lower(n, p)))
    vv_m = DTensor((spatial_upper(n), spatial_lower(n), vertical_lower(n, p), vertical_lower(n, p)))

    for l in range(n):
        for i in range(n):
            for b in range(p):
                for c in range(p):
                    val = fr.delta_t("G", (l, i, b), c) - fr.delta_t("G", (l, i, c), b)
                    for m in range(n):
                        val += G[m][i][b] * G[l][m][c] - G[m][i][c] * G[l][m][b]
                    for m in range(n):
                        for mu in range(p):
                            val += C[l][i][m][mu] * tor.tt_v.get((m, mu), b, c)
                    tt_m.set((l, i, b, c), val)
                for k in range(n):
                    val = fr.delta_x("G", (l, i, b), k) - fr.delta_t("L", (l, i, k), b)
                    for m in range(n):
                        val += G[m][i][b] * L[l][m][k] - L[m][i][k] * G[l][m][b]
                    for m in range(n):
                        for mu in range(p):
                            val += C[l][i][m][mu] * tor.mt_v.get((m, mu), b, k)
                    mt_m.set((l, i, b, k), val)
                    for c in range(p):
                        val = fr.partial_v("G", (l, i, b), k, c) - ccov_t[l][i][k][c][b]
                        for m in range(n):
                            for mu in range(p):
                                val += C[l][i][m][mu] * tor.vt_v.get((m, mu), b, (k, c))
                        vt_m.set((l, i, b, (k, c)), val)
            for j in range(n):
                for k in range(n):
                    val = fr.delta_x("L", (l, i, j), k) - fr.delta_x("L", (l, i, k), j)
                    for m in range(n):
                        val += L[m][i][j] * L[l][m][k] - L[m][i][k] * L[l][m][j]
                    for m in range(n):
                        for mu in range(p):
                            val += C[l][i][m][mu] * tor.mm_v.get((m, mu), j, k)
                    mm_m.set((l, i, j, k), val)
                    for c in range(p):
                        val = fr.partial_v("L", (l, i, j), k, c) - ccov_x[l][i][k][c][j]
                        for m in range(n):
                            for mu in range(p):
                                val += C[l][i][m][mu] * tor.vm_v.get((m, mu), j, (k, c))
                        vm_m.set((l, i, j, (k, c)), val)
                for b in range(p):
                    for k in range(n):
                        for c in range(p):
                            val = fr.partial_v("C", (l, i, j, b), k, c) - fr.partial_v("C", (l, i, k, c), j, b)
                            for m in range(n):
                                val += C[m][i][j][b] * C[l][m][k][c] - C[m][i][k][c] * C[l][m][j][b]
                            vv_m.set((l, i, (j, b), (k, c)), val)

    # Delta-lifted vertical column.
    tt_v = DTensor((vertical_upper(n, p), vertical_lower(n, p), temporal_lower(p), temporal_lower(p)))
    mt_v = DTensor((vertical_upper(n, p), vertical_lower(n, p), temporal_lower(p), spatial_lower(n)))
    mm_v = DTensor((vertical_upper(n, p), vertical_lower(n, p), spatial_lower(n), spatial_lower(n)))
    vt_v = DTensor((vertical_upper(n, p), vertical_lower(n, p), temporal_lower(p), vertical_lower(n, p)))
    vm_v = DTensor((vertical_upper(n, p), vertical_lower(n, p), spatial_lower(n), vertical_lower(n, p)))
    vv_v = DTensor((vertical_upper(n, p), vertical_lower(n, p), vertical_lower(n, p), vertical_lower(n, p)))
    for l in range(n):
        for eta in range(p):
            for i in range(n):
                for al in range(p):
                    dl = 1.0 if al == eta else 0.0
                    for b in range(p):
                        for c in range(p):
                            val = dl * tt_m.get(l, i, b, c)
                            if l == i:
                                val += tt_t.get(al, eta, b, c)
                            tt_v.set(((l, eta), (i, al), b, c), val)
                        for k in range(n):
                            mt_v.set(((l, eta), (i, al), b, k), dl * mt_m.get(l, i, b, k))
                            for c in range(p):
                                vt_v.set(((l, eta), (i, al), b, (k, c)),
                                         dl * vt_m.get(l, i, b, (k, c)))
                    for j in range(n):
                        for k in range(n):
                            mm_v.set(((l, eta), (i, al), j, k), dl * mm_m.get(l, i, j, k))
                            for c in range(p):
                                vm_v.set(((l, eta), (i, al), j, (k, c)),
                                         dl * vm_m.get(l, i, j, (k, c)))
                        for b in range(p):
                            for k in range(n):
                                for c in range(p):
                                    vv_v.set(((l, eta), (i, al), (j, b), (k, c)),
                                             dl * vv_m.get(l, i, (j, b), (k, c)))

    return CurvatureTable(tt_t=tt_t, tt_m=tt_m, mt_m=mt_m, mm_m=mm_m,
                          vt_m=vt_m, vm_m=vm_m, vv_m=vv_m,
                          tt_v=tt_v, mt_v=mt_v, mm_v=mm_v,
                          vt_v=vt_v, vm_v=vm_v, vv_v=vv_v)


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


def table_zero_audit(pack: LinearConnectionPack, conn: NonlinearConnection,
                     h: TemporalMetric, points, tol: float = AUDIT_TOL) -> ZeroAuditReport:
    """Evaluate the generic formula for every component the tables declare
    zero for this (p, connection kind) and report the worst magnitude."""
    key_p = 1 if pack.dims.p == 1 else 2
    tor_zero = TORSION_ZERO_CELLS[(pack.kind, key_p)]
    cur_zero = CURVATURE_ZERO_CELLS[(pack.kind, key_p)]
    per_cell = {}
    for point in points:
        tor = torsion_table(pack, conn, h, point)
        cur = curvature_table(pack, conn, h, point, torsion=tor)
        for cell in tor_zero:
            val = tor.families()[cell].max_abs()
            per_cell[f"torsion.{cell}"] = max(per_cell.get(f"torsion.{cell}", 0.0), val)
        for cell in cur_zero:
            val = cur.families()[cell].max_abs()
            per_cell[f"curvature.{cell}"] = max(per_cell.get(f"curvature.{cell}", 0.0), val)
    worst_cell, worst = "", 0.0
    for cell, val in per_cell.items():
        if val >= worst:
            worst_cell, worst = cell, val
    return ZeroAuditReport(kind=pack.kind, p=pack.dims.p, worst=worst,
                           worst_cell=worst_cell, per_cell=per_cell,
                           passed=worst <= tol)
