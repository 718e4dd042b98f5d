"""Torsion/curvature tables: closed forms vs generic formulas, zero audits,
antisymmetries, classical reductions."""

import dataclasses
import math

import numpy as np
import pytest

from jetlag.calculus import d1, t_coord
from jetlag.cartan import MHorizontal, berwald_connection, cartan_connection, covariant_derivative
from jetlag.config import assemble
from jetlag.connection import canonical_nonlinear_connection
from jetlag.curvature import curvature_table, table_zero_audit, torsion_table
from jetlag.fields import ExpressionField, constant_field
from jetlag.jet_core import (
    Dims,
    DTensor,
    JetPoint,
    spatial_lower,
    spatial_upper,
    temporal_lower,
    vertical_lower,
    vertical_upper,
)
from jetlag.metric_engine import (
    SpatialMetricField,
    TemporalMetric,
    g_curvature_values,
    h_curvature_values,
)
from jetlag.regularity import electrodynamics_decompose, sample_points
from jetlag.scalars import scalar_value
from jetlag.verify import _antisymmetry_defect

from conftest import corpus_instance, spatial_metric_of, sphere_config, temporal_metric_of


def build(inst):
    deco = electrodynamics_decompose(inst.L, inst.h) if inst.dims.p >= 2 else None
    conn = canonical_nonlinear_connection(inst.L, inst.h, decomposition=deco)
    pack = cartan_connection(inst.L, inst.h, conn, decomposition=deco)
    return deco, conn, pack


def sphere_metric(dims):
    return spatial_metric_of([
        [constant_field(1.0), constant_field(0.0)],
        [constant_field(0.0), ExpressionField("sin(x1)^2", dims)]])


class TestBerwald:
    def setup_method(self):
        self.d = Dims(2, 2)
        self.h = TemporalMetric.flat(2)
        self.g = sphere_metric(self.d)
        self.pack = berwald_connection(self.h, self.g, self.d)
        self.pt = JetPoint((0.2, -0.1), (0.9, 0.4), ((0.3, -0.2), (0.5, 0.1)))

    def test_torsion_only_r_families(self):
        tor = torsion_table(self.pack, self.pt)
        r = np.array(g_curvature_values(self.g, self.pt))
        for m in range(2):
            for mu in range(2):
                for i in range(2):
                    for j in range(2):
                        expect = sum(r[m, k, i, j] * self.pt.v[k][mu] for k in range(2))
                        assert tor.mm_v.get((m, mu), i, j) == pytest.approx(expect, abs=1e-10)
        # everything else vanishes (flat h also kills tt_v)
        for cell in ("tt_v", "mt_m", "mt_v", "mm_m", "vt_v", "vm_m", "vm_v", "vv_v"):
            assert tor.families()[cell].max_abs() <= 1e-12, cell

    def test_curvature_only_h_and_r(self):
        cur = curvature_table(torsion_table(self.pack, self.pt))
        r = np.array(g_curvature_values(self.g, self.pt))
        assert np.allclose(cur.mm_m.data, r, atol=1e-10)
        for cell in ("tt_t", "tt_m", "mt_m", "vt_m", "vm_m", "vv_m"):
            assert cur.families()[cell].max_abs() <= 1e-12, cell

    def test_curvature_delta_lift_structure(self):
        cur = curvature_table(torsion_table(self.pack, self.pt))
        for l in range(2):
            for eta in range(2):
                for i in range(2):
                    for al in range(2):
                        for j in range(2):
                            for k in range(2):
                                expect = (1.0 if al == eta else 0.0) * cur.mm_m.get(l, i, j, k)
                                assert cur.mm_v.get((l, eta), (i, al), j, k) == expect

    def test_audit_passes(self):
        audit = table_zero_audit(self.pack, [self.pt])
        assert audit.passed

    def test_nonflat_h_tt_v(self):
        dims = Dims(2, 1)
        entries = [["1", "0"], ["0", "sin(t1)^2"]]
        h = temporal_metric_of([[ExpressionField(e, dims) for e in row] for row in entries],
                               (2, 0))
        g = spatial_metric_of([[constant_field(1.0)]])
        pack = berwald_connection(h, g, dims)
        pt = JetPoint((0.7, 0.2), (0.4,), ((0.3, -0.5),))
        tor = torsion_table(pack, pt)
        Hc = np.array(h_curvature_values(h, pt.t))
        # tt_v = -H^c_{mu a b} x^m_c
        for m in range(1):
            for mu in range(2):
                for a in range(2):
                    for b in range(2):
                        expect = -sum(Hc[c, mu, a, b] * pt.v[m][c] for c in range(2))
                        assert tor.tt_v.get((m, mu), a, b) == pytest.approx(expect, abs=1e-9)


class TestCartanTwoRoute:
    """Specialized closed forms of the metric connection against the generic formulas."""

    def test_p2_r_mt_closed_form(self):
        # R^{(m)}_{(mu)aj} = -dN^{(m)}_{(mu)j}/dt^a + H^b_{mu a} F^m_{j(b)}
        inst = corpus_instance("non_autonomous", 2, 2)
        deco, conn, pack = build(inst)
        pts = sample_points(inst.dims, [-1, 1], 2, seed=31)
        for pt in pts:
            tor = torsion_table(pack, pt)
            f_tensor = _f_tensor(inst, deco, pt)
            co = pack.coefficients_at(pt)
            for m in range(2):
                for mu in range(2):
                    for a in range(2):
                        for j in range(2):
                            dn = d1(lambda q, m=m, mu=mu, j=j: conn.n_at(q)[m][mu][j],
                                    pt, t_coord(a))
                            expect = -dn + sum(
                                scalar_value(co.hbar[b][mu][a]) * f_tensor[m][j][b]
                                for b in range(2))
                            assert tor.mt_v.get((m, mu), a, j) == pytest.approx(expect, abs=1e-7)

    def test_p2_r_mm_closed_form(self):
        # R^{(m)}_{(mu)ij} = r^m_{kij} x^k_mu + [F^m_{i(mu)|j} - F^m_{j(mu)|i}]
        inst = corpus_instance("non_autonomous", 2, 2)
        deco, conn, pack = build(inst)
        gs = SpatialMetricField(2, deco.g_field)
        pts = sample_points(inst.dims, [-1, 1], 2, seed=32)
        valence = (spatial_upper(2), spatial_lower(2), temporal_lower(2))
        for pt in pts:
            tor = torsion_table(pack, pt)
            r = np.array(g_curvature_values(gs, pt))

            def f_field(q):
                return _f_tensor(inst, deco, q)

            cov = [covariant_derivative(f_field, valence, MHorizontal(j), pack, pt)
                   for j in range(2)]
            for m in range(2):
                for mu in range(2):
                    for i in range(2):
                        for j in range(2):
                            expect = sum(r[m, k, i, j] * pt.v[k][mu] for k in range(2))
                            expect += cov[j].get(m, i, mu) - cov[i].get(m, j, mu)
                            assert tor.mm_v.get((m, mu), i, j) == pytest.approx(expect, abs=1e-7)

    def test_p1_r_mt_closed_form(self):
        # R^{(m)}_{(1)1j} = -dN/dt + H^1_11 [N - y^k dN/dy^k]
        inst = assemble(sphere_config())
        # use a nonflat h so the closed form is exercised
        raw = dict(inst.raw)
        raw["temporal_metric"] = {"kind": "expression", "entries": [["exp(2*t1)"]],
                                  "signature": [1, 0]}
        inst = assemble(raw)
        deco, conn, pack = build(inst)
        pts = sample_points(inst.dims, inst.sampling["box"], 2, seed=33)
        from jetlag.calculus import v_coord

        for pt in pts:
            tor = torsion_table(pack, pt)
            co = pack.coefficients_at(pt)
            h111 = scalar_value(co.hbar[0][0][0])
            for m in range(2):
                for j in range(2):
                    nval = scalar_value(conn.n_at(pt)[m][0][j])
                    dn_t = d1(lambda q, m=m, j=j: conn.n_at(q)[m][0][j], pt, t_coord(0))
                    sweep = sum(
                        pt.v[k][0] * d1(lambda q, m=m, j=j: conn.n_at(q)[m][0][j],
                                        pt, v_coord(k, 0))
                        for k in range(2))
                    expect = -dn_t + h111 * (nval - sweep)
                    assert tor.mt_v.get((m, 0), 0, j) == pytest.approx(expect, abs=1e-7)

    def test_p1_simple_torsion_identities(self):
        inst = assemble(sphere_config())
        deco, conn, pack = build(inst)
        pt = JetPoint((0.1,), (0.9, 0.2), ((0.4,), (0.7,)))
        tor = torsion_table(pack, pt)
        co = pack.coefficients_at(pt)
        for m in range(2):
            for j in range(2):
                # T^m_{1j} = -G^m_{j1} and P^{(m)(1)}_{(1)1(j)} = -G^m_{j1}
                assert tor.mt_m.get(m, 0, j) == pytest.approx(-scalar_value(co.g[m][j][0]))
                assert tor.vt_v.get((m, 0), 0, (j, 0)) == pytest.approx(
                    -scalar_value(co.g[m][j][0]), abs=1e-10)
                # P^{m(1)}_{i(j)} = C^{m(1)}_{i(j)}
                for i in range(2):
                    assert tor.vm_m.get(m, i, (j, 0)) == pytest.approx(
                        scalar_value(co.c[m][i][j][0]), abs=1e-12)

    def test_p1_p_vm_v_closed_form(self):
        inst = assemble(sphere_config())
        deco, conn, pack = build(inst)
        pt = JetPoint((0.1,), (0.9, 0.2), ((0.4,), (0.7,)))
        tor = torsion_table(pack, pt)
        co = pack.coefficients_at(pt)
        from jetlag.calculus import v_coord

        for m in range(2):
            for i in range(2):
                for j in range(2):
                    dn = d1(lambda q, m=m, i=i: conn.n_at(q)[m][0][i], pt, v_coord(j, 0))
                    expect = dn - scalar_value(co.l[m][j][i])
                    assert tor.vm_v.get((m, 0), i, (j, 0)) == pytest.approx(expect, abs=1e-8)


class TestCartanTables:
    def test_autonomous_remark(self):
        # autonomous electrodynamics: torsions vanish except the three
        # R-families; curvature vanishes except tt_t and mm_m = r
        inst = corpus_instance("autonomous", 2, 2)
        deco, conn, pack = build(inst)
        gs = SpatialMetricField(2, deco.g_field)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=41)[0]
        tor = torsion_table(pack, pt)
        for cell in ("mt_m", "mm_m", "vt_v", "vm_m", "vm_v", "vv_v"):
            assert tor.families()[cell].max_abs() <= 1e-9, cell
        cur = curvature_table(tor)
        r = np.array(g_curvature_values(gs, pt))
        assert np.allclose(cur.mm_m.data, r, atol=1e-8)
        for cell in ("tt_m", "mt_m", "vt_m", "vm_m", "vv_m"):
            assert cur.families()[cell].max_abs() <= 1e-8, cell

    def test_sphere_p1_reduction(self):
        # the classical equality: curvature mm_m equals Riemannian r
        inst = assemble(sphere_config())
        deco, conn, pack = build(inst)
        gs = sphere_metric(inst.dims)
        pt = JetPoint((0.1,), (0.9, 0.2), ((0.4,), (0.7,)))
        tor = torsion_table(pack, pt)
        cur = curvature_table(tor)
        r = np.array(g_curvature_values(gs, pt))
        assert np.allclose(cur.mm_m.data, r, atol=1e-9)
        # frozen sphere value (defining order): mm_m[1,2,2,1] = sin^2 x1
        assert cur.mm_m.get(0, 1, 1, 0) == pytest.approx(math.sin(0.9) ** 2, abs=1e-9)
        # torsion mm_v equals r^m_{kij} y^k (classical reduction)
        for m in range(2):
            for i in range(2):
                for j in range(2):
                    expect = sum(r[m, k, i, j] * pt.v[k][0] for k in range(2))
                    assert tor.mm_v.get((m, 0), i, j) == pytest.approx(expect, abs=1e-9)

    def test_zero_audits_per_kind(self):
        for kind, p in (("harmonic", 1), ("autonomous", 2), ("non_autonomous", 2)):
            inst = corpus_instance(kind, p, 2)
            deco, conn, pack = build(inst)
            pts = sample_points(inst.dims, [-1, 1], 2, seed=42)
            audit = table_zero_audit(pack, pts)
            assert audit.passed, (kind, p, audit.worst_cell, audit.worst)

    def test_p1_audit_does_not_flag_t_m1j(self):
        # T^m_{1j} = -G^m_{j1} is generally nonzero for p=1 non-autonomous
        inst = corpus_instance("non_autonomous", 1, 2)
        deco, conn, pack = build(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=43)[0]
        tor = torsion_table(pack, pt)
        assert tor.mt_m.max_abs() > 1e-6  # nonzero...
        audit = table_zero_audit(pack, [pt])
        assert audit.passed  # ...and not audited as a zero cell

    def test_antisymmetries(self):
        inst = corpus_instance("non_autonomous", 2, 2)
        deco, conn, pack = build(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=44)[0]
        tor = torsion_table(pack, pt)
        cur = curvature_table(tor)
        for m in range(2):
            for mu in range(2):
                for a in range(2):
                    for b in range(2):
                        assert tor.tt_v.get((m, mu), a, b) == pytest.approx(
                            -tor.tt_v.get((m, mu), b, a), abs=1e-9)
                for i in range(2):
                    for j in range(2):
                        assert tor.mm_v.get((m, mu), i, j) == pytest.approx(
                            -tor.mm_v.get((m, mu), j, i), abs=1e-9)
        # vv torsion antisymmetric under the joint vertical swap
        for m in range(2):
            for mu in range(2):
                for i in range(2):
                    for a in range(2):
                        for j in range(2):
                            for b in range(2):
                                assert tor.vv_v.get((m, mu), (i, a), (j, b)) == pytest.approx(
                                    -tor.vv_v.get((m, mu), (j, b), (i, a)), abs=1e-12)
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        assert cur.mm_m.get(l, i, j, k) == pytest.approx(
                            -cur.mm_m.get(l, i, k, j), abs=1e-9)
        for a in range(2):
            for e in range(2):
                for b in range(2):
                    for c in range(2):
                        assert cur.tt_t.get(a, e, b, c) == pytest.approx(
                            -cur.tt_t.get(a, e, c, b), abs=1e-9)


class TestAsymmetricCPack:
    """A hand-made h-normal pack with C asymmetric in its lower pair: the
    vv torsion family stops vanishing and must match its defining formula."""

    def _pack(self):
        from jetlag.cartan import Coefficients, LinearConnectionPack
        from jetlag.connection import NonlinearConnection

        d = Dims(1, 2)
        h = TemporalMetric.flat(1)

        def m_at(point):
            return [[[0.0] * d.p for _ in range(d.p)] for _ in range(d.n)]

        def n_at(point):
            return [[[0.0] * d.n for _ in range(d.p)] for _ in range(d.n)]

        conn = NonlinearConnection(dims=d, m_at=m_at, n_at=n_at)

        def coefficients(point: JetPoint):
            y1 = point.v[0][0]
            c = [[[[0.0] for _ in range(2)] for _ in range(2)] for _ in range(2)]
            c[0][0][1][0] = 0.7 * y1        # C^{1(1)}_{1(2)}
            c[0][1][0][0] = -0.2 * y1       # C^{1(1)}_{2(1)} (asymmetric)
            hbar = [[[0.0]]]
            g = [[[0.0] for _ in range(2)] for _ in range(2)]
            l = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
            return Coefficients(hbar=hbar, g=g, l=l, c=c, m=m_at(point), n=n_at(point))

        pack = LinearConnectionPack(
            dims=d, kind="custom", coefficients_at=coefficients,
            g_matrix_at=lambda pt: [[1.0, 0.0], [0.0, 1.0]],
            conn=conn, h=h)
        return pack, conn, h

    def test_vv_torsion_formula(self):
        pack, conn, h = self._pack()
        pt = JetPoint((0.0,), (0.1, 0.2), ((0.9,), (0.4,)))
        tor = torsion_table(pack, pt)
        co = pack.coefficients_at(pt)
        nonzero = 0
        for m in range(2):
            for i in range(2):
                for j in range(2):
                    # S^{(m)(1)(1)}_{(1)(i)(j)} = C^{m(1)}_{i(j)} - C^{m(1)}_{j(i)}
                    expect = co.c[m][i][j][0] - co.c[m][j][i][0]
                    got = tor.vv_v.get((m, 0), (i, 0), (j, 0))
                    assert got == pytest.approx(expect, abs=1e-12)
                    if abs(expect) > 1e-6:
                        nonzero += 1
        assert nonzero > 0  # the asymmetry actually shows up

    def test_vv_curvature_against_fd_oracle(self):
        # S-family: dC/dy terms from the frame vs central differences of the
        # C coefficient field, plus the C*C commutator
        pack, conn, h = self._pack()
        pt = JetPoint((0.0,), (0.1, 0.2), ((0.9,), (0.4,)))
        cur = curvature_table(torsion_table(pack, pt))
        step = 1e-6

        def c_at(y_shift_i, delta):
            v = [[pt.v[0][0]], [pt.v[1][0]]]
            v[y_shift_i][0] += delta
            moved = JetPoint(pt.t, pt.x, v)
            return pack.coefficients_at(moved).c

        co = pack.coefficients_at(pt).c
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        djb = [[(c_at(k, step)[a][b][j][0] - c_at(k, -step)[a][b][j][0])
                                / (2 * step) for b in range(2)] for a in range(2)]
                        dkc = [[(c_at(j, step)[a][b][k][0] - c_at(j, -step)[a][b][k][0])
                                / (2 * step) for b in range(2)] for a in range(2)]
                        oracle = djb[l][i] - dkc[l][i]
                        for m in range(2):
                            oracle += co[m][i][j][0] * co[l][m][k][0]
                            oracle -= co[m][i][k][0] * co[l][m][j][0]
                        got = cur.vv_m.get(l, i, (j, 0), (k, 0))
                        assert got == pytest.approx(oracle, abs=1e-8)
                        # joint-swap antisymmetry of the vertical pair
                        assert got == pytest.approx(
                            -cur.vv_m.get(l, i, (k, 0), (j, 0)), abs=1e-12)


class TestOneFramePerPoint:
    """Both tables read one frame; the array assembly keeps every float of
    the per-entry loops it replaced, signed zeros included."""

    def test_coefficients_evaluated_once_per_lift(self):
        inst = corpus_instance("non_autonomous", 2, 2)
        deco, conn, pack = build(inst)
        calls = []

        def counted(q):
            calls.append(q)
            return pack.coefficients_at(q)

        counting = dataclasses.replace(pack, coefficients_at=counted)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=45)[0]
        curvature_table(torsion_table(counting, pt))
        p, n = inst.dims.p, inst.dims.n
        assert len(calls) == 1 + p + n + n * p  # the point, then one lift per coordinate

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_arrays_match_entry_loops_bitwise(self, p):
        inst = corpus_instance("non_autonomous", p, 2)
        deco, conn, pack = build(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=3)[0]
        tor = torsion_table(pack, pt)
        cur = curvature_table(tor)
        lifted = _delta_lifted_loops(cur, inst.dims)
        for name, want in lifted.items():
            assert _reprs(cur.families()[name]) == _reprs(want), name
        # off the delta diagonal, 0.0 times a negative entry gives -0.0
        assert p == 1 or any("-0.0" in _reprs(want) for want in lifted.values())
        assert repr(_antisymmetry_defect(tor, cur)) == repr(_antisymmetry_loops(tor, cur, inst.dims))


def _reprs(tensor):
    return [repr(float(v)) for v in tensor.data.ravel()]


def _delta_lifted_loops(cur, dims):
    """The per-entry assembly of the delta-lifted vertical curvature column
    (X^{(l)(alpha)}_{(eta)(i)...} = delta^alpha_eta X^l_{i...}, plus
    delta^l_i H^alpha_{eta b c} for tt_v), kept as the reference."""
    n, p = dims.n, dims.p
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
                            val = dl * cur.tt_m.get(l, i, b, c)
                            if l == i:
                                val += cur.tt_t.get(al, eta, b, c)
                            tt_v.set(((l, eta), (i, al), b, c), val)
                        for k in range(n):
                            mt_v.set(((l, eta), (i, al), b, k), dl * cur.mt_m.get(l, i, b, k))
                            for c in range(p):
                                vt_v.set(((l, eta), (i, al), b, (k, c)),
                                         dl * cur.vt_m.get(l, i, b, (k, c)))
                    for j in range(n):
                        for k in range(n):
                            mm_v.set(((l, eta), (i, al), j, k), dl * cur.mm_m.get(l, i, j, k))
                            for c in range(p):
                                vm_v.set(((l, eta), (i, al), j, (k, c)),
                                         dl * cur.vm_m.get(l, i, j, (k, c)))
                        for b in range(p):
                            for k in range(n):
                                for c in range(p):
                                    vv_v.set(((l, eta), (i, al), (j, b), (k, c)),
                                             dl * cur.vv_m.get(l, i, (j, b), (k, c)))
    return {"tt_v": tt_v, "mt_v": mt_v, "mm_v": mm_v, "vt_v": vt_v, "vm_v": vm_v, "vv_v": vv_v}


def _antisymmetry_loops(tor, cur, dims):
    """Per-entry worst |X + X^T| of the four antisymmetric families."""
    n, p = dims.n, dims.p
    worst = 0.0
    for m in range(n):
        for mu in range(p):
            for a in range(p):
                for b in range(p):
                    worst = max(worst, abs(tor.tt_v.get((m, mu), a, b) + tor.tt_v.get((m, mu), b, a)))
            for i in range(n):
                for j in range(n):
                    worst = max(worst, abs(tor.mm_v.get((m, mu), i, j) + tor.mm_v.get((m, mu), j, i)))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    worst = max(worst, abs(cur.mm_m.get(l, i, j, k) + cur.mm_m.get(l, i, k, j)))
    for a in range(p):
        for e in range(p):
            for b in range(p):
                for c in range(p):
                    worst = max(worst, abs(cur.tt_t.get(a, e, b, c) + cur.tt_t.get(a, e, c, b)))
    return worst


def _f_tensor(inst, deco, pt):
    """F^m_{i(mu)} = (g^{mp}/2)[dg_{pi}/dt^mu + (1/2) h_{mu b} U^{(b)}_{(p)i}].

    Kept generic over the scalar kind so it can be covariantly
    differentiated (no scalar_value stripping).
    """
    from jetlag.calculus import lift_d1, structure_dual_parts

    n, p = inst.dims.n, inst.dims.p
    gs = SpatialMetricField(n, deco.g_field)
    ginv = gs.inverse_at(pt)
    hmat = inst.h.matrix_at(pt.t)
    dg = []
    for mu in range(p):
        dg.append(structure_dual_parts(deco.g_field(lift_d1(pt, t_coord(mu)))))
    ucurl = deco.u_curl_at(pt)
    out = [[[0.0] * p for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for i in range(n):
            for mu in range(p):
                acc = 0.0
                for q in range(n):
                    inner = dg[mu][q][i]
                    for b in range(p):
                        inner = inner + 0.5 * hmat[mu][b] * ucurl[q][b][i]
                    acc = acc + ginv[m][q] * inner
                out[m][i][mu] = 0.5 * acc
    return out
