"""Torsion/curvature tables: closed forms vs generic formulas, zero audits,
antisymmetries, classical reductions."""

import math

import numpy as np
import pytest

from jetlag.calculus import (
    all_coords,
    field_jacobian,
    lift_d1,
    map_structure,
    t_coord,
    v_coord,
    x_coord,
)
from jetlag.cartan import LinearConnectionPack, berwald_connection, cartan_connection
from jetlag.config import assemble
from jetlag.connection import delta_entry, gcal_values
from jetlag.curvature import _TABLES, curvature_table, table_zero_audit, torsion_table
from jetlag.fields import ExpressionField
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
from jetlag.metric_engine import TemporalMetric, checked_inverse
from jetlag.regularity import electrodynamics_decompose, g_from_hessian, sample_points
from jetlag.scalars import Dual, scalar_value
from jetlag.verify import _antisymmetry_defect

from conftest import (
    CORPUS_DIMS,
    KINDS,
    canonical_n_reference,
    corpus_config,
    corpus_instance,
    quartic_config,
    spatial_metric_of,
    sphere_config,
    tables_at,
    temporal_metric_of,
)
from oracles import (
    MHorizontal,
    constant,
    covariant_derivative,
    g_curvature_values,
    h_curvature_values,
)


def build(inst):
    deco = electrodynamics_decompose(inst.L, inst.h) if inst.dims.p >= 2 else None
    pack = cartan_connection(inst.L, inst.h, decomposition=deco)
    return deco, pack


def sphere_metric(dims):
    return spatial_metric_of([
        [constant(1.0), constant(0.0)],
        [constant(0.0), ExpressionField("sin(x1)^2", dims)]])


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
        audit = table_zero_audit(self.pack, tables_at(self.pack, [self.pt]))
        assert audit.passed

    def test_nonflat_h_tt_v(self):
        dims = Dims(2, 1)
        entries = [["1", "0"], ["0", "sin(t1)^2"]]
        h = temporal_metric_of([[ExpressionField(e, dims) for e in row] for row in entries],
                               (2, 0))
        g = spatial_metric_of([[constant(1.0)]])
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
        deco, pack = build(inst)
        pts = sample_points(inst.dims, [-1, 1], 2, seed=31)
        for pt in pts:
            tor = torsion_table(pack, pt)
            f_tensor = _f_tensor(inst, deco, pt)
            co = pack.coefficients_at(pt)
            ts = [t_coord(a) for a in range(2)]
            _, dn_dt = field_jacobian(lambda q: canonical_n_reference(inst.h, deco, q), pt, ts)
            for m in range(2):
                for mu in range(2):
                    for a in range(2):
                        for j in range(2):
                            dn = dn_dt[ts[a]][m][mu][j]
                            expect = -dn + sum(
                                scalar_value(co.hbar[b][mu][a]) * f_tensor[m][j][b]
                                for b in range(2))
                            assert tor.mt_v.get((m, mu), a, j) == pytest.approx(expect, abs=1e-7)

    def test_p2_r_mm_closed_form(self):
        # R^{(m)}_{(mu)ij} = r^m_{kij} x^k_mu + [F^m_{i(mu)|j} - F^m_{j(mu)|i}]
        inst = corpus_instance("non_autonomous", 2, 2)
        deco, pack = build(inst)
        gs = deco.g_field
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
        deco, pack = build(inst)
        pts = sample_points(inst.dims, inst.sampling["box"], 2, seed=33)
        coords = [t_coord(0), v_coord(0, 0), v_coord(1, 0)]
        for pt in pts:
            tor = torsion_table(pack, pt)
            co = pack.coefficients_at(pt)
            _, dn = field_jacobian(lambda q: pack.coefficients_at(q).n, pt, coords)
            h111 = scalar_value(co.hbar[0][0][0])
            for m in range(2):
                for j in range(2):
                    nval = scalar_value(co.n[m][0][j])
                    dn_t = dn[t_coord(0)][m][0][j]
                    sweep = sum(pt.v[k][0] * dn[v_coord(k, 0)][m][0][j] for k in range(2))
                    expect = -dn_t + h111 * (nval - sweep)
                    assert tor.mt_v.get((m, 0), 0, j) == pytest.approx(expect, abs=1e-7)

    def test_p1_simple_torsion_identities(self):
        inst = assemble(sphere_config())
        deco, pack = build(inst)
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
        deco, pack = build(inst)
        pt = JetPoint((0.1,), (0.9, 0.2), ((0.4,), (0.7,)))
        tor = torsion_table(pack, pt)
        co = pack.coefficients_at(pt)
        vs = [v_coord(j, 0) for j in range(2)]
        _, dn_dv = field_jacobian(lambda q: pack.coefficients_at(q).n, pt, vs)
        for m in range(2):
            for i in range(2):
                for j in range(2):
                    dn = dn_dv[vs[j]][m][0][i]
                    expect = dn - scalar_value(co.l[m][j][i])
                    assert tor.vm_v.get((m, 0), i, (j, 0)) == pytest.approx(expect, abs=1e-8)


class TestCartanTables:
    def test_autonomous_remark(self):
        # autonomous electrodynamics: torsions vanish except the three
        # R-families; curvature vanishes except tt_t and mm_m = r
        inst = corpus_instance("autonomous", 2, 2)
        deco, pack = build(inst)
        gs = deco.g_field
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
        deco, pack = build(inst)
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
            deco, pack = build(inst)
            pts = sample_points(inst.dims, [-1, 1], 2, seed=42)
            audit = table_zero_audit(pack, tables_at(pack, pts))
            assert audit.passed, (kind, p, audit.worst_cell, audit.worst)

    def test_a_nan_in_a_zero_cell_fails_the_audit(self):
        # the NaN sits in the first of two tables, where a plain max over
        # the tables would drop it
        inst = corpus_instance("non_autonomous", 2, 2)
        deco, pack = build(inst)
        tables = tables_at(pack, sample_points(inst.dims, [-1, 1], 2, seed=42))
        assert table_zero_audit(pack, tables).passed
        tables[0][0].vm_m.data.flat[1] = math.nan
        audit = table_zero_audit(pack, tables)
        assert not audit.passed
        assert math.isnan(audit.worst) and math.isnan(audit.per_cell["torsion.vm_m"])
        assert audit.worst_cell == "torsion.vm_m"

    def test_p1_audit_does_not_flag_t_m1j(self):
        # T^m_{1j} = -G^m_{j1} is generally nonzero for p=1 non-autonomous
        inst = corpus_instance("non_autonomous", 1, 2)
        deco, pack = build(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=43)[0]
        tor = torsion_table(pack, pt)
        assert tor.mt_m.max_abs() > 1e-6  # nonzero...
        audit = table_zero_audit(pack, [(tor, curvature_table(tor))])
        assert audit.passed  # ...and not audited as a zero cell

    def test_antisymmetries(self):
        inst = corpus_instance("non_autonomous", 2, 2)
        deco, pack = build(inst)
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
        from jetlag.cartan import Coefficients

        def coefficients(point: JetPoint):
            y1 = point.v[0][0]
            c = [[[[0.0] for _ in range(2)] for _ in range(2)] for _ in range(2)]
            c[0][0][1][0] = 0.7 * y1        # C^{1(1)}_{1(2)}
            c[0][1][0][0] = -0.2 * y1       # C^{1(1)}_{2(1)} (asymmetric)
            hbar = [[[0.0]]]
            g = [[[0.0] for _ in range(2)] for _ in range(2)]
            l = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
            m = [[[0.0]] for _ in range(2)]      # M = 0, [i][a][b]
            n = [[[0.0] * 2] for _ in range(2)]  # N = 0, [i][a][j]
            return Coefficients(hbar=hbar, g=g, l=l, c=c, m=m, n=n,
                                gmat=[[1.0, 0.0], [0.0, 1.0]], hmat=[[1.0]])

        return LinearConnectionPack(
            dims=Dims(1, 2), kind="custom", coefficients_at=coefficients,
            g_matrix_at=lambda pt: [[1.0, 0.0], [0.0, 1.0]])

    def test_vv_torsion_formula(self):
        pack = self._pack()
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
        pack = self._pack()
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
        deco, pack = build(inst)
        calls = []

        def counted(q):
            calls.append(q)
            return pack.coefficients_at(q)

        counting = LinearConnectionPack(pack.dims, pack.kind, counted, pack.g_matrix_at)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=45)[0]
        curvature_table(torsion_table(counting, pt))
        assert len(calls) == 1  # one lift over every coordinate, its value the point's

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_arrays_match_entry_loops_bitwise(self, p):
        inst = corpus_instance("non_autonomous", p, 2)
        deco, pack = build(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=3)[0]
        tor = torsion_table(pack, pt)
        cur = curvature_table(tor)
        lifted = _delta_lifted_loops(cur, inst.dims)
        for name, want in lifted.items():
            assert _reprs(cur.families()[name]) == _reprs(want), name
        # off the delta diagonal, 0.0 times a negative entry gives -0.0
        assert p == 1 or any("-0.0" in _reprs(want) for want in lifted.values())
        assert repr(_antisymmetry_defect(tor, cur)) == repr(_antisymmetry_loops(tor, cur, inst.dims))


_ORACLE_CONFIGS = {
    **{f"{kind}-{p}-{n}": corpus_config(kind, p, n) for kind in KINDS for p, n in CORPUS_DIMS},
    "quartic": quartic_config(),
    "sphere": sphere_config(),
}


def _per_coordinate(field, point, coords):
    """The Jacobian from one single-direction lift per coordinate, each leaf
    a nested list of floats."""
    def leaves(obj):
        if isinstance(obj, (list, tuple)):
            return [leaves(o) for o in obj]
        return obj.du[0] if type(obj) is Dual else 0.0

    return {c: leaves(field(lift_d1(point, (c,)))) for c in coords}


class TestOneLiftIsEveryDirection:
    """One evaluation on a lift over every coordinate gives each partial
    bitwise as the evaluation lifted along that coordinate alone."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
    def test_jacobians_match_single_direction_lifts(self, name):
        inst = assemble(_ORACLE_CONFIGS[name])
        dims = inst.dims
        coords = all_coords(dims)
        pt = sample_points(dims, inst.sampling["box"], 1, seed=61)[0]
        for field in (lambda q: gcal_values(inst.L, inst.h, q),
                      lambda q: g_from_hessian(inst.L, inst.h, q)):
            assert repr(field_jacobian(field, pt, coords)[1]) == repr(
                _per_coordinate(field, pt, coords))
        if name == "quartic":
            return  # quartic in the velocities: no Cartan connection for p = 2
        _, pack = build(inst)

        def tables(q):
            co = pack.coefficients_at(q)
            return [co.m, co.n, co.hbar, co.g, co.l, co.c, co.gmat, co.hmat]

        frame = torsion_table(pack, pt).frame
        want = _per_coordinate(tables, pt, coords)
        for c in coords:
            for k, table in zip(_TABLES, want[c]):
                assert repr(frame.partial(c, k).tolist()) == repr(np.array(table).tolist()), (c, k)


_FLAT_FRAME_CONFIGS = {**{name: config for name, config in _ORACLE_CONFIGS.items()
                           if name != "quartic" and config["dims"]["p"] <= 2},
                        "sphere": sphere_config()}


class TestFlatFrame:
    """The frame's one pass per adapted direction over all tables' entries
    gives, table by table, bitwise what ``delta_entry`` gives over that
    table's own Jacobian; its coefficients are the plain call's."""

    @pytest.mark.parametrize("name", sorted(_FLAT_FRAME_CONFIGS))
    def test_tables_match_delta_entry_per_table(self, name):
        inst = assemble(_FLAT_FRAME_CONFIGS[name])
        dims = inst.dims
        n, p = dims.n, dims.p
        coords = all_coords(dims)
        _, pack = build(inst)
        pt = sample_points(dims, inst.sampling["box"], 1, seed=63)[0]
        frame = torsion_table(pack, pt).frame
        co = pack.coefficients_at(pt)
        assert repr(frame.coefficients) == repr(co)
        m_co, n_co = map_structure(scalar_value, co.m), map_structure(scalar_value, co.n)
        fields = dict(zip(_TABLES, ("m", "n", "hbar", "g", "l", "c", "gmat", "hmat")))
        for table, field in fields.items():
            _, jac = field_jacobian(lambda q: getattr(pack.coefficients_at(q), field), pt, coords)
            jac = {c: np.array(part, dtype=float) for c, part in jac.items()}
            shape = jac[coords[0]].shape
            want_t = np.stack([delta_entry(jac, (), t_coord(b), m_co) for b in range(p)], axis=-1)
            want_x = np.stack([delta_entry(jac, (), x_coord(j), n_co) for j in range(n)], axis=-1)
            want_v = np.stack([jac[v_coord(k, c)] for k in range(n) for c in range(p)],
                              axis=-1).reshape(shape + (n, p))
            for got, want in ((frame.delta_t(table), want_t), (frame.delta_x(table), want_x),
                              (frame.partial_v(table), want_v)):
                assert repr(got.tolist()) == repr(want.tolist()), table


class TestLiftedValueIsThePlainCall:
    """``field_jacobian``'s value is a plain call of the field, bitwise by
    repr (signed zeros included), for every field whose plain call the
    library replaced with it: the coefficient tables (a frame's) and the
    spatial metric of the Cartan and Berwald packs, and h's matrix."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
    def test_frame_tables_and_metrics(self, name):
        inst = assemble(_ORACLE_CONFIGS[name])
        dims = inst.dims
        coords = all_coords(dims)
        fields = [lambda q: inst.h.matrix_at(q.t)]
        if name == "quartic":  # no Cartan connection for p = 2: its g alone
            fields.append(lambda q: g_from_hessian(inst.L, inst.h, q))
        else:
            _, cartan = build(inst)
            berwald = berwald_connection(inst.h, inst.L.structure.g_matrix, dims)
            for pack in (cartan, berwald):
                fields += [pack.g_matrix_at, pack.coefficients_at]
        for pt in sample_points(dims, inst.sampling["box"], 2, seed=62):
            for field in fields:
                value, _ = field_jacobian(field, pt, coords)
                assert repr(value) == repr(map_structure(lambda e: e, field(pt)))


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
    n, p = inst.dims.n, inst.dims.p
    gs = deco.g_field
    ginv = checked_inverse(gs(pt)).inverse
    hmat = inst.h.matrix_at(pt.t)
    ts = [t_coord(mu) for mu in range(p)]
    _, dg_dt = field_jacobian(gs, pt, ts)
    dg = [dg_dt[c] for c in ts]
    ucurl = deco.jet_at(pt).u_curl
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
