"""Sprays, the canonical nonlinear connection and adapted derivatives."""

import math
import random

import numpy as np
import pytest

from jetlag.cartan import MHorizontal, THorizontal, VerticalCov, cartan_connection, covariant_derivative
from jetlag.connection import (
    canonical_nonlinear_connection,
    euler_lagrange_residual,
    gcal_values,
    jet_map_from_fields,
    spray_entities,
)
from jetlag.fields import (
    ElectrodynamicsLagrangian,
    ExpressionField,
    LagrangianModel,
    constant_field,
)
from jetlag.jet_core import Dims, JetPoint
from jetlag.metric_engine import (
    SpatialMetricField,
    TemporalMetric,
    g_christoffel_values,
    h_christoffel_values,
)
from jetlag.regularity import electrodynamics_decompose, sample_points
from jetlag.scalars import scalar_value

from conftest import corpus_instance, spatial_metric_of, temporal_metric_of


def flat_h(p):
    return TemporalMetric.flat(p)


class TestEulerLagrange:
    def test_straight_line_flat(self):
        d = Dims(1, 2)
        L = LagrangianModel.from_expression("v1_1*v1_1 + v2_1*v2_1", d)
        m = jet_map_from_fields(
            [ExpressionField("1 + 2*t1", d), ExpressionField("0.5 - t1", d)], d)
        res = euler_lagrange_residual(L, flat_h(1), m, (0.3,))
        assert np.max(np.abs(res)) <= 1e-12

    def test_parabola_frozen(self):
        d = Dims(1, 1)
        L = LagrangianModel.from_expression("v1_1*v1_1", d)
        m = jet_map_from_fields([ExpressionField("t1^2", d)], d)
        res = euler_lagrange_residual(L, flat_h(1), m, (0.5,))
        assert res[0] == pytest.approx(4.0, abs=1e-12)

    def test_weighted_residual_is_rearranged_form(self):
        # (g^{ki}/2) EL_i == h^{ab}(x_ab - H^c_ab x_c) + 2 G^k on smooth maps
        inst = corpus_instance("non_autonomous", 2, 2)
        d = inst.dims
        m = jet_map_from_fields(
            [ExpressionField("0.2 + 0.3*t1 - 0.1*t2^2", d),
             ExpressionField("0.1*t1^2 + 0.4*t2", d)], d)
        from jetlag.connection import spray_data

        rng = random.Random(1)
        for _ in range(4):
            ts = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            point = m.point_at(ts)
            res = euler_lagrange_residual(inst.L, inst.h, m, ts)
            data = spray_data(inst.L, inst.h, point, d)
            ginv = [[scalar_value(e) for e in row] for row in data.ginv]
            hinv = [[scalar_value(e) for e in row] for row in inst.h.inverse_at(ts)]
            hch = h_christoffel_values(inst.h, ts)
            xab = m.d2x(ts)
            for k in range(d.n):
                weighted = 0.5 * sum(ginv[k][i] * res[i] for i in range(d.n))
                lap = 0.0
                for a in range(d.p):
                    for b in range(d.p):
                        term = xab[k][a][b]
                        for c in range(d.p):
                            term -= scalar_value(hch[c][a][b]) * point.v[k][c]
                        lap += hinv[a][b] * term
                rearranged = lap + 2.0 * scalar_value(data.g_vec[k])
                assert weighted == pytest.approx(rearranged, abs=1e-7)


class TestSprayEntities:
    def test_flat_at_zero_velocity(self):
        inst = corpus_instance("harmonic", 2, 2)
        pt = JetPoint((0.1, 0.2), (0.3, 0.4), ((0.0, 0.0), (0.0, 0.0)))
        pack = spray_entities(inst.L, inst.h, pt)
        assert np.max(np.abs(pack.Gc)) <= 1e-12
        assert np.max(np.abs(pack.S)) <= 1e-12

    def test_flat_h_kills_j(self):
        inst = corpus_instance("harmonic", 2, 2)  # flat h by construction
        pt = JetPoint((0.1, 0.2), (0.3, 0.4), ((0.5, -0.2), (0.7, 0.1)))
        pack = spray_entities(inst.L, inst.h, pt)
        assert np.max(np.abs(pack.J)) == 0.0

    def test_entity_sum(self):
        inst = corpus_instance("non_autonomous", 2, 2)
        pt = JetPoint((0.2, -0.3), (0.5, 0.7), ((0.3, -0.2), (0.1, 0.6)))
        pack = spray_entities(inst.L, inst.h, pt)
        assert np.allclose(pack.Gc, pack.S + pack.Hc + pack.J, atol=1e-14)

    def test_h_trace_identity_random_points(self):
        # G^l = h^{ab} G^{(l)}_{(a)b} at random points
        for kind in ("harmonic", "autonomous", "non_autonomous"):
            inst = corpus_instance(kind, 2, 2)
            deco = electrodynamics_decompose(inst.L, inst.h)
            pts = sample_points(inst.dims, [-1, 1], 10, seed=3)
            for pt in pts:
                pack = spray_entities(inst.L, inst.h, pt, decomposition=deco)
                hinv = [[scalar_value(e) for e in row] for row in inst.h.inverse_at(pt.t)]
                for l in range(inst.dims.n):
                    acc = sum(hinv[a][b] * pack.G_spatial.get((l, a), b)
                              for a in range(2) for b in range(2))
                    assert acc == pytest.approx(pack.Gc[l], abs=1e-8)

    def test_cancellation_closed_form(self):
        # Assembled G matches (1/2) h^{ab} Gamma^l_{jk} v^j_a v^k_b + T^l
        inst = corpus_instance("non_autonomous", 2, 2)
        deco = electrodynamics_decompose(inst.L, inst.h)
        g_field = SpatialMetricField(2, deco.g_field)
        pts = sample_points(inst.dims, [-1, 1], 6, seed=8)
        for pt in pts:
            pack = spray_entities(inst.L, inst.h, pt, decomposition=deco)
            gamma = g_christoffel_values(g_field, pt)
            hinv = [[scalar_value(e) for e in row] for row in inst.h.inverse_at(pt.t)]
            t_vec = [
                sum(hinv[a][b] * pack.T_tensor.get((l, a), b)
                    for a in range(2) for b in range(2))
                for l in range(2)
            ]
            for l in range(2):
                quad = 0.5 * sum(
                    hinv[a][b] * scalar_value(gamma[l][j][k]) * pt.v[j][a] * pt.v[k][b]
                    for a in range(2) for b in range(2)
                    for j in range(2) for k in range(2))
                assert pack.Gc[l] == pytest.approx(quad + t_vec[l], abs=1e-8)

    def test_sphere_geodesic_spray(self):
        d = Dims(1, 2)
        L = LagrangianModel.from_expression("v1_1*v1_1 + sin(x1)^2*v2_1*v2_1", d)
        th, y1, y2 = 0.9, 0.4, 0.7
        pt = JetPoint((0.0,), (th, 0.2), ((y1,), (y2,)))
        gv = [scalar_value(e) for e in gcal_values(L, flat_h(1), pt)]
        expect = [0.5 * (-math.sin(th) * math.cos(th)) * y2 * y2,
                  0.5 * 2 * (math.cos(th) / math.sin(th)) * y1 * y2]
        assert gv == pytest.approx(expect, abs=1e-12)

    def test_symmetry_g_spatial(self):
        inst = corpus_instance("non_autonomous", 3, 2)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=4)[0]
        pack = spray_entities(inst.L, inst.h, pt)
        for l in range(2):
            for a in range(3):
                for b in range(3):
                    assert pack.G_spatial.get((l, a), b) == pytest.approx(
                        pack.G_spatial.get((l, b), a), abs=1e-9)
                    assert pack.H_temporal.get((l, a), b) == pytest.approx(
                        pack.H_temporal.get((l, b), a), abs=1e-9)


class TestNonlinearConnection:
    def test_m_is_temporal_block(self):
        inst = corpus_instance("autonomous", 2, 2)  # nonflat h
        conn = canonical_nonlinear_connection(inst.L, inst.h)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=0)[0]
        hch = h_christoffel_values(inst.h, pt.t)
        m = conn.m_at(pt)
        for i in range(2):
            for a in range(2):
                for b in range(2):
                    expect = -sum(scalar_value(hch[c][a][b]) * pt.v[i][c] for c in range(2))
                    assert scalar_value(m[i][a][b]) == pytest.approx(expect, abs=1e-12)
                    assert scalar_value(m[i][a][b]) == pytest.approx(
                        scalar_value(m[i][b][a]), abs=1e-9)

    def test_flat_everything_zero(self):
        inst = corpus_instance("harmonic", 2, 1)
        # kill the x-dependence: use explicitly flat g
        d = inst.dims
        L = LagrangianModel.from_family(
            ElectrodynamicsLagrangian(d, inst.h, [[constant_field(1.0)]]), "harmonic")
        conn = canonical_nonlinear_connection(L, inst.h)
        pt = JetPoint((0.1, 0.2), (0.4,), ((0.3, -0.2),))
        assert np.max(np.abs(np.array(conn.m_at(pt)))) == 0.0
        assert np.max(np.abs(np.array(conn.n_at(pt)))) <= 1e-12

    def test_p1_reduction_to_geodesic_form(self):
        # (T,h)=(R,delta), L = g_ij(x) y^i y^j: N^{(i)}_{(1)j} = gamma^i_{jk} y^k
        d = Dims(1, 2)
        L = LagrangianModel.from_expression("v1_1*v1_1 + sin(x1)^2*v2_1*v2_1", d)
        conn = canonical_nonlinear_connection(L, flat_h(1))
        gs = spatial_metric_of([
            [constant_field(1.0), constant_field(0.0)],
            [constant_field(0.0), ExpressionField("sin(x1)^2", d)]])
        rng = random.Random(6)
        for _ in range(5):
            pt = JetPoint((rng.uniform(-1, 1),),
                          (rng.uniform(0.5, 2.5), rng.uniform(-1, 1)),
                          ((rng.uniform(-1, 1),), (rng.uniform(-1, 1),)))
            gamma = g_christoffel_values(gs, pt)
            nval = conn.n_at(pt)
            for i in range(2):
                for j in range(2):
                    expect = sum(scalar_value(gamma[i][j][k]) * pt.v[k][0] for k in range(2))
                    assert scalar_value(nval[i][0][j]) == pytest.approx(expect, abs=1e-8)

    def test_p1_electrodynamics_closed_form(self):
        # N^{(i)}_{(1)j} = gamma^i_{jk} y^k + (g^{ik}/4) h_11 U^{(1)}_{(k)j}
        d = Dims(1, 2)
        h = temporal_metric_of([[ExpressionField("exp(2*t1)", d)]], (1, 0))
        g = [[ExpressionField("1 + x1^2", d), constant_field(0.2)],
             [constant_field(0.2), ExpressionField("1 + x2^2", d)]]
        u = [[ExpressionField("0.5*t1*x1", d)], [ExpressionField("0.7*x2*x1", d)]]
        f = ExpressionField("t1 + x2", d)
        fam = ElectrodynamicsLagrangian(d, h, g, u, f)
        L = LagrangianModel.from_family(fam, "electrodynamics")
        conn = canonical_nonlinear_connection(L, h)
        gs = spatial_metric_of(g)
        deco = electrodynamics_decompose(L, h)
        rng = random.Random(16)
        for _ in range(4):
            pt = JetPoint((rng.uniform(-0.5, 0.5),),
                          (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                          ((rng.uniform(-1, 1),), (rng.uniform(-1, 1),)))
            gamma = g_christoffel_values(gs, pt)
            ginv = [[scalar_value(e) for e in row] for row in gs.inverse_at(pt)]
            h11 = scalar_value(h.matrix_at(pt.t)[0][0])
            ucurl = deco.u_curl_at(pt)
            nval = conn.n_at(pt)
            for i in range(2):
                for j in range(2):
                    expect = sum(scalar_value(gamma[i][j][k]) * pt.v[k][0] for k in range(2))
                    expect += 0.25 * sum(
                        ginv[i][k] * h11 * scalar_value(ucurl[k][0][j]) for k in range(2))
                    assert scalar_value(nval[i][0][j]) == pytest.approx(expect, abs=1e-8)

    def test_p2_autonomous_closed_form(self):
        # Eq-form: N = gamma^i_{jk} x^k_a + (g^{ik}/4) h_{ac} U^{(c)}_{(k)j}
        inst = corpus_instance("autonomous", 2, 2)
        deco = electrodynamics_decompose(inst.L, inst.h)
        conn = canonical_nonlinear_connection(inst.L, inst.h, decomposition=deco)
        gs = SpatialMetricField(2, deco.g_field)
        pts = sample_points(inst.dims, [-1, 1], 4, seed=11)
        for pt in pts:
            gamma = g_christoffel_values(gs, pt)
            ginv = [[scalar_value(e) for e in row] for row in gs.inverse_at(pt)]
            hmat = [[scalar_value(e) for e in row] for row in inst.h.matrix_at(pt.t)]
            ucurl = deco.u_curl_at(pt)
            nval = conn.n_at(pt)
            for i in range(2):
                for a in range(2):
                    for j in range(2):
                        expect = sum(scalar_value(gamma[i][j][k]) * pt.v[k][a] for k in range(2))
                        expect += 0.25 * sum(
                            ginv[i][k] * hmat[a][c] * scalar_value(ucurl[k][c][j])
                            for k in range(2) for c in range(2))
                        assert scalar_value(nval[i][a][j]) == pytest.approx(expect, abs=1e-8)


def cartan_pack(inst):
    """A pack over the canonical connection; a covariant derivative of empty
    valence over it is the adapted-frame derivative along that connection."""
    conn = canonical_nonlinear_connection(inst.L, inst.h)
    return cartan_connection(inst.L, inst.h, conn)


class TestAdaptedDerivative:
    def test_zero_connection_reduces_to_partial(self):
        inst = corpus_instance("harmonic", 2, 1)
        fld = ExpressionField("sin(t1)*x1", inst.dims)
        pt = JetPoint((0.4, 0.1), (2.0,), ((0.3, 0.2),))
        # flat h => M = 0; field v-independent => result is the plain partial
        val = covariant_derivative(fld, (), THorizontal(0), cartan_pack(inst), pt)
        assert val == pytest.approx(2.0 * math.cos(0.4), abs=1e-12)

    def test_v_independent_field_ignores_n(self):
        inst = corpus_instance("non_autonomous", 2, 2)
        fld = ExpressionField("x1^2 * x2", inst.dims)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=2)[0]
        val = covariant_derivative(fld, (), MHorizontal(0), cartan_pack(inst), pt)
        assert val == pytest.approx(2.0 * pt.x[0] * pt.x[1], abs=1e-12)

    def test_velocity_field_picks_minus_m(self):
        inst = corpus_instance("autonomous", 2, 2)  # nonflat h
        pack = cartan_pack(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=3)[0]
        m = pack.conn.m_at(pt)
        for j in range(2):
            for b in range(2):
                fld = lambda q, j=j, b=b: q.v[j][b]
                for a in range(2):
                    val = covariant_derivative(fld, (), THorizontal(a), pack, pt)
                    assert val == pytest.approx(-scalar_value(m[j][b][a]), abs=1e-10)

    def test_vertical_direction_plain(self):
        inst = corpus_instance("harmonic", 1, 2)
        fld = ExpressionField("v1_1^2", inst.dims)
        pt = JetPoint((0.0,), (0.3, 0.1), ((0.7,), (0.4,)))
        val = covariant_derivative(fld, (), VerticalCov(0, 0), cartan_pack(inst), pt)
        assert val == pytest.approx(1.4)
