"""Sprays, the canonical nonlinear connection and adapted derivatives."""

import math
import random

import numpy as np
import pytest

from jetlag.cartan import cartan_connection
from jetlag.config import assemble
from jetlag.connection import (
    _trace_tensor_vector,
    euler_lagrange_residual,
    gcal_values,
    spray_data,
    spray_entities,
)
from jetlag.fields import ElectrodynamicsLagrangian, ExpressionField, LagrangianModel
from jetlag.jet_core import Dims, JetPoint
from jetlag.metric_engine import (
    TemporalMetric,
    checked_inverse,
    g_christoffel_values,
    h_christoffel_values,
)
from jetlag.regularity import (
    ElectrodynamicsDecomposition,
    electrodynamics_decompose,
    hessian_blocks,
    sample_points,
)
from jetlag.scalars import scalar_value

from conftest import (
    CORPUS_DIMS,
    KINDS,
    corpus_config,
    corpus_instance,
    counted,
    potentials_config,
    spatial_metric_of,
    temporal_metric_of,
)
from oracles import (
    MHorizontal,
    THorizontal,
    VerticalCov,
    constant,
    covariant_derivative,
    expression_lagrangian,
)


def flat_h(p):
    return TemporalMetric.flat(p)


def decomposition_of(inst):
    """The instance's decomposition at the default base points, None for
    p = 1."""
    return electrodynamics_decompose(inst.L, inst.h) if inst.dims.p >= 2 else None


def decomposition_jet(inst, point):
    """The jet at ``point`` of ``decomposition_of(inst)``, None for p = 1."""
    deco = decomposition_of(inst)
    return None if deco is None else deco.jet_at(point)


def el_residual(L, h, point, xab):
    return euler_lagrange_residual(point, xab, spray_data(L, h, point))


class TestEulerLagrange:
    # Each map's 2-jet (t, x, x_a, x_ab) is written out in closed form.

    def test_straight_line_flat(self):
        # x = (1 + 2 t, 0.5 - t) at t = 0.3
        L = expression_lagrangian("v1_1*v1_1 + v2_1*v2_1", Dims(1, 2))
        point = JetPoint((0.3,), (1.6, 0.2), ((2.0,), (-1.0,)))
        res = el_residual(L, flat_h(1), point, [[[0.0]], [[0.0]]])
        assert np.max(np.abs(res)) <= 1e-12

    def test_parabola_frozen(self):
        # x = t^2 at t = 0.5
        L = expression_lagrangian("v1_1*v1_1", Dims(1, 1))
        point = JetPoint((0.5,), (0.25,), ((1.0,),))
        res = el_residual(L, flat_h(1), point, [[[2.0]]])
        assert res[0] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("sign, expect", [(-1.0, 0.0), (1.0, 8.0)])
    def test_p2_flat_quadratic_maps(self, sign, expect):
        # x = t1^2 + sign t2^2: the residual is 2 (x_11 + x_22)
        L = expression_lagrangian("v1_1^2 + v1_2^2", Dims(2, 1))
        t1, t2 = 0.3, -0.4
        point = JetPoint((t1, t2), (t1 * t1 + sign * t2 * t2,), ((2.0 * t1, sign * 2.0 * t2),))
        res = el_residual(L, flat_h(2), point, [[[2.0, 0.0], [0.0, sign * 2.0]]])
        assert res[0] == pytest.approx(expect, abs=1e-12)

    def test_p2_off_diagonal_contraction(self):
        # L = h^{ab} v_a v_b under constant h = [[2, 1], [1, 2]] and x = t1 t2:
        # only x_12 = x_21 = 1 is nonzero, so the residual is 4 h^{12} = -4/3
        d = Dims(2, 1)
        h = TemporalMetric(p=2, matrix=lambda ts: [[2.0, 1.0], [1.0, 2.0]],
                           signature=(2, 0), constant=True)
        L = LagrangianModel.from_family(
            ElectrodynamicsLagrangian(d, h, [[constant(1.0)]]))
        t1, t2 = 0.7, -0.2
        point = JetPoint((t1, t2), (t1 * t2,), ((t2, t1),))
        res = el_residual(L, h, point, [[[0.0, 1.0], [1.0, 0.0]]])
        assert res[0] == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_weighted_residual_is_rearranged_form(self):
        # (g^{ki}/2) EL_i == h^{ab}(x_ab - H^c_ab x_c) + 2 G^k on smooth maps:
        # x1 = 0.2 + 0.3 t1 - 0.1 t2^2, x2 = 0.1 t1^2 + 0.4 t2
        inst = corpus_instance("non_autonomous", 2, 2)
        d = inst.dims
        xab = [[[0.0, 0.0], [0.0, -0.2]], [[0.2, 0.0], [0.0, 0.0]]]
        rng = random.Random(1)
        for _ in range(4):
            t1, t2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            ts = (t1, t2)
            point = JetPoint(ts, (0.2 + 0.3 * t1 - 0.1 * t2 * t2, 0.1 * t1 * t1 + 0.4 * t2),
                             ((0.3, -0.2 * t2), (0.2 * t1, 0.4)))
            data = spray_data(inst.L, inst.h, point)
            res = euler_lagrange_residual(point, xab, data)
            ginv = [[scalar_value(e) for e in row] for row in data.ginv]
            hinv = [[scalar_value(e) for e in row] for row in inst.h.inverse_at(ts)]
            hch = h_christoffel_values(inst.h, ts)[2]
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


class TestSprayBlocks:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p, n", CORPUS_DIMS)
    def test_blocks_are_the_vertical_hessian_blocks(self, kind, p, n):
        # the spray's one evaluation over every coordinate gives the vertical
        # blocks bit for bit as the velocity-only evaluation does, so the
        # Euler-Lagrange residual reads them from the spray
        inst = corpus_instance(kind, p, n)
        for pt in sample_points(inst.dims, [-1, 1], 2, seed=6):
            spray = np.array(spray_data(inst.L, inst.h, pt).blocks, dtype=float)
            alone = np.array(hessian_blocks(inst.L, pt).blocks, dtype=float)
            assert spray.shape == (n, p, n, p)
            assert spray.tobytes() == alone.tobytes()


class TestSprayEntities:
    def test_flat_at_zero_velocity(self):
        inst = corpus_instance("harmonic", 2, 2)
        pt = JetPoint((0.1, 0.2), (0.3, 0.4), ((0.0, 0.0), (0.0, 0.0)))
        pack = spray_entities(inst.L, inst.h, pt, decomposition_jet(inst, pt))
        assert np.max(np.abs(pack.Gc)) <= 1e-12
        assert np.max(np.abs(pack.S)) <= 1e-12

    def test_flat_h_kills_j(self):
        inst = corpus_instance("harmonic", 2, 2)  # flat h by construction
        pt = JetPoint((0.1, 0.2), (0.3, 0.4), ((0.5, -0.2), (0.7, 0.1)))
        pack = spray_entities(inst.L, inst.h, pt, decomposition_jet(inst, pt))
        assert np.max(np.abs(pack.J)) == 0.0

    def test_entity_sum(self):
        inst = corpus_instance("non_autonomous", 2, 2)
        pt = JetPoint((0.2, -0.3), (0.5, 0.7), ((0.3, -0.2), (0.1, 0.6)))
        pack = spray_entities(inst.L, inst.h, pt, decomposition_jet(inst, pt))
        assert np.allclose(pack.Gc, pack.S + pack.Hc + pack.J, atol=1e-14)

    @pytest.mark.parametrize("config", [corpus_config("non_autonomous", 2, 3),
                                        potentials_config()])
    def test_p2_spray_reads_one_decomposition_jet(self, config):
        # the T-tensor and the Christoffels of g read the decomposition's
        # jet the caller hands in, which evaluates g and (U, F) once each;
        # the spray evaluates neither
        inst = assemble(config)
        deco = electrodynamics_decompose(inst.L, inst.h)
        calls = {"g": 0, "potentials": 0}
        counting = ElectrodynamicsDecomposition(
            deco.dims, counted(calls, "g", deco.g_field),
            counted(calls, "potentials", deco.potentials))
        pt = sample_points(inst.dims, [-1, 1], 1, seed=12)[0]
        jet = counting.jet_at(pt)
        assert calls == {"g": 1, "potentials": 1}
        spray_entities(inst.L, inst.h, pt, jet)
        assert calls == {"g": 1, "potentials": 1}

    def test_h_trace_identity_random_points(self):
        # G^l = h^{ab} G^{(l)}_{(a)b} at random points
        for kind in ("harmonic", "autonomous", "non_autonomous"):
            inst = corpus_instance(kind, 2, 2)
            deco = electrodynamics_decompose(inst.L, inst.h)
            pts = sample_points(inst.dims, [-1, 1], 10, seed=3)
            for pt in pts:
                pack = spray_entities(inst.L, inst.h, pt, deco.jet_at(pt))
                hinv = [[scalar_value(e) for e in row] for row in inst.h.inverse_at(pt.t)]
                for l in range(inst.dims.n):
                    acc = sum(hinv[a][b] * pack.G_spatial.get((l, a), b)
                              for a in range(2) for b in range(2))
                    assert acc == pytest.approx(pack.Gc[l], abs=1e-8)

    def test_cancellation_closed_form(self):
        # Assembled G matches (1/2) h^{ab} Gamma^l_{jk} v^j_a v^k_b + T^l
        inst = corpus_instance("non_autonomous", 2, 2)
        deco = electrodynamics_decompose(inst.L, inst.h)
        g_field = deco.g_field
        pts = sample_points(inst.dims, [-1, 1], 6, seed=8)
        for pt in pts:
            pack = spray_entities(inst.L, inst.h, pt, deco.jet_at(pt))
            gamma = g_christoffel_values(g_field, pt)
            hinv = [[scalar_value(e) for e in row] for row in inst.h.inverse_at(pt.t)]
            t_vec = _trace_tensor_vector(pt, deco.jet_at(pt), spray_data(inst.L, inst.h, pt))
            for l in range(2):
                quad = 0.5 * sum(
                    hinv[a][b] * scalar_value(gamma[l][j][k]) * pt.v[j][a] * pt.v[k][b]
                    for a in range(2) for b in range(2)
                    for j in range(2) for k in range(2))
                assert pack.Gc[l] == pytest.approx(quad + t_vec[l], abs=1e-8)

    def test_sphere_geodesic_spray(self):
        d = Dims(1, 2)
        L = expression_lagrangian("v1_1*v1_1 + sin(x1)^2*v2_1*v2_1", d)
        th, y1, y2 = 0.9, 0.4, 0.7
        pt = JetPoint((0.0,), (th, 0.2), ((y1,), (y2,)))
        gv = [scalar_value(e) for e in gcal_values(L, flat_h(1), pt)]
        expect = [0.5 * (-math.sin(th) * math.cos(th)) * y2 * y2,
                  0.5 * 2 * (math.cos(th) / math.sin(th)) * y1 * y2]
        assert gv == pytest.approx(expect, abs=1e-12)

    def test_symmetry_g_spatial(self):
        inst = corpus_instance("non_autonomous", 3, 2)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=4)[0]
        pack = spray_entities(inst.L, inst.h, pt, decomposition_jet(inst, pt))
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
        pack = cartan_pack(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=0)[0]
        hch = h_christoffel_values(inst.h, pt.t)[2]
        m = pack.coefficients_at(pt).m
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
            ElectrodynamicsLagrangian(d, inst.h, [[constant(1.0)]]))
        pack = cartan_connection(L, inst.h, electrodynamics_decompose(L, inst.h))
        pt = JetPoint((0.1, 0.2), (0.4,), ((0.3, -0.2),))
        co = pack.coefficients_at(pt)
        assert np.max(np.abs(np.array(co.m))) == 0.0
        assert np.max(np.abs(np.array(co.n))) <= 1e-12

    def test_p1_reduction_to_geodesic_form(self):
        # (T,h)=(R,delta), L = g_ij(x) y^i y^j: N^{(i)}_{(1)j} = gamma^i_{jk} y^k
        d = Dims(1, 2)
        L = expression_lagrangian("v1_1*v1_1 + sin(x1)^2*v2_1*v2_1", d)
        pack = cartan_connection(L, flat_h(1), None)
        gs = spatial_metric_of([
            [constant(1.0), constant(0.0)],
            [constant(0.0), ExpressionField("sin(x1)^2", d)]])
        rng = random.Random(6)
        for _ in range(5):
            pt = JetPoint((rng.uniform(-1, 1),),
                          (rng.uniform(0.5, 2.5), rng.uniform(-1, 1)),
                          ((rng.uniform(-1, 1),), (rng.uniform(-1, 1),)))
            gamma = g_christoffel_values(gs, pt)
            nval = pack.coefficients_at(pt).n
            for i in range(2):
                for j in range(2):
                    expect = sum(scalar_value(gamma[i][j][k]) * pt.v[k][0] for k in range(2))
                    assert scalar_value(nval[i][0][j]) == pytest.approx(expect, abs=1e-8)

    def test_p1_electrodynamics_closed_form(self):
        # N^{(i)}_{(1)j} = gamma^i_{jk} y^k + (g^{ik}/4) h_11 U^{(1)}_{(k)j}
        d = Dims(1, 2)
        h = temporal_metric_of([[ExpressionField("exp(2*t1)", d)]], (1, 0))
        g = [[ExpressionField("1 + x1^2", d), constant(0.2)],
             [constant(0.2), ExpressionField("1 + x2^2", d)]]
        u = [[ExpressionField("0.5*t1*x1", d)], [ExpressionField("0.7*x2*x1", d)]]
        f = ExpressionField("t1 + x2", d)
        fam = ElectrodynamicsLagrangian(d, h, g, u, f)
        L = LagrangianModel.from_family(fam)
        pack = cartan_connection(L, h, None)
        gs = spatial_metric_of(g)
        deco = electrodynamics_decompose(L, h)
        rng = random.Random(16)
        for _ in range(4):
            pt = JetPoint((rng.uniform(-0.5, 0.5),),
                          (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                          ((rng.uniform(-1, 1),), (rng.uniform(-1, 1),)))
            gamma = g_christoffel_values(gs, pt)
            ginv = [[scalar_value(e) for e in row] for row in checked_inverse(gs(pt)).inverse]
            h11 = scalar_value(h.matrix_at(pt.t)[0][0])
            ucurl = deco.jet_at(pt).u_curl
            nval = pack.coefficients_at(pt).n
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
        pack = cartan_connection(inst.L, inst.h, decomposition=deco)
        gs = deco.g_field
        pts = sample_points(inst.dims, [-1, 1], 4, seed=11)
        for pt in pts:
            gamma = g_christoffel_values(gs, pt)
            ginv = [[scalar_value(e) for e in row] for row in checked_inverse(gs(pt)).inverse]
            hmat = [[scalar_value(e) for e in row] for row in inst.h.matrix_at(pt.t)]
            ucurl = deco.jet_at(pt).u_curl
            nval = pack.coefficients_at(pt).n
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
    return cartan_connection(inst.L, inst.h, decomposition_of(inst))


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
        m = pack.coefficients_at(pt).m
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
