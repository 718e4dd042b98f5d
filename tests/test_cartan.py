"""Cartan and Berwald connections, covariant derivatives, metric compatibility."""

import dataclasses
import math

import numpy as np
import pytest

from jetlag import cartan, connection, metric_engine, verify
from jetlag.calculus import field_jacobian, lift_d1, t_coord, v_coord, x_coord
from jetlag.cartan import berwald_connection, cartan_connection, metric_compatibility
from jetlag.connection import m_values
from jetlag.fields import ElectrodynamicsLagrangian, ExpressionField, LagrangianModel
from jetlag.jet_core import Dims, JetPoint, spatial_lower, spatial_upper, temporal_lower
from jetlag.metric_engine import TemporalMetric, g_christoffel_values, h_christoffel_values
from jetlag.regularity import electrodynamics_decompose, sample_points
from jetlag.scalars import scalar_value

from conftest import (
    canonical_n_reference,
    corpus_config,
    corpus_instance,
    counted,
    potentials_config,
    spatial_metric_of,
    sphere_config,
)
from jetlag.config import assemble
from oracles import (
    MHorizontal,
    THorizontal,
    VerticalCov,
    constant,
    covariant_derivative,
    expression_lagrangian,
)


def build_cartan(inst):
    deco = electrodynamics_decompose(inst.L, inst.h) if inst.dims.p >= 2 else None
    return cartan_connection(inst.L, inst.h, decomposition=deco)


class TestCartanCoefficients:
    def test_flat_all_zero(self):
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        g = [[constant(1.0 if i == j else 0.0) for j in range(2)] for i in range(2)]
        L = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g))
        pack = cartan_connection(L, h, electrodynamics_decompose(L, h))
        pt = JetPoint((0.2, -0.4), (0.5, 0.6), ((0.3, 0.2), (-0.1, 0.5)))
        co = pack.coefficients_at(pt)
        for block in (co.hbar, co.g, co.l, co.c):
            assert np.max(np.abs(np.array(block))) == 0.0

    def test_p2_general_form(self):
        # C == 0, L == Gamma(t,x), G == (g^{ki}/2) dg_ij/dt
        inst = corpus_instance("non_autonomous", 2, 2)
        pack = build_cartan(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=5)[0]
        co = pack.coefficients_at(pt)
        assert np.max(np.abs(np.array(co.c))) == 0.0
        deco = electrodynamics_decompose(inst.L, inst.h)
        gamma = g_christoffel_values(deco.g_field, pt)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert scalar_value(co.l[i][j][k]) == pytest.approx(
                        scalar_value(gamma[i][j][k]), abs=1e-10)
        # frozen spot-check of the G block on the known g entries
        assert any(abs(scalar_value(co.g[k][j][c])) > 1e-6
                   for k in range(2) for j in range(2) for c in range(2))

    def test_autonomous_matches_berwald(self):
        inst = corpus_instance("autonomous", 2, 2)
        pack = build_cartan(inst)
        berwald = berwald_connection(inst.h, inst.L.structure.g_matrix, inst.dims)
        pts = sample_points(inst.dims, [-1, 1], 3, seed=9)
        for pt in pts:
            a = pack.coefficients_at(pt)
            b = berwald.coefficients_at(pt)
            assert np.allclose(np.array(a.g, dtype=float), 0.0, atol=1e-10)
            assert np.allclose(np.array(a.l, dtype=float), np.array(b.l, dtype=float), atol=1e-9)
            assert np.allclose(np.array(a.c, dtype=float), 0.0, atol=1e-12)

    def test_cartan_berwald_distinct_nonautonomous(self):
        inst = corpus_instance("non_autonomous", 2, 2)
        pack = build_cartan(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=2)[0]
        co = pack.coefficients_at(pt)
        g_block = np.array([[[scalar_value(e) for e in r] for r in m] for m in co.g])
        assert np.max(np.abs(g_block)) > 1e-4  # Berwald would be exactly 0

    def test_p1_sphere_is_levi_civita(self):
        inst = assemble(sphere_config())
        pack = build_cartan(inst)
        pt = JetPoint((0.1,), (0.9, 0.2), ((0.4,), (0.7,)))
        co = pack.coefficients_at(pt)
        th = 0.9
        assert scalar_value(co.l[0][1][1]) == pytest.approx(-math.sin(th) * math.cos(th), abs=1e-10)
        assert scalar_value(co.l[1][0][1]) == pytest.approx(math.cos(th) / math.sin(th), abs=1e-10)
        assert np.max(np.abs(np.array(co.g, dtype=float))) <= 1e-12
        assert np.max(np.abs(np.array(co.c, dtype=float))) <= 1e-12

    def test_coefficient_symmetries(self):
        for kind, p, n in (("non_autonomous", 2, 2), ("harmonic", 1, 2)):
            inst = corpus_instance(kind, p, n)
            pack = build_cartan(inst)
            pt = sample_points(inst.dims, [-1, 1], 1, seed=1)[0]
            co = pack.coefficients_at(pt)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert scalar_value(co.l[i][j][k]) == pytest.approx(
                            scalar_value(co.l[i][k][j]), abs=1e-9)
                        for c in range(p):
                            assert scalar_value(co.c[i][j][k][c]) == pytest.approx(
                                scalar_value(co.c[i][k][j][c]), abs=1e-9)

    def test_p1_velocity_dependent_c_frozen(self):
        # L = y^2 + y^4/2 gives g = 1 + 3y^2 and the classical coefficient
        # C^{1(1)}_{1(1)} = (g^{-1}/2) dg/dy = 3y / (1 + 3y^2)
        d = Dims(1, 1)
        h = TemporalMetric.flat(1)
        L = expression_lagrangian("v1_1^2 + 0.5*v1_1^4", d)
        pack = cartan_connection(L, h, None)
        for y in (0.6, -0.4, 1.1):
            pt = JetPoint((0.0,), (0.2,), ((y,),))
            co = pack.coefficients_at(pt)
            expect = 3.0 * y / (1.0 + 3.0 * y * y)
            assert scalar_value(co.c[0][0][0][0]) == pytest.approx(expect, abs=1e-12)


class TestMetricCompatibility:
    @pytest.mark.parametrize("kind,p,n", [
        ("harmonic", 1, 2), ("autonomous", 1, 2), ("non_autonomous", 1, 2),
        ("harmonic", 2, 2), ("autonomous", 2, 2), ("non_autonomous", 2, 2),
        ("non_autonomous", 3, 2),
    ])
    def test_all_six_identities(self, kind, p, n):
        inst = corpus_instance(kind, p, n)
        pack = build_cartan(inst)
        pts = sample_points(inst.dims, [-1, 1], 3, seed=14)
        for pt in pts:
            compat = metric_compatibility(pack, pt, pack.coefficients_at(pt))
            worst = max(compat.values())
            assert worst <= 1e-7, (kind, p, n, compat)

    def test_a_nan_coefficient_gives_a_nan_defect(self):
        # max(0.0, nan) is 0.0: a NaN defect must not read as a vanishing one
        inst = corpus_instance("non_autonomous", 1, 2)
        pack = build_cartan(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=14)[0]
        co = pack.coefficients_at(pt)
        g_block = [[list(row) for row in plane] for plane in co.g]
        g_block[1][1][0] = math.nan
        compat = metric_compatibility(pack, pt, co._replace(g=g_block))
        assert math.isnan(compat["g_t_horizontal"])
        assert max(v for k, v in compat.items() if k != "g_t_horizontal") <= 1e-7

    def test_velocity_dependent_p1(self):
        d = Dims(1, 1)
        h = TemporalMetric.flat(1)
        L = expression_lagrangian("v1_1^2 + 0.5*v1_1^4", d)
        pack = cartan_connection(L, h, None)
        pt = JetPoint((0.1,), (0.4,), ((0.6,),))
        compat = metric_compatibility(pack, pt, pack.coefficients_at(pt))
        assert max(compat.values()) <= 1e-9

    @pytest.mark.parametrize("p", [1, 2])
    def test_suite_matches_covariant_derivative_op(self, p):
        # the fast compatibility loop and the generic operator implement the
        # same slot rules and adapted frame; pin all six entries against each
        # other on one instance per p
        n = 2
        inst = corpus_instance("non_autonomous", p, n)
        pack = build_cartan(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=15)[0]
        compat = metric_compatibility(pack, pt, pack.coefficients_at(pt))
        fields = {
            "g": (pack.g_matrix_at, (spatial_lower(n), spatial_lower(n))),
            "h": (lambda q: pack.h.matrix_at(q.t), (temporal_lower(p), temporal_lower(p))),
        }
        directions = {
            "t_horizontal": [THorizontal(c) for c in range(p)],
            "m_horizontal": [MHorizontal(k) for k in range(n)],
            "vertical": [VerticalCov(k, c) for k in range(n) for c in range(p)],
        }
        for name, (fld, valence) in fields.items():
            for label, dirs in directions.items():
                worst_op = max(
                    covariant_derivative(fld, valence, d, pack, pt).max_abs()
                    for d in dirs
                )
                entry = f"{name}_{label}"
                assert compat[entry] == pytest.approx(worst_op, abs=1e-12), entry


class TestCovariantDerivative:
    def test_empty_valence_is_adapted_derivative(self):
        # d/dx^k - N^{(l)}_{(1)k} d/dv^l_1 from separate partials
        inst = corpus_instance("non_autonomous", 1, 2)
        pack = build_cartan(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=19)[0]
        fld = ExpressionField("sin(x1)*v2_1 + t1*x2", inst.dims)
        nval = pack.coefficients_at(pt).n
        for k in range(2):
            cov = covariant_derivative(fld, (), MHorizontal(k), pack, pt)
            _, jac = field_jacobian(fld, pt, [x_coord(k), v_coord(0, 0), v_coord(1, 0)])
            adapted = jac[x_coord(k)] - sum(
                scalar_value(nval[l][0][k]) * jac[v_coord(l, 0)] for l in range(2))
            assert cov == pytest.approx(adapted, abs=1e-14)

    def test_scalar_is_adapted_derivative(self):
        # a 1-slot tensor whose entries ignore v reduces to plain partials
        inst = corpus_instance("harmonic", 1, 2)
        pack = build_cartan(inst)
        pt = JetPoint((0.3,), (0.7, 0.4), ((0.2,), (0.5,)))

        fld = lambda q: [q.x[0] * q.x[1], q.x[1]]
        out = covariant_derivative(fld, (spatial_upper(2),), MHorizontal(0), pack, pt)
        co = pack.coefficients_at(pt)
        base = [pt.x[1], 0.0]
        vals = fld(pt)
        expect = [
            base[m] + sum(scalar_value(co.l[m][l][0]) * vals[l] for l in range(2))
            for m in range(2)
        ]
        assert np.allclose(out.data, expect, atol=1e-10)

    def test_berwald_sphere_block(self):
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        gs = spatial_metric_of([
            [constant(1.0), constant(0.0)],
            [constant(0.0), ExpressionField("sin(x1)^2", d)]])
        pack = berwald_connection(h, gs, d)
        pt = JetPoint((0.1, 0.2), (0.9, 0.5), ((0.2, 0.1), (0.3, -0.2)))
        co = pack.coefficients_at(pt)
        gamma = g_christoffel_values(gs, pt)
        assert np.allclose(np.array(co.l, dtype=float), np.array(
            [[[scalar_value(gamma[i][j][k]) for k in range(2)] for j in range(2)]
             for i in range(2)]), atol=1e-12)

    def test_berwald_metric_compatibility_spatial_only(self):
        # Berwald is metric for x-only pairs in all three directions
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        gs = spatial_metric_of([
            [constant(1.0), constant(0.0)],
            [constant(0.0), ExpressionField("sin(x1)^2", d)]])
        pack = berwald_connection(h, gs, d)
        pt = JetPoint((0.1, 0.2), (0.9, 0.5), ((0.2, 0.1), (0.3, -0.2)))
        compat = metric_compatibility(pack, pt, pack.coefficients_at(pt))
        assert max(compat.values()) <= 1e-9


class TestUniquenessProbe:
    def test_berwald_mismatch_on_nonautonomous(self):
        # for g = g(t, x) the Cartan G block is (g^{ki}/2) dg_ij/dt^c, while
        # the Berwald connection of the pair (h, g) has G = 0; the Cartan pack
        # is the one metric under the temporal horizontal derivative, so the
        # Berwald pack must fail exactly that identity
        inst = corpus_instance("non_autonomous", 2, 2)
        pack = build_cartan(inst)
        berwald = berwald_connection(inst.h, inst.L.structure.g_matrix, inst.dims)
        for pt in sample_points(inst.dims, [-1, 1], 2, seed=23):
            cartan_g = np.array(pack.coefficients_at(pt).g, dtype=float)
            berwald_g = np.array(berwald.coefficients_at(pt).g, dtype=float)
            assert np.max(np.abs(berwald_g)) == 0.0
            assert np.max(np.abs(cartan_g - berwald_g)) > 1e-4
            compat = metric_compatibility(berwald, pt, berwald.coefficients_at(pt))
            assert compat["g_t_horizontal"] > 1e-4
            assert max(metric_compatibility(pack, pt, pack.coefficients_at(pt)).values()) <= 1e-10


class TestOneEvaluationPerPoint:
    """A coefficient closure computes H, g, g^{-1} and the Christoffels once
    per point and builds M and N from those values."""

    def test_p1_cartan_evaluates_h_five_times(self):
        inst = corpus_instance("non_autonomous", 1, 2)  # h = 1 + t1^2
        calls, matrix = [], inst.h.matrix

        def counted(ts):
            calls.append(ts)
            return matrix(ts)

        inst.h.matrix = counted
        pack = cartan_connection(inst.L, inst.h, None)
        pack.coefficients_at(sample_points(inst.dims, [-1, 1], 1, seed=45)[0])
        # g: the h-trace of the vertical Hessian (1) of one evaluation of L
        # (1); N, the spray derivative: one evaluation of L (1) and the
        # spray's h_christoffel_values lift (1); the closure's own lift (1),
        # whose matrix N's h_11 is read from
        assert len(calls) == 5

    @pytest.mark.parametrize("config", [corpus_config("non_autonomous", 2, 3),
                                        corpus_config("non_autonomous", 3, 2),
                                        potentials_config()])
    def test_p2_cartan_reads_one_decomposition_jet(self, config):
        # g and (U, F) once each, in the one lift of the decomposition's
        # jet over every x^k and t^a together, whose value is g at the
        # point: N's curl of U is read from it, not lifted again
        inst = assemble(config)
        deco = electrodynamics_decompose(inst.L, inst.h)
        calls = {"g": 0, "potentials": 0}
        counting = dataclasses.replace(deco, g_field=counted(calls, "g", deco.g_field),
                                       potentials=counted(calls, "potentials", deco.potentials))
        pack = cartan_connection(inst.L, inst.h, decomposition=counting)
        pack.coefficients_at(sample_points(inst.dims, [-1, 1], 1, seed=31)[0])
        assert calls == {"g": 1, "potentials": 1}

    def test_berwald_computes_each_christoffel_family_once(self, monkeypatch):
        inst = corpus_instance("non_autonomous", 2, 2)  # h depends on t
        calls = {"g": 0, "h": 0}
        monkeypatch.setattr(cartan, "g_christoffel_values",
                            counted(calls, "g", metric_engine.g_christoffel_values))
        for module in (cartan, connection):
            monkeypatch.setattr(module, "h_christoffel_values",
                                counted(calls, "h", metric_engine.h_christoffel_values))
        berwald = berwald_connection(inst.h, inst.L.structure.g_matrix, inst.dims)
        berwald.coefficients_at(sample_points(inst.dims, [-1, 1], 1, seed=32)[0])
        assert calls == {"g": 1, "h": 1}

    @pytest.mark.parametrize("lift", [None, t_coord(0), x_coord(1)])
    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2)])
    def test_m_and_n_are_the_nonlinear_connection_bitwise(self, p, n, lift):
        # the pack's M and N equal the reference bitwise, at the point and
        # at lifted points
        inst = corpus_instance("non_autonomous", p, n)
        deco = electrodynamics_decompose(inst.L, inst.h)
        pack = cartan_connection(inst.L, inst.h, decomposition=deco)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=33)[0]
        if lift is not None:
            pt = lift_d1(pt, (lift,))
        co = pack.coefficients_at(pt)
        assert repr(co.m) == repr(m_values(h_christoffel_values(inst.h, pt.t)[2], pt))
        assert repr(co.n) == repr(canonical_n_reference(inst.h, deco, pt))

    def test_berwald_n_is_gamma_v(self):
        inst = corpus_instance("autonomous", 2, 3)
        p, n = inst.dims.p, inst.dims.n
        berwald = berwald_connection(inst.h, inst.L.structure.g_matrix, inst.dims)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=34)[0]
        gamma = g_christoffel_values(inst.L.structure.g_matrix, pt)
        expect = [[[sum(gamma[i][j][k] * pt.v[k][a] for k in range(n)) for j in range(n)]
                   for a in range(p)] for i in range(n)]
        assert berwald.coefficients_at(pt).n == expect

    def test_verify_reads_the_reduction_n_from_the_cartan_coefficients(self, monkeypatch):
        # p = 1, constant h, g of x only and no U: verify runs the classical
        # reduction N^i_j = Gamma^i_jk v^k at its first three points
        inst = assemble(corpus_config("harmonic", 1, 2, count=4))
        n = inst.dims.n
        calls = []
        spray_n_values = cartan.spray_n_values

        def counting(*args):
            calls.append(args[3])
            return spray_n_values(*args)

        monkeypatch.setattr(cartan, "spray_n_values", counting)
        checks = verify.run_checks(inst)
        # one per coefficients_at: the 4 compatibility points, then the one
        # lift over every coordinate of 4 torsion tables (2 audit, 2
        # antisymmetry); 3 more when the reduction computed N itself
        assert len(calls) == 4 + 4 == 8
        worst = 0.0
        for pt in verify._points(inst, 6)[:3]:
            gamma = g_christoffel_values(inst.L.structure.g_matrix, pt)
            nval = spray_n_values(inst.L, inst.h, inst.h.matrix_at(pt.t), pt)
            for i in range(n):
                for j in range(n):
                    expect = sum(scalar_value(gamma[i][j][k]) * pt.v[k][0] for k in range(n))
                    worst = max(worst, abs(scalar_value(nval[i][0][j]) - expect))
        (reduction,) = [c for c in checks if c.name == "classical_reduction"]
        assert reduction.passed and repr(reduction.worst) == repr(worst)
