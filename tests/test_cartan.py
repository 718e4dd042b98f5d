"""Cartan and Berwald connections, covariant derivatives, metric compatibility."""

import math
import sys

import numpy as np
import pytest

from jetlag import cartan, connection, metric_engine, verify
from jetlag.calculus import field_jacobian, lift_d1, t_coord, v_coord, x_coord
from jetlag.cartan import berwald_connection, cartan_connection
from jetlag.connection import m_values
from jetlag.curvature import metric_compatibility, torsion_table
from jetlag.fields import ElectrodynamicsLagrangian, ExpressionField, LagrangianModel
from jetlag.jet_core import Dims, JetPoint, spatial_lower, spatial_upper, temporal_lower
from jetlag.metric_engine import (
    TemporalMetric,
    checked_inverse,
    g_christoffel_values,
    h_christoffel_values,
)
from jetlag.regularity import ElectrodynamicsDecomposition, electrodynamics_decompose, sample_points
from jetlag.scalars import Dual, scalar_value

from conftest import (
    CORPUS_DIMS,
    KINDS,
    canonical_n_reference,
    corpus_config,
    corpus_instance,
    counted,
    curled_potentials_config,
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
            compat = metric_compatibility(torsion_table(pack, pt))
            worst = max(compat.values())
            assert worst <= 1e-7, (kind, p, n, compat)

    def test_a_nan_coefficient_gives_a_nan_defect(self):
        # max(0.0, nan) is 0.0: a NaN defect must not read as a vanishing one
        inst = corpus_instance("non_autonomous", 1, 2)
        pack = build_cartan(inst)
        pt = sample_points(inst.dims, [-1, 1], 1, seed=14)[0]
        tor = torsion_table(pack, pt)
        tor.frame.arrays.g[1, 1, 0] = math.nan
        compat = metric_compatibility(tor)
        assert math.isnan(compat["g_t_horizontal"])
        assert max(v for k, v in compat.items() if k != "g_t_horizontal") <= 1e-7

    def test_velocity_dependent_p1(self):
        d = Dims(1, 1)
        h = TemporalMetric.flat(1)
        L = expression_lagrangian("v1_1^2 + 0.5*v1_1^4", d)
        pack = cartan_connection(L, h, None)
        pt = JetPoint((0.1,), (0.4,), ((0.6,),))
        compat = metric_compatibility(torsion_table(pack, pt))
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
        compat = metric_compatibility(torsion_table(pack, pt))
        fields = {
            "g": (pack.g_matrix_at, (spatial_lower(n), spatial_lower(n))),
            "h": (lambda q: inst.h.matrix_at(q.t), (temporal_lower(p), temporal_lower(p))),
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


def _packs_over_the_corpus():
    """(pack, h) for the Cartan packs of the non-autonomous p = 1, 2, 3
    corpus configs (t-dependent h and g) and the Berwald pack of the p = 2
    one."""
    out = []
    for p in (1, 2, 3):
        inst = corpus_instance("non_autonomous", p, 2)
        out.append(pytest.param(build_cartan(inst), inst.h, id=f"cartan_p{p}"))
    inst = corpus_instance("non_autonomous", 2, 2)
    out.append(pytest.param(berwald_connection(inst.h, inst.L.structure.g_matrix, inst.dims),
                            inst.h, id="berwald_p2"))
    return out


class TestCompatibilityReadsTheFrame:
    """``metric_compatibility`` reads the torsion table's frame, whose one
    lift of the coefficients also carries the g and h they were built
    from."""

    @pytest.mark.parametrize("pack, h", _packs_over_the_corpus())
    def test_evaluates_nothing(self, monkeypatch, pack, h):
        pt = sample_points(pack.dims, [-1, 1], 1, seed=71)[0]
        tor = torsion_table(pack, pt)
        want = metric_compatibility(tor)

        def refuse(*args, **kwargs):
            raise AssertionError("metric_compatibility evaluated something")

        for module_name, attr in (("jetlag.calculus", "field_jacobian"),
                                  ("jetlag.metric_engine", "checked_inverse")):
            original = getattr(sys.modules[module_name], attr)
            for module in list(sys.modules.values()):  # every binding of it
                if (getattr(module, "__name__", "").startswith("jetlag")
                        and getattr(module, attr, None) is original):
                    monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(pack, "coefficients_at", refuse)
        monkeypatch.setattr(pack, "g_matrix_at", refuse)
        got = metric_compatibility(tor)
        assert len(got) == 6 and repr(got) == repr(want)

    @pytest.mark.parametrize("pack, h", _packs_over_the_corpus())
    @pytest.mark.parametrize("lift", [None, x_coord(0)], ids=["plain", "lifted_x1"])
    def test_metrics_are_the_packs_own(self, pack, h, lift):
        pt = sample_points(pack.dims, [-1, 1], 1, seed=72)[0]
        if lift is not None:
            pt = lift_d1(pt, (lift,))
        co = pack.coefficients_at(pt)
        assert repr(co.gmat) == repr(pack.g_matrix_at(pt))
        assert repr(co.hmat) == repr(h.matrix_at(pt.t))


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
        compat = metric_compatibility(torsion_table(pack, pt))
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
            compat = metric_compatibility(torsion_table(berwald, pt))
            assert compat["g_t_horizontal"] > 1e-4
            assert max(metric_compatibility(torsion_table(pack, pt)).values()) <= 1e-10


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
        counting = ElectrodynamicsDecomposition(
            deco.dims, counted(calls, "g", deco.g_field),
            counted(calls, "potentials", deco.potentials))
        pack = cartan_connection(inst.L, inst.h, decomposition=counting)
        pack.coefficients_at(sample_points(inst.dims, [-1, 1], 1, seed=31)[0])
        assert calls == {"g": 1, "potentials": 1}

    def test_berwald_computes_each_christoffel_family_once(self, monkeypatch):
        inst = corpus_instance("non_autonomous", 2, 2)  # h depends on t
        calls = {"g": 0, "h": 0}
        monkeypatch.setattr(cartan, "levi_civita", counted(calls, "g", metric_engine.levi_civita))
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
        # one per coefficients_at, and verify evaluates the coefficients once
        # per compatibility point: the torsion table's lift over every
        # coordinate, whose value is the point's coefficients.  Compatibility,
        # symmetry and the reduction read that value, so 4 points give 4
        # calls, each on a lifted point; a plain evaluation beside the frame
        # would add 4, and a reduction computing N itself 3 more
        assert len(calls) == 4
        assert all(type(pt.x[0]) is Dual for pt in calls)
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

    @pytest.mark.parametrize("kind, p, n", [("harmonic", 1, 2), ("non_autonomous", 1, 2),
                                            ("harmonic", 2, 2), ("non_autonomous", 2, 3),
                                            ("autonomous", 3, 2)])
    def test_verify_evaluates_the_coefficients_once_per_point(self, monkeypatch, kind, p, n):
        # each of the 4 compatibility points is one coefficients_at, the
        # torsion frame's lift; for p >= 2 the closure reads the jet of the
        # lifted point, so the only plain jet_at calls are the
        # decomposition's, one per distinct base point
        inst = assemble(corpus_config(kind, p, n, count=4))
        coefficient_points, plain_jets = [], []
        build, jet_at = verify.cartan_connection, ElectrodynamicsDecomposition.jet_at

        def recording_build(L, h, decomposition):
            pack = build(L, h, decomposition=decomposition)
            coefficients = pack.coefficients_at

            def recording(pt):
                coefficient_points.append(pt)
                return coefficients(pt)

            pack.coefficients_at = recording
            return pack

        def recording_jet(deco, pt):
            if all(type(e) is float for e in pt.t + pt.x):
                plain_jets.append(repr((pt.t, pt.x)))
            return jet_at(deco, pt)

        monkeypatch.setattr(verify, "cartan_connection", recording_build)
        monkeypatch.setattr(ElectrodynamicsDecomposition, "jet_at", recording_jet)
        assert verify.checks_to_json(verify.run_checks(inst))["passed"]
        assert len(coefficient_points) == 4
        assert all(type(e) is Dual for pt in coefficient_points for e in pt.t + pt.x)
        if p >= 2:
            base = {repr((tuple(pt.t), tuple(pt.x))) for pt in verify._points(inst, 6)}
            assert len(plain_jets) == len(set(plain_jets)) == len(base)

    @pytest.mark.parametrize("config", [corpus_config("harmonic", 1, 2, count=4),
                                        corpus_config("non_autonomous", 2, 3, count=4)],
                             ids=["p1", "p2"])
    def test_verify_builds_one_table_pair_per_compatibility_point(self, monkeypatch, config):
        # 4 torsion and 4 curvature tables at the 4 distinct compatibility
        # points, and the zero audit and the antisymmetry check read the
        # same 4 pairs
        inst = assemble(config)
        points, audited, checked = [], [], []
        torsion_table, audit, defect = (verify.torsion_table, verify.table_zero_audit,
                                        verify._antisymmetry_defect)

        def recording_torsion(pack, pt):
            points.append(pt)
            return torsion_table(pack, pt)

        def recording_audit(pack, tables):
            audited.extend(tables)
            return audit(pack, tables)

        def recording_defect(tor, cur):
            checked.append((tor, cur))
            return defect(tor, cur)

        monkeypatch.setattr(verify, "torsion_table", recording_torsion)
        monkeypatch.setattr(verify, "table_zero_audit", recording_audit)
        monkeypatch.setattr(verify, "_antisymmetry_defect", recording_defect)
        verify.run_checks(inst)
        expect = verify._points(inst, verify.POINT_BUDGET)[:4]
        assert [repr((pt.t, pt.x, pt.v)) for pt in points] == \
            [repr((pt.t, pt.x, pt.v)) for pt in expect]
        assert len({repr((pt.t, pt.x, pt.v)) for pt in points}) == 4
        assert len(audited) == 4
        assert [(id(tor), id(cur)) for tor, cur in audited] == \
            [(id(tor), id(cur)) for tor, cur in checked]


def _value_and_derivative(entry):
    """[value, derivative] of a plain entry or of a Dual over one direction."""
    if isinstance(entry, Dual):
        return [entry.re, entry.du[0]]
    return [entry, 0.0]


P2_CONFIGS = {f"{kind}_p{p}_n{n}": corpus_config(kind, p, n)
              for kind in KINDS for p, n in CORPUS_DIMS if p >= 2}
P2_CONFIGS["potentials"] = potentials_config()
P2_CONFIGS["curled_potentials"] = curled_potentials_config()


@pytest.mark.parametrize("lift", [None, x_coord(0)], ids=["plain", "dual"])
@pytest.mark.parametrize("name", list(P2_CONFIGS))
def test_canonical_n_is_the_pair_n_plus_the_g_block_plus_the_potentials_term(name, lift):
    # section 3: N^{(i)}_{(a)j} = Gamma^i_{jk} v^k_a + G^i_{ja}
    # + (g^{ik}/4) h_{ac} U^{(c)}_{(k)j}, the first term the Berwald N of
    # the metric pair the CLI builds
    inst = assemble(P2_CONFIGS[name])
    n, p = inst.dims.n, inst.dims.p
    deco = electrodynamics_decompose(inst.L, inst.h)
    pack = cartan_connection(inst.L, inst.h, decomposition=deco)
    structure = inst.L.structure
    g_matrix = structure.g_matrix if structure is not None else pack.g_matrix_at
    berwald = berwald_connection(inst.h, g_matrix, inst.dims)
    pt = sample_points(inst.dims, [-1, 1], 1, seed=36)[0]
    if lift is not None:
        pt = lift_d1(pt, (lift,))
    co, pair_n = pack.coefficients_at(pt), berwald.coefficients_at(pt).n
    jet = deco.jet_at(pt)
    ginv = checked_inverse(jet.g).inverse
    hmat = inst.h.matrix_at(pt.t)
    diff, expect, scale = [], [], 1.0
    for i in range(n):
        for a in range(p):
            for j in range(n):
                potentials = 0.0
                for k in range(n):
                    for c in range(p):
                        potentials = potentials + ginv[i][k] * hmat[a][c] * jet.u_curl[k][c][j]
                diff.append(_value_and_derivative(co.n[i][a][j] - pair_n[i][a][j]))
                expect.append(_value_and_derivative(co.g[i][j][a] + 0.25 * potentials))
                scale = max(scale, *map(abs, _value_and_derivative(co.n[i][a][j])))
    assert np.max(np.abs(np.array(diff) - np.array(expect))) <= 1e-12 * scale
