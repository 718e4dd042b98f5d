"""Vertical Hessian, block-regularity verdicts, quadratic decomposition."""

import random

import numpy as np
import pytest

from jetlag.calculus import d1, lift_d1, t_coord, x_coord
from jetlag.config import assemble
from jetlag.errors import DecompositionError
from jetlag.fields import (
    ElectrodynamicsLagrangian,
    ExpressionField,
    LagrangianModel,
    constant_field,
)
from jetlag.jet_core import Dims, JetPoint, zero_velocity_point
from jetlag.metric_engine import TemporalMetric
from jetlag.regularity import (
    electrodynamics_decompose,
    hessian_blocks,
    kronecker_test,
    sample_points,
)
from jetlag.scalars import scalar_value

from conftest import corpus_config, corpus_instance, oracle_d2, quartic_config


def u_curl_per_entry(deco, point):
    """Oracle: the curl of U from one first partial per entry of U and
    direction, n^2 p lifted evaluations of the whole U field."""
    n, p = deco.dims.n, deco.dims.p
    du = [
        [[d1(lambda pt, i=i, a=a: deco.u_field(pt)[i][a], point, x_coord(j))
          for j in range(n)] for a in range(p)] for i in range(n)
    ]
    return [
        [[du[i][a][j] - du[j][a][i] for j in range(n)] for a in range(p)]
        for i in range(n)
    ]


def _curl_probe_points(dims, seed):
    for pt in sample_points(dims, None, 2, seed=seed):
        yield pt
        yield lift_d1(pt, t_coord(0))
        yield lift_d1(pt, x_coord(1))


class TestVerticalHessian:
    def test_flat_identity(self):
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        g = [[constant_field(1.0 if i == j else 0.0) for j in range(2)] for i in range(2)]
        L = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g), "harmonic")
        pt = JetPoint((0.1, 0.2), (0.3, -0.4), ((0.5, -0.6), (0.7, 0.8)))
        G = np.array(hessian_blocks(L, pt)).reshape(4, 4)  # flat index i*p + a
        assert np.allclose(G, np.eye(4))

    def test_linear_in_velocity_zero(self):
        d = Dims(1, 1)
        L = LagrangianModel.from_expression("3*v1_1 + x1", d)
        pt = JetPoint((0.0,), (0.2,), ((1.5,),))
        assert hessian_blocks(L, pt) == [[[[0.0]]]]

    def test_quartic_single(self):
        d = Dims(1, 1)
        L = LagrangianModel.from_expression("v1_1^4", d)
        pt = JetPoint((0.0,), (0.0,), ((1.0,),))
        G = hessian_blocks(L, pt)[0][0][0][0]
        oracle = 0.5 * oracle_d2(L, pt, ("v", 0, 0), ("v", 0, 0))
        assert G == pytest.approx(6.0, abs=1e-12)
        assert G == pytest.approx(oracle, rel=1e-6)

    def test_block_symmetry(self):
        d = Dims(2, 2)
        L = LagrangianModel.from_expression(
            "exp(0.2*v1_1*v2_2) + sin(v1_2)*v2_1 + x1*v1_1^2", d)
        pt = JetPoint((0.1, -0.2), (0.4, 0.3), ((0.2, -0.5), (0.3, 0.1)))
        G = np.array(hessian_blocks(L, pt)).reshape(4, 4)
        assert np.max(np.abs(G - G.T)) <= 1e-9


class TestKroneckerTest:
    def test_electrodynamics_identity_g(self):
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        g = [[constant_field(1.0 if i == j else 0.0) for j in range(2)] for i in range(2)]
        u = [[ExpressionField("t1*x2", d), constant_field(0.4)],
             [ExpressionField("x1", d), ExpressionField("t2", d)]]
        f = ExpressionField("t1 + x1", d)
        L = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g, u, f), "electrodynamics")
        verdict = kronecker_test(L, h, K=8, seed=2)
        assert verdict.is_kronecker
        assert not verdict.velocity_dependent_g
        assert verdict.max_block_residual <= 1e-6
        for g_est in verdict.g_estimates:
            assert np.allclose(g_est, np.eye(2), atol=1e-9)

    def test_quartic_counterexample(self):
        inst = assemble(quartic_config(count=8))
        verdict = kronecker_test(inst.L, inst.h, inst.sampling["box"], K=8, seed=0)
        assert not verdict.is_kronecker
        assert verdict.max_block_residual > 1e-3
        assert verdict.diagnostics

    def test_p1_velocity_dependent_allowed(self):
        d = Dims(1, 1)
        h = TemporalMetric.flat(1)
        L = LagrangianModel.from_expression("(1 + v1_1^2) * v1_1^2", d)
        verdict = kronecker_test(L, h, K=8, seed=3)
        assert verdict.is_kronecker
        assert verdict.velocity_dependent_g

    def test_degenerate_offdiag_regular(self):
        d = Dims(1, 2)
        h = TemporalMetric.flat(1)
        L = LagrangianModel.from_expression("v1_1 * v2_1", d)
        verdict = kronecker_test(L, h, K=4, seed=1)
        assert verdict.is_kronecker
        assert verdict.signature == (1, 1)
        g = verdict.g_estimates[0]
        assert g[0][1] == pytest.approx(0.5)
        assert g[0][0] == pytest.approx(0.0)
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        assert det == pytest.approx(-0.25)

    def test_degenerate_g_is_verdict_not_exception(self):
        d = Dims(1, 1)
        h = TemporalMetric.flat(1)
        L = LagrangianModel.from_expression("x1 + t1", d)  # zero Hessian
        verdict = kronecker_test(L, h, K=4, seed=0)
        assert not verdict.is_kronecker
        assert verdict.diagnostics

    def test_corpus_all_regular(self):
        for kind in ("harmonic", "autonomous", "non_autonomous"):
            inst = corpus_instance(kind, 2, 2, count=6)
            verdict = kronecker_test(inst.L, inst.h, inst.sampling["box"], K=6,
                                     seed=inst.seed)
            assert verdict.is_kronecker, (kind, verdict.diagnostics)


class TestDecomposition:
    def test_roundtrip_frozen_instance(self):
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        g = [[ExpressionField("1 + t1^2", d), constant_field(0.0)],
             [constant_field(0.0), constant_field(1.0)]]
        u = [[ExpressionField("t1*x2", d), constant_field(0.0)],
             [constant_field(0.0), ExpressionField("x1", d)]]
        f = ExpressionField("t1 + x1", d)
        L = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g, u, f), "electrodynamics")
        deco = electrodynamics_decompose(L, h)
        assert deco.reassembly_residual <= 1e-8
        pt = zero_velocity_point((0.5, -0.2), (0.3, 0.7), d)
        gm = deco.g_field(pt)
        assert gm[0][0] == pytest.approx(1.25)
        assert deco.u_field(pt)[0][0] == pytest.approx(0.5 * 0.7)
        assert deco.f_field(pt) == pytest.approx(0.5 + 0.3)

    def test_expression_kind_matches_family(self):
        # the same Lagrangian written as one expression decomposes to the
        # same fields as the builtin family
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        src = ("(1 + t1^2)*(v1_1*v1_1 + v1_2*v1_2) + v2_1*v2_1 + v2_2*v2_2"
               " + t1*x2*v1_1 + x1*v2_2 + t1 + x1")
        L = LagrangianModel.from_expression(src, d)
        deco = electrodynamics_decompose(L, h)
        assert deco.reassembly_residual <= 1e-8
        pt = zero_velocity_point((0.5, -0.2), (0.3, 0.7), d)
        gm = deco.g_field(pt)
        assert gm[0][0] == pytest.approx(1.25, abs=1e-9)
        assert gm[0][1] == pytest.approx(0.0, abs=1e-9)
        assert deco.u_field(pt)[0][0] == pytest.approx(0.35, abs=1e-9)
        assert deco.f_field(pt) == pytest.approx(0.8, abs=1e-9)

    def test_pure_kinetic_has_no_linear_or_constant_part(self):
        inst = corpus_instance("harmonic", 2, 2)
        deco = electrodynamics_decompose(inst.L, inst.h)
        assert all(abs(v) <= 1e-12 for v in deco.f_samples)
        assert all(abs(e) <= 1e-12 for m in deco.u_samples for row in m for e in row)

    def test_u_curl_antisymmetric(self):
        inst = corpus_instance("non_autonomous", 2, 3)
        deco = electrodynamics_decompose(inst.L, inst.h)
        for curl in deco.u_curl_samples:
            for i in range(3):
                for a in range(2):
                    for j in range(3):
                        assert curl[i][a][j] == pytest.approx(-curl[j][a][i], abs=1e-10)

    @pytest.mark.parametrize("p", [2, 3])
    def test_u_curl_matches_per_entry_partials_bitwise(self, p):
        inst = corpus_instance("non_autonomous", p, 3, count=4)
        deco = electrodynamics_decompose(inst.L, inst.h)
        for pt in _curl_probe_points(inst.dims, seed=p):
            assert repr(deco.u_curl_at(pt)) == repr(u_curl_per_entry(deco, pt))

    def test_u_curl_matches_per_entry_partials_bitwise_generic(self):
        # the generic decomposition, whose U is a vertical gradient of L
        d = Dims(2, 2)
        src = ("(1 + t1^2)*(v1_1*v1_1 + v1_2*v1_2) + v2_1*v2_1 + v2_2*v2_2"
               " + t1*x2*v1_1 + x1^2*v2_2 + t1 + x1")
        deco = electrodynamics_decompose(LagrangianModel.from_expression(src, d),
                                         TemporalMetric.flat(2))
        for pt in _curl_probe_points(d, seed=5):
            curl = deco.u_curl_at(pt)
            assert repr(curl) == repr(u_curl_per_entry(deco, pt))
        assert abs(scalar_value(curl[0][0][1])) > 0.0  # dU^1_1/dx^2 = t1

    def test_u_curl_evaluates_u_once_per_x_direction(self):
        n = 3
        inst = corpus_instance("non_autonomous", 2, n, count=4)
        deco = electrodynamics_decompose(inst.L, inst.h)
        u_field = deco.u_field
        calls = []

        def counted(pt):
            calls.append(pt)
            return u_field(pt)

        deco.u_field = counted
        deco.u_curl_at(sample_points(inst.dims, None, 1, seed=4)[0])
        assert len(calls) == n

    def test_non_quadratic_rejected(self):
        d = Dims(2, 1)
        h = TemporalMetric.flat(2)
        L = LagrangianModel.from_expression("v1_1^2 + v1_2^2 + 0.1*v1_1^4", d)
        with pytest.raises(DecompositionError):
            electrodynamics_decompose(L, h)

    def test_characterization_randomized(self):
        # regularity passing (p >= 2) implies the quadratic reassembly holds
        rng = random.Random(20)
        for _ in range(5):
            n = rng.choice((1, 2))
            cfg = corpus_config("non_autonomous", 2, n, count=6, seed=rng.randrange(100))
            inst = assemble(cfg)
            verdict = kronecker_test(inst.L, inst.h, inst.sampling["box"], K=6, seed=inst.seed)
            assert verdict.is_kronecker and not verdict.velocity_dependent_g
            deco = electrodynamics_decompose(inst.L, inst.h)
            assert deco.reassembly_residual <= 1e-8


class TestSampling:
    def test_deterministic(self):
        d = Dims(1, 2)
        a = sample_points(d, [-1, 1], 5, seed=9)
        b = sample_points(d, [-1, 1], 5, seed=9)
        assert [pt.t for pt in a] == [pt.t for pt in b]
        assert [pt.v for pt in a] == [pt.v for pt in b]

    def test_box_respected(self):
        d = Dims(1, 1)
        pts = sample_points(d, [[0.5, 0.6], [2.0, 2.1], [-3.0, -2.9]], 20, seed=1)
        for pt in pts:
            assert 0.5 <= pt.t[0] <= 0.6
            assert 2.0 <= pt.x[0] <= 2.1
            assert -3.0 <= pt.v[0][0] <= -2.9
