"""Vertical Hessian, block-regularity verdicts, quadratic decomposition."""

import math
import random

import numpy as np
import pytest

from jetlag import calculus, metric_engine, regularity
from jetlag.calculus import field_jacobian, lift_d1, t_coord, x_coord
from jetlag.config import assemble
from jetlag.connection import spray_data
from jetlag.errors import DecompositionError
from jetlag.fields import ElectrodynamicsLagrangian, ExpressionField, LagrangianModel
from jetlag.jet_core import Dims, JetPoint, zero_velocity_point
from jetlag.metric_engine import TemporalMetric
from jetlag.regularity import (
    REASSEMBLY_TOL,
    DecompositionJet,
    block_residual,
    electrodynamics_decompose,
    g_from_hessian,
    hessian_blocks,
    kronecker_test,
    sample_points,
)
from jetlag.scalars import nan_max, scalar_value

from conftest import (
    KINDS,
    benchmark_lattice_config,
    corpus_config,
    corpus_instance,
    counted,
    fd_d2,
    nan_lagrangian_config,
    non_block_regular_lattice_config,
    potentials_config,
    quartic_config,
)
from oracles import constant, expression_lagrangian


def u_curl_per_entry(deco, point):
    """Oracle: the curl of U from one first partial per entry of U and
    direction, n^2 p lifted evaluations of the whole potentials field."""
    n, p = deco.dims.n, deco.dims.p
    du = [
        [[field_jacobian(lambda pt, i=i, a=a: deco.potentials(pt)[0][i][a], point,
                         (x_coord(j),))[1][x_coord(j)]
          for j in range(n)] for a in range(p)] for i in range(n)
    ]
    return [
        [[du[i][a][j] - du[j][a][i] for j in range(n)] for a in range(p)]
        for i in range(n)
    ]


def _curl_probe_points(dims, seed):
    for pt in sample_points(dims, None, 2, seed=seed):
        yield pt
        yield lift_d1(pt, (t_coord(0),))
        yield lift_d1(pt, (x_coord(1),))


class TestVerticalHessian:
    def test_flat_identity(self):
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        g = [[constant(1.0 if i == j else 0.0) for j in range(2)] for i in range(2)]
        L = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g))
        pt = JetPoint((0.1, 0.2), (0.3, -0.4), ((0.5, -0.6), (0.7, 0.8)))
        G = np.array(hessian_blocks(L, pt).blocks).reshape(4, 4)  # flat index i*p + a
        assert np.allclose(G, np.eye(4))

    def test_linear_in_velocity_zero(self):
        d = Dims(1, 1)
        L = expression_lagrangian("3*v1_1 + x1", d)
        pt = JetPoint((0.0,), (0.2,), ((1.5,),))
        assert hessian_blocks(L, pt).blocks == [[[[0.0]]]]

    def test_quartic_single(self):
        d = Dims(1, 1)
        L = expression_lagrangian("v1_1^4", d)
        pt = JetPoint((0.0,), (0.0,), ((1.0,),))
        G = hessian_blocks(L, pt).blocks[0][0][0][0]
        oracle = 0.5 * fd_d2(L, pt, ("v", 0, 0), ("v", 0, 0), 2e-4)
        assert G == pytest.approx(6.0, abs=1e-12)
        assert G == pytest.approx(oracle, rel=1e-6)

    def test_block_symmetry(self):
        d = Dims(2, 2)
        L = expression_lagrangian(
            "exp(0.2*v1_1*v2_2) + sin(v1_2)*v2_1 + x1*v1_1^2", d)
        pt = JetPoint((0.1, -0.2), (0.4, 0.3), ((0.2, -0.5), (0.3, 0.1)))
        G = np.array(hessian_blocks(L, pt).blocks).reshape(4, 4)
        assert np.max(np.abs(G - G.T)) <= 1e-9


class TestBlockResidual:
    @pytest.mark.parametrize("config", [non_block_regular_lattice_config(),
                                        benchmark_lattice_config(0),
                                        corpus_config("non_autonomous", 3, 2, count=4)])
    def test_a_spray_reads_kronecker_tests_value_bitwise(self, config):
        # the lattice's node check, on the blocks, g and h^{-1} its spray
        # holds, is the sampled test's residual at the same point; both read
        # the upper triangle, whose maximum is that of every entry
        inst = assemble(config)
        verdict = kronecker_test(inst.L, inst.h, inst.sampling["box"], K=4, seed=inst.seed)
        for rec in verdict.samples:
            data = spray_data(inst.L, inst.h, rec.point)
            node = block_residual(data.blocks, data.hinv, data.g)
            assert node.hex() == rec.residual.hex()
            n, p = inst.dims.n, inst.dims.p
            every = max(abs(data.blocks[i][a][j][b] - data.hinv[a][b] * data.g[i][j])
                        for i in range(n) for a in range(p) for j in range(n) for b in range(p))
            assert node.hex() == every.hex()
        if config["lagrangian"]["kind"] == "expression":
            assert verdict.max_block_residual == pytest.approx(0.15, rel=1e-12)

    @pytest.mark.parametrize("where", [(0, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1)])
    def test_a_nan_entry_stays(self, where):
        blocks = [[[[1.0 if (i, a) == (j, b) else 0.0 for b in range(2)] for j in range(2)]
                   for a in range(2)] for i in range(2)]
        i, a, j, b = where
        blocks[i][a][j][b] = blocks[j][b][i][a] = math.nan
        eye = [[1.0, 0.0], [0.0, 1.0]]
        assert math.isnan(block_residual(blocks, eye, eye))


class TestKroneckerTest:
    def test_electrodynamics_identity_g(self):
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        g = [[constant(1.0 if i == j else 0.0) for j in range(2)] for i in range(2)]
        u = [[ExpressionField("t1*x2", d), constant(0.4)],
             [ExpressionField("x1", d), ExpressionField("t2", d)]]
        f = ExpressionField("t1 + x1", d)
        L = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g, u, f))
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
        L = expression_lagrangian("(1 + v1_1^2) * v1_1^2", d)
        verdict = kronecker_test(L, h, K=8, seed=3)
        assert verdict.is_kronecker
        assert verdict.velocity_dependent_g

    def test_degenerate_offdiag_regular(self):
        d = Dims(1, 2)
        h = TemporalMetric.flat(1)
        L = expression_lagrangian("v1_1 * v2_1", d)
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
        L = expression_lagrangian("x1 + t1", d)  # zero Hessian
        verdict = kronecker_test(L, h, K=4, seed=0)
        assert not verdict.is_kronecker
        assert verdict.diagnostics

    def test_corpus_all_regular(self):
        for kind in ("harmonic", "autonomous", "non_autonomous"):
            inst = corpus_instance(kind, 2, 2, count=6)
            verdict = kronecker_test(inst.L, inst.h, inst.sampling["box"], K=6,
                                     seed=inst.seed)
            assert verdict.is_kronecker, (kind, verdict.diagnostics)

    def test_h_evaluated_once_per_sample(self, monkeypatch):
        # per sample h is evaluated and factorized once, by L's first
        # evaluation (its Hessian, over the verticals, so at the float t);
        # the trace, h's inverse and L in the 8 velocity redraws at the
        # same t read that kept evaluation, and the g estimate is the
        # other factorization
        inst = corpus_instance("non_autonomous", 2, 3, count=4)
        calls = {"matrix": 0, "factorizations": 0}
        inst.h.matrix = counted(calls, "matrix", inst.h.matrix)
        factor = counted(calls, "factorizations", metric_engine.checked_inverse)
        for module in (metric_engine, regularity):
            monkeypatch.setattr(module, "checked_inverse", factor)
        verdict = kronecker_test(inst.L, inst.h, inst.sampling["box"], K=4, seed=inst.seed)
        assert verdict.is_kronecker
        assert calls == {"matrix": 4, "factorizations": 8}

    @pytest.mark.parametrize("config", [corpus_config(kind, p, n, count=4)
                                        for kind in KINDS for p, n in ((1, 2), (2, 3))]
                             + [potentials_config(), nan_lagrangian_config()])
    def test_blocks_carry_the_plain_value_of_L(self, config):
        inst = assemble(config)
        for pt in sample_points(inst.dims, inst.sampling["box"], 4, seed=inst.seed):
            assert repr(hessian_blocks(inst.L, pt).value) == repr(inst.L(pt))


def _jet_reference(deco, pt):
    """Every entry of the decomposition's jet from the evaluation or lift
    of that field alone: g and (U, F) plainly, one lift per partial and
    direction, and the per-entry curl."""
    n, p = deco.dims.n, deco.dims.p
    xs = [x_coord(k) for k in range(n)]
    ts = [t_coord(c) for c in range(p)]

    def partial(fld, c):
        return field_jacobian(fld, pt, (c,))[1][c]

    u, f = deco.potentials(pt)
    return DecompositionJet(
        g=deco.g_field(pt), u=u, f=f,
        dg_dx=[partial(deco.g_field, c) for c in xs],
        dg_dt=[partial(deco.g_field, c) for c in ts],
        du_dt=[partial(lambda q: deco.potentials(q)[0], c) for c in ts],
        df_dx=[partial(lambda q: deco.potentials(q)[1], c) for c in xs],
        u_curl=u_curl_per_entry(deco, pt),
    )


class TestDecompositionJet:
    """``jet_at`` lifts (g, U, F) once over every x and t."""

    @pytest.mark.parametrize(
        "config",
        [corpus_config(kind, p, n, count=4) for kind in KINDS for p in (2, 3) for n in (1, 2, 3)]
        + [potentials_config()],
        ids=[f"{kind}_p{p}_n{n}" for kind in KINDS for p in (2, 3) for n in (1, 2, 3)]
        + ["potentials"])
    def test_every_entry_is_its_field_alone_bitwise(self, config):
        inst = assemble(config)
        deco = electrodynamics_decompose(inst.L, inst.h)
        for pt in _curl_probe_points(inst.dims, seed=7):
            assert repr(deco.jet_at(pt)) == repr(_jet_reference(deco, pt))

    def test_expression_jet_closed_form(self):
        # U^1_1 = exp(0.3 t1 x2), U^2_2 = log(2 + x1), F = x1 x2/(2 + t2^2)
        inst = assemble(potentials_config())
        deco = electrodynamics_decompose(inst.L, inst.h)
        pt = sample_points(inst.dims, None, 1, seed=3)[0]
        (t1, t2), (x1, x2) = pt.t, pt.x
        e, d = math.exp(0.3 * t1 * x2), 2.0 + t2 * t2
        jet = deco.jet_at(pt)
        np.testing.assert_allclose(jet.u, [[e, 0.0], [0.0, math.log(2.0 + x1)]], rtol=0, atol=1e-12)
        assert jet.f == pytest.approx(x1 * x2 / d, abs=1e-12)
        assert jet.du_dt[0][0][0] == pytest.approx(0.3 * x2 * e, abs=1e-12)
        assert jet.df_dx == pytest.approx([x2 / d, x1 / d], abs=1e-12)
        # U^{(1)}_{(1)2} = dU^1_1/dx^2 and U^{(2)}_{(2)1} = dU^2_2/dx^1
        assert jet.u_curl[0][0][1] == pytest.approx(0.3 * t1 * e, abs=1e-12)
        assert jet.u_curl[1][1][0] == pytest.approx(1.0 / (2.0 + x1), abs=1e-12)
        np.testing.assert_allclose(jet.g, [[1.0 + x2 * x2, 0.0], [0.0, 2.0 + x1 * x1]], rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("config, evaluations, lifts", [
        # the builtin family's fields are its entries: the 4 reassembly
        # probes are L's only evaluations, the jet one lift per sample
        (corpus_config("non_autonomous", 2, 2, count=4), 32, 8),
        # per sample the g trace (a Taylor2 evaluation of L), U and F (one
        # Dual evaluation of L, a lift inside the jet's lift) and the 4 probes
        (potentials_config(), 48, 16),
    ])
    def test_one_jet_per_sample(self, monkeypatch, config, evaluations, lifts):
        inst = assemble(config)
        calls = {"L": 0, "lift_d1": 0}
        L = LagrangianModel(inst.L.dims, counted(calls, "L", inst.L.field), inst.L.structure)
        monkeypatch.setattr(calculus, "lift_d1", counted(calls, "lift_d1", calculus.lift_d1))
        deco = electrodynamics_decompose(L, inst.h)
        assert len(deco.jets) == 8
        assert calls == {"L": evaluations, "lift_d1": lifts}


class TestDecomposition:
    def test_roundtrip_frozen_instance(self):
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        g = [[ExpressionField("1 + t1^2", d), constant(0.0)],
             [constant(0.0), constant(1.0)]]
        u = [[ExpressionField("t1*x2", d), constant(0.0)],
             [constant(0.0), ExpressionField("x1", d)]]
        f = ExpressionField("t1 + x1", d)
        L = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g, u, f))
        deco = electrodynamics_decompose(L, h)
        assert deco.reassembly_residual <= 1e-8
        pt = zero_velocity_point((0.5, -0.2), (0.3, 0.7), d)
        gm = deco.g_field(pt)
        jet = deco.jet_at(pt)
        assert gm[0][0] == pytest.approx(1.25)
        assert jet.u[0][0] == pytest.approx(0.5 * 0.7)
        assert jet.f == pytest.approx(0.5 + 0.3)

    def test_expression_kind_matches_family(self):
        # the same Lagrangian written as one expression decomposes to the
        # same fields as the builtin family
        d = Dims(2, 2)
        h = TemporalMetric.flat(2)
        src = ("(1 + t1^2)*(v1_1*v1_1 + v1_2*v1_2) + v2_1*v2_1 + v2_2*v2_2"
               " + t1*x2*v1_1 + x1*v2_2 + t1 + x1")
        L = expression_lagrangian(src, d)
        deco = electrodynamics_decompose(L, h)
        assert deco.reassembly_residual <= 1e-8
        pt = zero_velocity_point((0.5, -0.2), (0.3, 0.7), d)
        gm = deco.g_field(pt)
        jet = deco.jet_at(pt)
        assert gm[0][0] == pytest.approx(1.25, abs=1e-9)
        assert gm[0][1] == pytest.approx(0.0, abs=1e-9)
        assert jet.u[0][0] == pytest.approx(0.35, abs=1e-9)
        assert jet.f == pytest.approx(0.8, abs=1e-9)

    def test_expression_trace_is_symmetric_and_is_g(self):
        # L = h^{ab} g_ij v^i_a v^j_b written out term by term, with g_12 and
        # g_21 summed in opposite orders, so the mixed Hessian entries differ
        # in the last bits.  For p >= 2 the (i, j) and (j, i) sums of the
        # h-trace would run in different orders; the trace computes each
        # unordered pair once, so it is symmetric bit for bit where |h_12|
        # is large too, and the decomposition's g is that trace
        h = [["1 + 0.3*t1^2", "0.2*t1*t2"], ["0.2*t1*t2", "1 + 0.4*t2^2"]]
        det = "((1 + 0.3*t1^2)*(1 + 0.4*t2^2) - (0.2*t1*t2)^2)"
        hinv = [[f"(1 + 0.4*t2^2)/{det}", f"-0.2*t1*t2/{det}"],
                [f"-0.2*t1*t2/{det}", f"(1 + 0.3*t1^2)/{det}"]]
        g12 = ["0.7", "0.35*x1", "0.3*x2", "0.2*x1*x2", "0.1*x1^2", "0.15*x2^2"]
        g = [[["1 + x1^2"], g12], [g12[::-1], ["2 + x2^2"]]]
        src = " + ".join(f"{hinv[a][b]}*({term})*v{i + 1}_{a + 1}*v{j + 1}_{b + 1}"
                         for a in range(2) for b in range(2) for i in range(2)
                         for j in range(2) for term in g[i][j])
        inst = assemble({
            "dims": {"p": 2, "n": 2},
            "lagrangian": {"kind": "expression", "expression": src},
            "temporal_metric": {"kind": "expression", "entries": h, "signature": [2, 0]},
        })
        deco = electrodynamics_decompose(inst.L, inst.h)
        for pt in sample_points(inst.dims, [-3.0, 3.0], 200, seed=0):
            trace = g_from_hessian(inst.L, inst.h, zero_velocity_point(pt.t, pt.x, inst.dims))
            assert repr(trace[0][1]) == repr(trace[1][0])
            assert repr(deco.g_field(pt)) == repr(trace)

    def test_pure_kinetic_has_no_linear_or_constant_part(self):
        inst = corpus_instance("harmonic", 2, 2)
        deco = electrodynamics_decompose(inst.L, inst.h)
        assert all(abs(jet.f) <= 1e-12 for jet in deco.jets)
        assert all(abs(e) <= 1e-12 for jet in deco.jets for row in jet.u for e in row)

    def test_u_curl_antisymmetric(self):
        inst = corpus_instance("non_autonomous", 2, 3)
        deco = electrodynamics_decompose(inst.L, inst.h)
        for curl in (jet.u_curl for jet in deco.jets):
            for i in range(3):
                for a in range(2):
                    for j in range(3):
                        assert curl[i][a][j] == pytest.approx(-curl[j][a][i], abs=1e-10)

    @pytest.mark.parametrize("p", [2, 3])
    def test_u_curl_matches_per_entry_partials_bitwise(self, p):
        inst = corpus_instance("non_autonomous", p, 3, count=4)
        deco = electrodynamics_decompose(inst.L, inst.h)
        for pt in _curl_probe_points(inst.dims, seed=p):
            assert repr(deco.jet_at(pt).u_curl) == repr(u_curl_per_entry(deco, pt))

    def test_u_curl_matches_per_entry_partials_bitwise_generic(self):
        # the generic decomposition, whose U is a vertical gradient of L
        d = Dims(2, 2)
        src = ("(1 + t1^2)*(v1_1*v1_1 + v1_2*v1_2) + v2_1*v2_1 + v2_2*v2_2"
               " + t1*x2*v1_1 + x1^2*v2_2 + t1 + x1")
        deco = electrodynamics_decompose(expression_lagrangian(src, d),
                                         TemporalMetric.flat(2))
        for pt in _curl_probe_points(d, seed=5):
            curl = deco.jet_at(pt).u_curl
            assert repr(curl) == repr(u_curl_per_entry(deco, pt))
        assert abs(scalar_value(curl[0][0][1])) > 0.0  # dU^1_1/dx^2 = t1

    def test_u_curl_evaluates_u_once_per_x_direction(self):
        n = 3
        inst = corpus_instance("non_autonomous", 2, n, count=4)
        deco = electrodynamics_decompose(inst.L, inst.h)
        potentials = deco.potentials
        calls = []

        def counted(pt):
            calls.append(pt)
            return potentials(pt)

        deco.potentials = counted
        deco.jet_at(sample_points(inst.dims, None, 1, seed=4)[0])
        assert len(calls) == 1  # one lift over all n x directions (and every t)

    def test_non_quadratic_rejected(self):
        d = Dims(2, 1)
        h = TemporalMetric.flat(2)
        L = expression_lagrangian("v1_1^2 + v1_2^2 + 0.1*v1_1^4", d)
        with pytest.raises(DecompositionError):
            electrodynamics_decompose(L, h)

    def test_a_decomposition_error_carries_its_residual(self):
        d = Dims(2, 1)
        L = expression_lagrangian("v1_1^2 + v1_2^2 + 0.1*v1_1^4", d)
        with pytest.raises(DecompositionError) as raised:
            electrodynamics_decompose(L, TemporalMetric.flat(2))
        residual = raised.value.residual
        assert residual > REASSEMBLY_TOL
        assert str(raised.value).startswith(f"reassembly residual {residual:.3e} exceeds")

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


@pytest.mark.parametrize("args, expect", [
    ((0.0, 1.0, 3.0, 2.0), 3.0),
    ((0.0, math.nan, 1.0), math.nan),
    ((0.0, 1.0, math.nan), math.nan),
    ((math.nan, 2.0), math.nan),
])
def test_nan_max_keeps_a_nan(args, expect):
    got = nan_max(*args)
    assert got == expect or (math.isnan(got) and math.isnan(expect))
