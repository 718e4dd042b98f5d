"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances and runtime budgets are pinned here; nothing is deferred to
later calibration.  Criterion numbering matches the project contract.
"""

import math
import random
import string
import time

import numpy as np

from jetlag import dsl
from jetlag.cartan import berwald_connection, cartan_connection, metric_compatibility
from jetlag.config import assemble
from jetlag.connection import spray_entities
from jetlag.curvature import curvature_table, table_zero_audit, torsion_table
from jetlag.calculus import fd_crosscheck, v_coord, x_coord
from jetlag.errors import DslError
from jetlag.extremal import ExtremalProblem, GridMap, harmonic_residual, integrate_extremal
from jetlag.fields import ElectrodynamicsLagrangian, ExpressionField, LagrangianModel
from jetlag.jet_core import Dims
from jetlag.metric_engine import TemporalMetric, g_christoffel_values
from jetlag.regularity import electrodynamics_decompose, kronecker_test, sample_points
from jetlag.scalars import scalar_value

from conftest import (
    CORPUS_DIMS,
    KINDS,
    corpus_instance,
    d2,
    quartic_config,
    spatial_metric_of,
    sphere_config,
    tables_at,
    temporal_metric_of,
)
from oracles import constant, expression_lagrangian, failures
from test_dsl import random_ast
from test_extremal import sphere_geodesic_oracle


def report(number, description, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: PASS - {description}{stamp}")


def build_geometry(inst):
    deco = electrodynamics_decompose(inst.L, inst.h) if inst.dims.p >= 2 else None
    pack = cartan_connection(inst.L, inst.h, decomposition=deco)
    return deco, pack


def test_criterion_1_regularity_corpus():
    start = time.monotonic()
    worst = 0.0
    for kind in KINDS:
        for (p, n) in CORPUS_DIMS:
            inst = corpus_instance(kind, p, n)
            verdict = kronecker_test(inst.L, inst.h, inst.sampling["box"],
                                     K=inst.sampling["count"], tol=1e-6,
                                     seed=inst.seed)
            assert verdict.is_kronecker, (kind, p, n, verdict.diagnostics)
            assert verdict.max_block_residual <= 1e-6
            worst = max(worst, verdict.max_block_residual)
    quartic = assemble(quartic_config(count=16))
    bad = kronecker_test(quartic.L, quartic.h, quartic.sampling["box"], K=16, seed=0)
    assert not bad.is_kronecker
    elapsed = time.monotonic() - start
    assert elapsed <= 5.0, f"criterion 1 runtime {elapsed:.2f}s exceeds 5s"
    report(1, f"27-instance corpus block-regular (worst residual {worst:.2e}), "
              "quartic counterexample rejected", elapsed)


def test_criterion_2_characterization_randomized():
    start = time.monotonic()
    rng = random.Random(2024)
    for trial in range(20):
        p = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        dims = Dims(p, n)
        # random electrodynamics instance written out as one expression
        terms = []
        gdiag = [round(rng.uniform(0.5, 2.0), 3) for _ in range(n)]
        for i in range(n):
            coeff = f"({gdiag[i]} + 0.3*x{i + 1}^2 + 0.2*t1^2)"
            for a in range(p):
                terms.append(f"{coeff}*v{i + 1}_{a + 1}^2")
        for i in range(n):
            for a in range(p):
                c = round(rng.uniform(-0.5, 0.5), 3)
                terms.append(f"{c}*t{a + 1}*x{i + 1}*v{i + 1}_{a + 1}")
        terms.append(f"{round(rng.uniform(-1, 1), 3)}*t1 + 0.5*x1^2")
        L = expression_lagrangian(" + ".join(terms), dims)
        h = TemporalMetric.flat(p)
        verdict = kronecker_test(L, h, None, K=8, tol=1e-6, seed=trial)
        assert verdict.is_kronecker, (trial, verdict.diagnostics)
        assert not verdict.velocity_dependent_g
        deco = electrodynamics_decompose(L, h, seed=trial)
        assert deco.reassembly_residual <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"criterion 2 runtime {elapsed:.2f}s exceeds 10s"
    report(2, "20 randomized p>=2 electrodynamics instances pass regularity and "
              "reassemble to <= 1e-8", elapsed)


def test_criterion_3_h_trace_identity():
    start = time.monotonic()
    worst = 0.0
    for kind in KINDS:
        for (p, n) in CORPUS_DIMS:
            inst = corpus_instance(kind, p, n)
            deco = electrodynamics_decompose(inst.L, inst.h) if p >= 2 else None
            pts = sample_points(inst.dims, [-1, 1], 32, seed=3)
            for pt in pts:
                pack = spray_entities(inst.L, inst.h, pt, None if deco is None else deco.jet_at(pt))
                hinv = [[scalar_value(e) for e in row]
                        for row in inst.h.inverse_at(pt.t)]
                for l in range(n):
                    acc = sum(hinv[a][b] * pack.G_spatial.get((l, a), b)
                              for a in range(p) for b in range(p))
                    worst = max(worst, abs(acc - pack.Gc[l]))
    assert worst <= 1e-8, worst
    report(3, f"h-trace identity G^l = h^ab G^(l)_(a)b at 32 points per "
              f"instance (worst {worst:.2e})", time.monotonic() - start)


def test_criterion_4_metric_compatibility():
    start = time.monotonic()
    worst = 0.0
    for kind in KINDS:
        for (p, n) in CORPUS_DIMS:
            inst = corpus_instance(kind, p, n)
            deco, pack = build_geometry(inst)
            pts = sample_points(inst.dims, [-1, 1], 32, seed=4)
            for pt in pts:
                worst = max(worst, max(metric_compatibility(pack, pt, pack.coefficients_at(pt)).values()))
    assert worst <= 1e-7, worst
    report(4, f"all six Cartan metric-compatibility tensors <= 1e-7 over the "
              f"corpus (worst {worst:.2e})", time.monotonic() - start)


def test_criterion_5_zero_audits():
    start = time.monotonic()
    worst = 0.0
    for kind in KINDS:
        for p in (1, 2, 3):
            inst = corpus_instance(kind, p, 2)
            deco, pack = build_geometry(inst)
            pts = sample_points(inst.dims, [-1, 1], 2, seed=5)
            audit = table_zero_audit(pack, tables_at(pack, pts))
            assert audit.passed, (kind, p, "cartan", audit.worst_cell, audit.worst)
            worst = max(worst, audit.worst)
            if inst.L.structure is not None and kind != "non_autonomous":
                bw = berwald_connection(inst.h, inst.L.structure.g_matrix, inst.dims)
                audit_b = table_zero_audit(bw, tables_at(bw, pts))
                assert audit_b.passed, (kind, p, "berwald", audit_b.worst_cell)
                worst = max(worst, audit_b.worst)
    # autonomous electrodynamics: only the three R-families survive in the
    # torsion table and only tt_t/mm_m in the curvature table
    inst = corpus_instance("autonomous", 2, 2)
    deco, pack = build_geometry(inst)
    pt = sample_points(inst.dims, [-1, 1], 1, seed=6)[0]
    tor = torsion_table(pack, pt)
    for cell in ("mt_m", "mm_m", "vt_v", "vm_m", "vm_v", "vv_v"):
        assert tor.families()[cell].max_abs() <= 1e-7, cell
    cur = curvature_table(tor)
    for cell in ("tt_m", "mt_m", "vt_m", "vm_m", "vv_m"):
        assert cur.families()[cell].max_abs() <= 1e-7, cell
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"criterion 5 runtime {elapsed:.2f}s exceeds 10s"
    report(5, f"torsion/curvature zero audits <= 1e-7 (worst {worst:.2e}), "
              "autonomous instances reduce to the R-families", elapsed)


def test_criterion_6_classical_reduction():
    start = time.monotonic()
    inst = assemble(sphere_config(dt=1e-3))
    deco, pack = build_geometry(inst)
    gs = spatial_metric_of([
        [constant(1.0), constant(0.0)],
        [constant(0.0), ExpressionField("sin(x1)^2", inst.dims)]])
    # N equals gamma^i_{jk} y^k
    worst_n = 0.0
    for pt in sample_points(inst.dims, inst.sampling["box"], 8, seed=61):
        gamma = g_christoffel_values(gs, pt)
        nval = pack.coefficients_at(pt).n
        for i in range(2):
            for j in range(2):
                expect = sum(scalar_value(gamma[i][j][k]) * pt.v[k][0] for k in range(2))
                worst_n = max(worst_n, abs(scalar_value(nval[i][0][j]) - expect))
    assert worst_n <= 1e-8, worst_n
    # Cartan pack equals Levi-Civita data
    worst_pack = 0.0
    for pt in sample_points(inst.dims, inst.sampling["box"], 4, seed=62):
        co = pack.coefficients_at(pt)
        gamma = g_christoffel_values(gs, pt)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    worst_pack = max(worst_pack, abs(
                        scalar_value(co.l[i][j][k]) - scalar_value(gamma[i][j][k])))
        worst_pack = max(worst_pack, np.max(np.abs(np.array(co.g, dtype=float))))
        worst_pack = max(worst_pack, np.max(np.abs(np.array(co.c, dtype=float))))
    assert worst_pack <= 1e-9, worst_pack
    # integrated extremal vs the independent geodesic oracle
    x0, y0 = (1.1, 0.3), (0.2, 0.8)
    traj = integrate_extremal(ExtremalProblem(
        L=inst.L, h=inst.h, t0=0.0, x0=x0, y0=y0, t_end=1.0, dt=1e-3))
    oracle_x, _ = sphere_geodesic_oracle(x0, y0, 1.0, 1e-3)
    dev = float(np.max(np.abs(traj.x[-1] - oracle_x)))
    assert dev <= 1e-6, dev
    elapsed = time.monotonic() - start
    assert elapsed <= 5.0, f"criterion 6 runtime {elapsed:.2f}s exceeds 5s"
    report(6, f"classical reduction: N = gamma*y ({worst_n:.1e}), Cartan = "
              f"Levi-Civita ({worst_pack:.1e}), geodesic match {dev:.1e}", elapsed)


def _el_corpus():
    """Six p = 1 instances for extremal integration."""
    flat1 = Dims(1, 1)
    flat2 = Dims(1, 2)
    h_flat = TemporalMetric.flat(1)
    h_exp = temporal_metric_of([[ExpressionField("exp(2*t1)", flat1)]], (1, 0))
    out = []
    out.append(("flat-line", expression_lagrangian("v1_1^2 + v2_1^2", flat2),
                h_flat, (0.0, 0.0), (1.0, 2.0)))
    sphere = assemble(sphere_config())
    out.append(("sphere", sphere.L, sphere.h, (1.1, 0.3), (0.2, 0.8)))
    out.append(("exp-h", LagrangianModel.from_family(
        ElectrodynamicsLagrangian(flat1, h_exp, [[constant(1.0)]])),
        h_exp, (0.5,), (1.0,)))
    out.append(("oscillator", expression_lagrangian("v1_1^2 - x1^2", flat1),
                h_flat, (0.0,), (1.0,)))
    out.append(("time-dependent-g", expression_lagrangian(
        "(1 + 0.3*t1^2 + 0.3*x1^2)*v1_1^2", flat1), h_flat, (0.3,), (0.8,)))
    out.append(("velocity-dependent", expression_lagrangian(
        "v1_1^2 + 0.1*v1_1^4", flat1), h_flat, (0.2,), (0.9,)))
    return out


def test_criterion_7_euler_lagrange_consistency():
    start = time.monotonic()
    worst = 0.0
    for name, L, h, x0, y0 in _el_corpus():
        traj = integrate_extremal(ExtremalProblem(
            L=L, h=h, t0=0.0, x0=x0, y0=y0, t_end=1.0, dt=1e-3))
        assert not traj.aborted, name
        assert traj.max_el_residual <= 1e-6, (name, traj.max_el_residual)
        worst = max(worst, traj.max_el_residual)
    # RK4 order on the two closed-form cases
    orders = []
    flat1 = Dims(1, 1)
    h_exp = temporal_metric_of([[ExpressionField("exp(2*t1)", flat1)]], (1, 0))
    L_exp = LagrangianModel.from_family(
        ElectrodynamicsLagrangian(flat1, h_exp, [[constant(1.0)]]))
    exact_exp = 0.5 + (math.e - 1.0)
    L_osc = expression_lagrangian("v1_1^2 - x1^2", flat1)
    h_flat = TemporalMetric.flat(1)
    exact_osc = math.sin(1.0)
    for L, h, x0, y0, exact in (
        (L_exp, h_exp, 0.5, 1.0, exact_exp),
        (L_osc, h_flat, 0.0, 1.0, exact_osc),
    ):
        errors = []
        for dt in (0.05, 0.025):
            traj = integrate_extremal(ExtremalProblem(
                L=L, h=h, t0=0.0, x0=(x0,), y0=(y0,), t_end=1.0, dt=dt))
            errors.append(abs(traj.x[-1][0] - exact))
        orders.append(math.log2(errors[0] / errors[1]))
    assert all(o >= 3.8 for o in orders), orders
    report(7, f"EL residual <= 1e-6 along 6 integrated extremals "
              f"(worst {worst:.1e}); RK4 orders {['%.2f' % o for o in orders]}",
           time.monotonic() - start)


def test_criterion_8_harmonic_residual_convergence():
    start = time.monotonic()
    d = Dims(2, 2)
    h = TemporalMetric.flat(2)
    flat_g = [[constant(1.0), constant(0.0)],
              [constant(0.0), constant(1.0)]]
    L_flat = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, flat_g))
    sphere_g = [[constant(1.0), constant(0.0)],
                [constant(0.0), ExpressionField("sin(x1)^2", d)]]
    L_sphere = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, sphere_g))

    # affine map in the flat instance: exactly harmonic, residual at
    # truncation level (machine zero) on every grid
    affine = []
    for m in (9, 17, 33, 65):
        grid = GridMap.from_function(
            d, [(0, 1), (0, 1)], (m, m),
            lambda ts: [0.3 * ts[0] + 0.1 * ts[1] + 0.2, -0.5 * ts[0] + 0.7 * ts[1]])
        affine.append(harmonic_residual(L_flat, h, grid).rms)
    assert all(r <= 1e-10 for r in affine), affine
    for k in range(3):
        assert affine[k + 1] <= affine[k] / 3.5 + 1e-12

    # equatorial harmonic sheet into the sphere: nonzero truncation error,
    # second-order decay
    sheet = []
    for m in (9, 17, 33, 65):
        grid = GridMap.from_function(
            d, [(0, 1), (0, 1)], (m, m),
            lambda ts: [math.pi / 2, np.sin(ts[0]) * np.sinh(ts[1])])
        sheet.append(harmonic_residual(L_sphere, h, grid).rms)
    ratios = [sheet[k] / sheet[k + 1] for k in range(3)]
    assert all(r >= 3.5 for r in ratios), ratios
    report(8, f"lattice residual decays by {['%.2f' % r for r in ratios]} per "
              "halving on the sphere sheet; affine map at machine zero",
           time.monotonic() - start)


def test_criterion_9_ad_fd_crosscheck():
    start = time.monotonic()
    worst_rel = 0.0
    worst_sym = 0.0
    for kind in KINDS:
        for (p, n) in CORPUS_DIMS:
            inst = corpus_instance(kind, p, n)
            pts = sample_points(inst.dims, [-1, 1], 2, seed=9)
            for pt in pts:
                rep = fd_crosscheck(inst.L, pt, inst.dims, 1e-5)
                assert rep.passed, (kind, p, n, [f.coords for f in failures(rep)])
                worst_rel = max(worst_rel, rep.max_rel_discrepancy)
                for i in range(n):
                    for a in range(p):
                        one = d2(inst.L, pt, x_coord(i), v_coord(i, a))
                        two = d2(inst.L, pt, v_coord(i, a), x_coord(i))
                        scale = max(abs(one), abs(two), 1e-30)
                        worst_sym = max(worst_sym, abs(one - two) / scale)
    assert worst_rel <= 1e-5, worst_rel
    assert worst_sym <= 1e-9, worst_sym
    report(9, f"AD/FD max relative discrepancy {worst_rel:.2e} <= 1e-5; "
              f"mixed-partial symmetry {worst_sym:.1e} <= 1e-9",
           time.monotonic() - start)


def test_criterion_10_parser_robustness():
    start = time.monotonic()
    rng = random.Random(10_000)
    alphabet = string.printable
    dims = Dims(2, 2)
    for _ in range(10_000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 32)))
        try:
            dsl.parse(source, dims)
        except DslError:
            pass
    for _ in range(1000):
        ast = random_ast(rng, dims, depth=rng.randrange(1, 5))
        assert dsl.parse(dsl.format_ast(ast), dims) == ast
    report(10, "10^4 fuzz inputs parse-or-diagnose without crashing; 10^3 "
               "random ASTs survive format/parse round-trip",
           time.monotonic() - start)
