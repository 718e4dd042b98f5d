"""Extremal integration, lattice residuals, action values."""

import math
import random

import numpy as np
import pytest

from jetlag import connection, extremal, metric_engine
from jetlag.config import assemble
from jetlag.errors import DimensionError, StencilError
from jetlag.extremal import (
    ExtremalProblem,
    GridMap,
    Trajectory,
    harmonic_residual,
    integrate_extremal,
)
from jetlag.fields import (
    ElectrodynamicsLagrangian,
    ExpressionField,
    LagrangianModel,
)
from jetlag.jet_core import Dims
from jetlag.metric_engine import TemporalMetric

from conftest import corpus_instance, sphere_config, temporal_metric_of
from oracles import action_value, constant


def flat_metric_model(n, h=None):
    d = Dims(1, n)
    h = h or TemporalMetric.flat(1)
    g = [[constant(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    return LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g)), h


def sphere_geodesic_oracle(x0, y0, t_end, dt):
    """Independent RK4 for x'' = -gamma(x)(x', x') with the sphere chart
    Christoffels hardcoded."""

    def acc(x, y):
        th = x[0]
        s, c = math.sin(th), math.cos(th)
        return np.array([
            s * c * y[1] * y[1],
            -2.0 * (c / s) * y[0] * y[1],
        ])

    steps = round(t_end / dt)
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    for _ in range(steps):
        k1x, k1y = y, acc(x, y)
        k2x, k2y = y + 0.5 * dt * k1y, acc(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y)
        k3x, k3y = y + 0.5 * dt * k2y, acc(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y)
        k4x, k4y = y + dt * k3y, acc(x + dt * k3x, y + dt * k3y)
        x = x + (dt / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
        y = y + (dt / 6) * (k1y + 2 * k2y + 2 * k3y + k4y)
    return x, y


class TestIntegration:
    def test_straight_lines_flat(self):
        L, h = flat_metric_model(2)
        traj = integrate_extremal(ExtremalProblem(
            L=L, h=h, t0=0.0, x0=(0.0, 0.0), y0=(1.0, 2.0), t_end=1.0, dt=1e-2))
        assert np.allclose(traj.x[-1], [1.0, 2.0], atol=1e-12)
        # reference: x(t) = t * y0 at every recorded step
        for k, t in enumerate(traj.t):
            assert np.allclose(traj.x[k], [t, 2 * t], atol=1e-12)

    def test_exponential_h_closed_form(self):
        # h_11 = e^{2t} (so H^1_11 = 1), flat g: x'' = x'
        d = Dims(1, 2)
        h = temporal_metric_of([[ExpressionField("exp(2*t1)", d)]], (1, 0))
        L, _ = flat_metric_model(2, h)
        x0, y0 = (0.5, -0.2), (1.0, 0.5)
        traj = integrate_extremal(ExtremalProblem(
            L=L, h=h, t0=0.0, x0=x0, y0=y0, t_end=1.0, dt=1e-3))
        exact = np.array(x0) + np.array(y0) * (math.e - 1.0)
        assert np.max(np.abs(traj.x[-1] - exact)) <= 1e-9

    def test_rk4_convergence_order(self):
        d = Dims(1, 1)
        h = temporal_metric_of([[ExpressionField("exp(2*t1)", d)]], (1, 0))
        L, _ = flat_metric_model(1, h)
        exact = 0.5 + 1.0 * (math.e - 1.0)
        errors = []
        for dt in (0.05, 0.025, 0.0125):
            traj = integrate_extremal(ExtremalProblem(
                L=L, h=h, t0=0.0, x0=(0.5,), y0=(1.0,), t_end=1.0, dt=dt))
            errors.append(abs(traj.x[-1][0] - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(o >= 3.8 for o in orders), orders

    def test_charged_particle_in_uniform_magnetic_field(self):
        # L = |y|^2 + U.y with U = (B/2)(-x2, x1): the Euler-Lagrange
        # equations d/dt(2y + U) = grad(U.y) give 2y' = B (y2, -y1), so y
        # turns clockwise at omega = B/2 and x circles the centre
        # c = x0 + J y0/omega (J = [[0, 1], [-1, 0]]) at radius |y0|/omega,
        # with period 2 pi/omega.  The only velocity-linear term is U, so
        # this reaches the spray's x-v second partials.
        B = 3.0
        omega = B / 2.0
        inst = assemble({
            "dims": {"p": 1, "n": 2},
            "lagrangian": {"kind": "electrodynamics", "g_entries": [["1", "0"], ["0", "1"]],
                           "U_entries": [[f"-{B / 2}*x2"], [f"{B / 2}*x1"]]},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 8, "seed": 0},
        })
        x0, y0 = np.array([0.2, 0.1]), np.array([0.6, -0.8])
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        centre = x0 + J @ y0 / omega
        radius = np.linalg.norm(y0) / omega
        period = 2.0 * math.pi / omega

        def closed_form(t):
            y = math.cos(omega * t) * y0 + math.sin(omega * t) * (J @ y0)
            return centre - J @ y / omega, y

        # RK4 on a rotation lags in phase by (omega dt)^5/120 a step, so by
        # 2 pi (omega dt)^4/120 = 3.2e-5 over a period of 40 steps
        tol = 5e-5
        errors = []
        for steps in (40, 80):
            traj = integrate_extremal(ExtremalProblem(
                L=inst.L, h=inst.h, t0=0.0, x0=tuple(x0), y0=tuple(y0),
                t_end=period, dt=period / steps))
            assert not traj.aborted and len(traj.t) == steps + 1
            err = 0.0
            for t, x, y in zip(traj.t, traj.x, traj.y):
                cx, cy = closed_form(t)
                err = max(err, np.max(np.abs(x - cx)), np.max(np.abs(y - cy)))
            errors.append(err)
            assert np.max(np.abs(np.linalg.norm(traj.x - centre, axis=1) - radius)) <= tol
            # one period brings the particle back to where it started
            assert np.max(np.abs(traj.x[-1] - x0)) <= tol
            assert np.max(np.abs(traj.y[-1] - y0)) <= tol
        assert errors[0] <= tol
        assert math.log2(errors[0] / errors[1]) >= 3.8, errors

    def test_sphere_vs_independent_oracle(self):
        inst = assemble(sphere_config(dt=1e-3))
        sol = inst.solver
        traj = integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=sol["t0"], x0=sol["x0"], y0=sol["y0"],
            t_end=sol["t_end"], dt=sol["dt"]))
        # non-trivial start: tilt off the equator
        x0, y0 = (1.1, 0.3), (0.2, 0.8)
        traj2 = integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=0.0, x0=x0, y0=y0, t_end=1.0, dt=1e-3))
        ox, _ = sphere_geodesic_oracle(x0, y0, 1.0, 1e-3)
        assert np.max(np.abs(traj2.x[-1] - ox)) <= 1e-6
        # equator start stays a great circle
        assert np.allclose(traj.x[-1], [math.pi / 2, 1.0], atol=1e-9)

    def test_el_residual_along_trajectory(self):
        inst = assemble(sphere_config(dt=1e-3))
        traj = integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=0.0, x0=(1.1, 0.3), y0=(0.2, 0.8),
            t_end=1.0, dt=1e-3))
        assert traj.max_el_residual <= 1e-6

    def test_backward_span_vs_independent_oracle(self):
        # t_end before t0: dt keeps the sign of the span, so the run takes
        # |span|/dt steps backwards instead of one step across the span
        inst = assemble(sphere_config(dt=1e-3))
        x0, y0 = (1.1, 0.3), (0.2, 0.8)
        traj = integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=0.0, x0=x0, y0=y0, t_end=-0.5, dt=1e-3))
        assert not traj.aborted and len(traj.t) == 501
        assert traj.t[-1] == pytest.approx(-0.5, abs=1e-12)
        ox, oy = sphere_geodesic_oracle(x0, y0, -0.5, -1e-3)
        assert np.max(np.abs(traj.x[-1] - ox)) <= 1e-6
        assert np.max(np.abs(traj.y[-1] - oy)) <= 1e-6
        assert math.isfinite(traj.max_el_residual)
        assert traj.max_el_residual <= 1e-6

    def test_degeneracy_aborts_with_state(self):
        from jetlag.errors import DegeneracyError

        d = Dims(1, 1)
        h = TemporalMetric.flat(1)

        def guarded(pt):
            from jetlag.scalars import scalar_value

            if scalar_value(pt.x[0]) >= 0.5:
                raise DegeneracyError("metric patch ends at x1 = 0.5", det=0.0)
            return 1.0

        g = [[guarded]]
        L = LagrangianModel.from_family(ElectrodynamicsLagrangian(d, h, g))
        traj = integrate_extremal(ExtremalProblem(
            L=L, h=h, t0=0.0, x0=(0.0,), y0=(1.0,), t_end=2.0, dt=1e-2))
        assert traj.aborted
        assert 2 <= len(traj.t) < 60  # stopped near x = 0.5, kept valid states
        assert "0.5" in traj.abort_reason

    def test_bad_dt_rejected(self):
        L, h = flat_metric_model(1)
        with pytest.raises(DimensionError):
            ExtremalProblem(L=L, h=h, t0=0.0, x0=(0.0,), y0=(1.0,), t_end=1.0, dt=0.0)


class TestHarmonicResidual:
    def setup_method(self):
        self.d = Dims(2, 2)
        self.h = TemporalMetric.flat(2)
        g = [[constant(1.0), constant(0.0)],
             [constant(0.0), constant(1.0)]]
        self.L_flat = LagrangianModel.from_family(
            ElectrodynamicsLagrangian(self.d, self.h, g))
        gs = [[constant(1.0), constant(0.0)],
              [constant(0.0), ExpressionField("sin(x1)^2", self.d)]]
        self.L_sphere = LagrangianModel.from_family(
            ElectrodynamicsLagrangian(self.d, self.h, gs))

    def test_affine_map_truncation_exact(self):
        grid = GridMap.from_function(
            self.d, [(0, 1), (0, 1)], (9, 9),
            lambda ts: [0.3 * ts[0] + 0.1 * ts[1] + 0.2, -0.5 * ts[0] + 0.7 * ts[1]])
        rf = harmonic_residual(self.L_flat, self.h, grid)
        assert rf.max_norm <= 1e-12

    def test_laplace_sheet_second_order(self):
        norms = []
        for m in (9, 17, 33):
            grid = GridMap.from_function(
                self.d, [(0, 1), (0, 1)], (m, m),
                lambda ts: [math.pi / 2, np.sin(ts[0]) * np.sinh(ts[1])])
            rf = harmonic_residual(self.L_sphere, self.h, grid)
            norms.append(rf.rms)
        ratios = [norms[i] / norms[i + 1] for i in range(2)]
        assert all(r >= 3.5 for r in ratios), ratios

    def test_non_harmonic_map_separates(self):
        grid_good = GridMap.from_function(
            self.d, [(0, 1), (0, 1)], (17, 17),
            lambda ts: [math.pi / 2, np.sin(ts[0]) * np.sinh(ts[1])])
        good = harmonic_residual(self.L_sphere, self.h, grid_good).max_norm
        grid_bad = GridMap.from_function(
            self.d, [(0, 1), (0, 1)], (17, 17),
            lambda ts: [math.pi / 2 + 0.3 * ts[0] ** 2, np.sin(3 * ts[0]) + ts[1] ** 3])
        bad = harmonic_residual(self.L_sphere, self.h, grid_bad).max_norm
        assert bad >= 10 * good

    def test_constant_entry_is_broadcast(self):
        box, shape = [(0.0, 1.0), (-1.0, 2.0)], (5, 7)
        grid = GridMap.from_function(self.d, box, shape, lambda ts: [0.25, ts[0] * ts[1]])
        for idx in np.ndindex(shape):
            t0, t1 = (lo + k * (hi - lo) / (s - 1) for (lo, hi), s, k in zip(box, shape, idx))
            assert grid.values[idx].tolist() == [0.25, t0 * t1]

    def test_small_grid_rejected(self):
        with pytest.raises(StencilError):
            GridMap.from_function(self.d, [(0, 1), (0, 1)], (4, 9), lambda ts: [0.0, 0.0])

    def test_p1_rejected(self):
        inst = assemble(sphere_config())
        grid = GridMap.from_function(Dims(2, 2), [(0, 1), (0, 1)], (5, 5),
                                     lambda ts: [1.0, 1.0])
        with pytest.raises(DimensionError):
            harmonic_residual(inst.L, inst.h, grid)


def _node_differences(grid, idx):
    """x_a and x_ab at one interior node, node by node: each read from the
    node's own neighbours."""
    p, n = grid.dims.p, grid.dims.n
    v, sp = grid.values, grid.spacing

    def moved(*steps):
        out = list(idx)
        for axis, step in steps:
            out[axis] += step
        return v[tuple(out)]

    first = np.zeros((n, p))
    second = np.zeros((n, p, p))
    for a in range(p):
        up, dn = moved((a, 1)), moved((a, -1))
        first[:, a] = (up - dn) / (2.0 * sp[a])
        second[:, a, a] = (up - 2.0 * v[idx] + dn) / (sp[a] ** 2)
    for a in range(p):
        for b in range(a + 1, p):
            pp, pm = moved((a, 1), (b, 1)), moved((a, 1), (b, -1))
            mp, mm = moved((a, -1), (b, 1)), moved((a, -1), (b, -1))
            mixed = (pp - pm - mp + mm) / (4.0 * sp[a] * sp[b])
            second[:, a, b] = mixed
            second[:, b, a] = mixed
    return v[idx].tolist(), first.tolist(), second.tolist()


class TestCentralDifferences:
    """The whole-lattice differences are bitwise those of each node alone."""

    @pytest.mark.parametrize("p, n, shape", [(2, 3, (5, 5)), (2, 2, (6, 9)), (3, 2, (5, 6, 7))])
    def test_bitwise_node_by_node(self, p, n, shape):
        rng = np.random.default_rng(sum(shape))
        values = rng.standard_normal(shape + (n,)) * 10.0 ** rng.integers(-3, 4, shape + (n,))
        values[(1,) * p] = 0.0  # exact zeros, whose sign a difference must keep
        grid = GridMap(Dims(p, n), [(-1.0, 0.5 + a) for a in range(p)], shape, values)
        nodes = list(zip(*extremal._central_differences(grid)))
        indices = list(grid.interior_indices())
        assert len(nodes) == len(indices)
        for idx, node in zip(indices, nodes):
            assert repr(node) == repr(_node_differences(grid, idx)), idx


class TestAction:
    def test_unit_speed_line(self):
        L, h = flat_metric_model(1)
        traj = integrate_extremal(ExtremalProblem(
            L=L, h=h, t0=0.0, x0=(0.0,), y0=(1.0,), t_end=1.0, dt=1e-2))
        assert action_value(L, h, traj) == pytest.approx(1.0, abs=1e-12)

    def test_kinetic_scaling(self):
        L, h = flat_metric_model(1)
        a1 = action_value(L, h, integrate_extremal(ExtremalProblem(
            L=L, h=h, t0=0.0, x0=(0.0,), y0=(1.0,), t_end=1.0, dt=1e-2)))
        a2 = action_value(L, h, integrate_extremal(ExtremalProblem(
            L=L, h=h, t0=0.0, x0=(0.0,), y0=(2.0,), t_end=1.0, dt=1e-2)))
        assert a2 == pytest.approx(4.0 * a1, rel=1e-12)

    def test_first_variation_vanishes(self):
        # perturbing an extremal by eps*phi changes the action at O(eps^2)
        inst = assemble(sphere_config())
        base = integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=0.0, x0=(1.1, 0.3), y0=(0.2, 0.8),
            t_end=1.0, dt=1e-3))
        s0 = action_value(inst.L, inst.h, base)

        def perturbed_action(eps):
            phi = np.sin(np.pi * base.t) ** 2   # compactly supported in (0,1)
            dphi = 2 * np.pi * np.sin(np.pi * base.t) * np.cos(np.pi * base.t)
            x = base.x + eps * np.stack([phi, -0.5 * phi], axis=1)
            y = base.y + eps * np.stack([dphi, -0.5 * dphi], axis=1)
            traj = Trajectory(t=base.t, x=x, y=y)
            return action_value(inst.L, inst.h, traj)

        d3 = perturbed_action(1e-3) - s0
        d4 = perturbed_action(1e-4) - s0
        # quadratic: shrinking eps by 10 shrinks the change by ~100
        assert abs(d4) <= abs(d3) / 30.0
        assert abs(d3) <= 5e-4  # no O(eps) term of size ~eps*scale

    def test_action_minimality_against_perturbations(self):
        inst = assemble(sphere_config())
        base = integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=0.0, x0=(1.1, 0.3), y0=(0.2, 0.8),
            t_end=1.0, dt=2e-3))
        s0 = action_value(inst.L, inst.h, base)
        rng = random.Random(17)
        for _ in range(50):
            eps = rng.uniform(0.01, 0.1)
            k = rng.randrange(1, 4)
            phi = np.sin(k * np.pi * base.t)
            dphi = k * np.pi * np.cos(k * np.pi * base.t)
            w = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            x = base.x + eps * np.outer(phi, w)
            y = base.y + eps * np.outer(dphi, w)
            traj = Trajectory(t=base.t, x=x, y=y)
            assert action_value(inst.L, inst.h, traj) >= s0 - 1e-10


class TestWorkPerStage:
    def test_one_stage_evaluates_h_twice_and_factorizes_three_times(self, monkeypatch):
        # p = 1 with t-dependent h: L's Taylor2 lift inverts h inside the
        # spray's one evaluation (h once, factorization once);
        # h_christoffel_values lifts h over t once, whose value is h's
        # matrix, and factorizes it once for the inverse; g is factorized
        # once
        inst = corpus_instance("non_autonomous", 1, 3)
        assert not inst.h.constant
        counts = {"h": 0, "factorizations": 0}
        matrix, factor = inst.h.matrix, metric_engine.checked_inverse

        def counted_matrix(ts):
            counts["h"] += 1
            return matrix(ts)

        def counted_factor(rows):
            counts["factorizations"] += 1
            return factor(rows)

        monkeypatch.setattr(inst.h, "matrix", counted_matrix)
        for module in (metric_engine, connection):
            monkeypatch.setattr(module, "checked_inverse", counted_factor)
        extremal._acceleration(inst.L, inst.h, 0.3, np.array([0.1, -0.2, 0.3]),
                               np.array([0.4, 0.2, -0.3]))
        assert counts == {"h": 2, "factorizations": 3}
