"""Extremal integration, lattice residuals, action values."""

import argparse
import math
import random

import numpy as np
import pytest

from jetlag import cli, connection, extremal, metric_engine, regularity
from jetlag.config import assemble
from jetlag.errors import DegeneracyError, DimensionError, StencilError
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
from jetlag.jet_core import Dims, JetPoint
from jetlag.metric_engine import TemporalMetric
from jetlag.regularity import hessian_blocks
from jetlag.scalars import scalar_value

from conftest import (
    KINDS,
    corpus_instance,
    counted,
    extremal_job_config,
    lattice_job_config,
    sphere_config,
    temporal_metric_of,
)
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


class _EndsAt:
    """L on t <= t_last; beyond it every evaluation raises a
    DegeneracyError, which aborts the extremal at the first stage there."""

    def __init__(self, L, t_last):
        self.L, self.dims, self.t_last = L, L.dims, t_last

    def __call__(self, point):
        if scalar_value(point.t[0]) > self.t_last:
            raise DegeneracyError(f"L ends at t = {self.t_last}")
        return self.L(point)


def fresh_el_residuals(L, h, traj):
    """The max-norm Euler-Lagrange residual at every interior sample of
    ``traj`` from a spray assembled afresh there, whose vertical blocks are
    replaced by a velocity-only ``hessian_blocks`` evaluation at the
    sample."""
    ts, xs, ys = traj.t.tolist(), traj.x.tolist(), traj.y.tolist()
    dt = ts[1] - ts[0]
    out = []
    for k in range(1, len(ts) - 1):
        point = JetPoint((ts[k],), xs[k], [[yi] for yi in ys[k]])
        xab = [[[(up - dn) / (2.0 * dt)]] for up, dn in zip(ys[k + 1], ys[k - 1])]
        data = connection.spray_data(L, h, point)
        data = data._replace(blocks=hessian_blocks(L, point).blocks)
        out.append(float(np.max(np.abs(connection.euler_lagrange_residual(point, xab, data)))))
    return np.array(out)


class TestResidualsReadTheStageSpray:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bitwise_a_fresh_spray_per_sample(self, kind, n):
        inst = corpus_instance(kind, 1, n)
        traj = integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=0.1, x0=(0.3, -0.2, 0.1)[:n], y0=(0.5, 0.4, -0.6)[:n],
            t_end=0.16, dt=0.01))
        assert not traj.aborted and len(traj.el_residuals) == 5
        assert traj.el_residuals.tobytes() == fresh_el_residuals(inst.L, inst.h, traj).tobytes()

    @pytest.mark.parametrize("t_last, t_abort", [(0.0525, "0.055"), (0.0575, "0.06")])
    def test_bitwise_after_an_abort_inside_a_step(self, t_last, t_abort):
        # the sixth step aborts in its second (t = 0.055) or fourth (t = 0.06)
        # stage, after its first stage assembled the spray at the last sample
        inst = corpus_instance("non_autonomous", 1, 2)
        L = _EndsAt(inst.L, t_last)
        traj = integrate_extremal(ExtremalProblem(
            L=L, h=inst.h, t0=0.0, x0=(0.3, -0.2), y0=(0.5, 0.4), t_end=1.0, dt=0.01))
        assert traj.aborted and traj.abort_reason.endswith(f"at step 6, t={t_abort}")
        assert len(traj.t) == 6 and len(traj.el_residuals) == 4
        assert traj.el_residuals.tobytes() == fresh_el_residuals(L, inst.h, traj).tobytes()


def _stub_spray(monkeypatch, **fields):
    """Make the extremal's sprays give ``fields`` (name -> function of the
    assembled value) in place of what they assembled."""
    assemble_spray = extremal.spray_data

    def stubbed(L, h, point):
        data = assemble_spray(L, h, point)
        return data._replace(**{name: f(getattr(data, name)) for name, f in fields.items()})

    monkeypatch.setattr(extremal, "spray_data", stubbed)


class TestResidualGate:
    @staticmethod
    def short_job():
        inst = assemble(extremal_job_config())
        return integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=0.0, x0=(0.1, -0.2, 0.3), y0=(0.5, 0.4, -0.6),
            t_end=0.1, dt=0.01))

    @staticmethod
    def one_dim(lagrangian, x0, y0, t_end, dt):
        """An n = 1 extremal under a flat h, with the instance it ran on."""
        inst = assemble({
            "dims": {"p": 1, "n": 1}, "lagrangian": lagrangian,
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
            "solver": {"t_end": t_end, "dt": dt, "initial": {"t": 0.0, "x": [x0], "y": [y0]}},
        })
        return inst, integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=0.0, x0=(x0,), y0=(y0,), t_end=t_end, dt=dt))

    @pytest.mark.parametrize("w, steps", [(3, 30), (4, 1)])
    def test_an_oscillator_trips_the_gate_once_its_rate_times_dt_nears_the_limit(self, w, steps):
        # x'' = -w^2 x reads r ~ (w dt)^2 / 12 at its turning points: about
        # 0.0075 for w dt = 0.3, under the bound, and 0.0135 for w dt = 0.4
        traj = self.one_dim({"kind": "expression", "expression": f"v1_1^2 - {w * w}*x1^2"},
                            x0=1.0, y0=0.0, t_end=3.0, dt=0.1)[1]
        assert len(traj.t) == steps + 1
        if steps == 30:
            assert not traj.aborted
        else:
            assert traj.abort_reason == ("relative Euler-Lagrange residual 1.351e-02 at t=0.1 "
                                         "exceeds 0.01 at step 2, t=0.2")

    def test_the_residuals_after_a_gate_abort_are_those_of_the_printed_samples(self):
        inst, traj = self.one_dim({"kind": "harmonic", "g_entries": [["x1"]]},
                                  x0=0.3, y0=-1.0, t_end=3.0, dt=0.01)
        assert traj.aborted and traj.abort_reason.startswith("relative Euler-Lagrange residual")
        assert len(traj.t) == 16 and len(traj.el_residuals) == 14
        assert traj.el_residuals.tobytes() == fresh_el_residuals(inst.L, inst.h, traj).tobytes()

    def test_a_regular_extremal_at_a_coarse_dt_runs_to_the_end(self):
        cfg = extremal_job_config()
        cfg["solver"]["dt"] = 0.05
        inst = assemble(cfg)
        sol = inst.solver
        traj = integrate_extremal(ExtremalProblem(
            L=inst.L, h=inst.h, t0=sol["t0"], x0=sol["x0"], y0=sol["y0"],
            t_end=sol["t_end"], dt=sol["dt"]))
        assert not traj.aborted and len(traj.t) == 13
        assert len(traj.el_residuals) == 11

    def test_a_nan_residual_aborts(self, monkeypatch):
        # the bracket feeds the residual only: the accelerations stay finite
        _stub_spray(monkeypatch, bracket=lambda b: [math.nan] * len(b))
        traj = self.short_job()
        assert traj.aborted and len(traj.t) == 2
        assert traj.abort_reason == ("relative Euler-Lagrange residual nan at t=0.01 exceeds "
                                     "0.01 at step 2, t=0.02")

    def test_a_signature_change_aborts(self, monkeypatch):
        # from the sixth spray on, the second stage of step 2, g reads as
        # negative definite
        calls = []

        def flipped(inertia):
            calls.append(inertia)
            return inertia if len(calls) <= 5 else inertia[::-1]

        _stub_spray(monkeypatch, inertia=flipped)
        traj = self.short_job()
        assert traj.aborted and len(traj.t) == 2
        assert traj.abort_reason == ("DegeneracyError: signature of g changed from (3, 0) "
                                     "to (0, 3) at step 2, t=0.015")

    def test_a_non_finite_acceleration_aborts(self, monkeypatch):
        _stub_spray(monkeypatch, g_vec=lambda g: [math.inf] * len(g))
        traj = self.short_job()
        assert traj.aborted and len(traj.t) == 1
        assert traj.abort_reason.startswith("FloatingPointError: acceleration is not finite")


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


def _count_h_work(monkeypatch, h):
    """Count, from now on, the evaluations of ``h`` and every symmetric
    factorization (of h and of g), in a dict."""
    counts = {"h": 0, "factorizations": 0}
    monkeypatch.setattr(h, "matrix", counted(counts, "h", h.matrix))
    factor = counted(counts, "factorizations", metric_engine.checked_inverse)
    for module in (metric_engine, connection, regularity):
        monkeypatch.setattr(module, "checked_inverse", factor)
    return counts


class TestWorkPerStage:
    def test_a_stage_evaluates_h_once_and_a_second_stage_at_its_t_not_at_all(self, monkeypatch):
        # p = 1 with t-dependent h.  On a fresh metric, L's Taylor2 lift
        # evaluates h and factorizes it inside the spray's one evaluation of
        # L, h_christoffel_values reads h's matrix, inverse and t-partials
        # from that kept evaluation, and g is factorized once.  A second
        # stage at the same t (RK4's stages 2 and 3) finds h kept, so only
        # its g is factorized.
        inst = corpus_instance("non_autonomous", 1, 3)
        assert not inst.h.constant
        counts = _count_h_work(monkeypatch, inst.h)
        extremal._acceleration(inst.L, inst.h, 0.3, np.array([0.1, -0.2, 0.3]),
                               np.array([0.4, 0.2, -0.3]))
        assert counts == {"h": 1, "factorizations": 2}
        counts.update(h=0, factorizations=0)
        extremal._acceleration(inst.L, inst.h, 0.3, np.array([0.2, -0.1, 0.3]),
                               np.array([0.3, 0.2, -0.1]))
        assert counts == {"h": 0, "factorizations": 1}


def _stage_ts(t0, t_end, dt):
    """The t of every RK4 stage of ``integrate_extremal``, in order, by its
    own arithmetic."""
    span = t_end - t0
    steps = max(1, round(abs(span) / dt))
    dt = span / steps
    out, t = [], t0
    for k in range(steps):
        out += [t, t + 0.5 * dt, t + 0.5 * dt, t + dt]
        t = t0 + (k + 1) * dt
    return out


class TestWorkPerJob:
    """h evaluations and factorizations of one job shaped like the
    benchmark's: each distinct t in a row evaluates and factorizes h once,
    and each spray factorizes its g once."""

    def test_extremal_job(self, monkeypatch):
        config = extremal_job_config()
        inst = assemble(config)
        counts = _count_h_work(monkeypatch, inst.h)
        assert cli.cmd_extremal(inst, argparse.Namespace(out=None)) == 0
        ts = _stage_ts(0.0, config["solver"]["t_end"], config["solver"]["dt"])
        # stages 2 and 3 share t + dt/2; stage 4's t + dt is the next
        # step's t bitwise in 47 of the 59 steps that have one
        runs = 1 + sum(a.hex() != b.hex() for a, b in zip(ts, ts[1:]))
        assert (len(ts), runs) == (240, 133)
        assert counts == {"h": runs, "factorizations": runs + len(ts)}

    def test_lattice_job(self, monkeypatch):
        inst = assemble(lattice_job_config())
        counts = _count_h_work(monkeypatch, inst.h)
        assert cli.cmd_residual(inst, argparse.Namespace(out=None)) == 0
        # one spray at each of the 7 x 7 interior nodes, each at its own t
        assert counts == {"h": 49, "factorizations": 2 * 49}
