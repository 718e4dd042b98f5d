"""Metric inverses, Christoffel symbols, curvature tensors."""

import json
import math
import random

import numpy as np
import pytest

from jetlag.calculus import all_coords, lift_d1, lift_taylor, t_coord, x_coord
from jetlag import verify
from jetlag.cli import run
from jetlag.config import assemble
from jetlag.errors import DegeneracyError
from jetlag.fields import ExpressionField
from jetlag.jet_core import Dims, JetPoint
from jetlag.scalars import Dual
from jetlag.metric_engine import (
    TemporalMetric,
    checked_inverse,
    g_christoffel_values,
    h_christoffel_values,
)
from jetlag.regularity import electrodynamics_decompose, sample_points

from conftest import corpus_instance, spatial_metric_of, temporal_metric_of
from oracles import g_curvature_values, h_curvature_values


def tmetric(p, entries_src, signature):
    dims = Dims(p, 1)
    return temporal_metric_of(
        [[ExpressionField(src, dims) for src in row] for row in entries_src], signature)


def smetric(n, entries_src, p=1):
    dims = Dims(p, n)
    return spatial_metric_of([[ExpressionField(src, dims) for src in row] for row in entries_src])


def fd_h_christoffel(h: TemporalMetric, ts, step=1e-6):
    """Oracle: Christoffels from FD derivatives of the metric matrix."""
    p = h.p

    def mat(t):
        return np.array([[float(e) for e in row] for row in h.matrix_at(t)])

    hinv = np.linalg.inv(mat(ts))
    dh = []
    for a in range(p):
        up = list(ts)
        dn = list(ts)
        up[a] += step
        dn[a] -= step
        dh.append((mat(tuple(up)) - mat(tuple(dn))) / (2 * step))
    out = np.zeros((p, p, p))
    for c in range(p):
        for a in range(p):
            for b in range(p):
                out[c, a, b] = 0.5 * sum(
                    hinv[c, m] * (dh[a][m, b] + dh[b][m, a] - dh[m][a, b])
                    for m in range(p)
                )
    return out


class TestTemporal:
    def test_flat_is_zero(self):
        h = TemporalMetric.flat(3)
        H = np.array(h_christoffel_values(h, (0.3, -0.2, 0.9))[2])
        assert np.max(np.abs(H)) == 0.0

    def test_exponential_p1(self):
        h = tmetric(1, [["exp(2*t1)"]], (1, 0))
        for t in (-0.5, 0.0, 1.2):
            H = np.array(h_christoffel_values(h, (t,))[2])
            assert H[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_diag_p2_frozen(self):
        h = tmetric(2, [["1", "0"], ["0", "t1^2"]], (2, 0))
        H = np.array(h_christoffel_values(h, (2.0, 0.3))[2])
        assert H[1, 0, 1] == pytest.approx(0.5)   # H^2_12
        assert H[0, 1, 1] == pytest.approx(-2.0)  # H^1_22
        nonzero = {(1, 0, 1), (1, 1, 0), (0, 1, 1)}
        for idx in np.ndindex(2, 2, 2):
            if idx not in nonzero:
                assert H[idx] == pytest.approx(0.0, abs=1e-14)

    def test_matches_fd_oracle(self):
        h = tmetric(2, [["1 + t2^2", "0.2*t1"], ["0.2*t1", "2 + sin(t1)"]], (2, 0))
        ts = (0.4, -0.7)
        H = np.array(h_christoffel_values(h, ts)[2])
        oracle = fd_h_christoffel(h, ts)
        assert np.allclose(H, oracle, atol=1e-8)

    def test_symmetry(self):
        h = tmetric(2, [["1 + t2^2", "0.2*t1"], ["0.2*t1", "2 + sin(t1)"]], (2, 0))
        H = np.array(h_christoffel_values(h, (0.4, -0.7))[2])
        for c in range(2):
            for a in range(2):
                for b in range(2):
                    assert H[c, a, b] == pytest.approx(H[c, b, a], abs=1e-9)

    def test_metric_compatibility_identity(self):
        # d_a h_bc = h_mc H^m_ba + h_bm H^m_ca
        h = tmetric(2, [["1 + t2^2", "0.2*t1"], ["0.2*t1", "2 + sin(t1)"]], (2, 0))
        rng = random.Random(4)
        for _ in range(5):
            ts = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            H = np.array(h_christoffel_values(h, ts)[2])
            hm = np.array([[float(e) for e in row] for row in h.matrix_at(ts)])
            step = 1e-6
            for a in range(2):
                up, dn = list(ts), list(ts)
                up[a] += step
                dn[a] -= step
                dh = (np.array([[float(e) for e in r] for r in h.matrix_at(tuple(up))])
                      - np.array([[float(e) for e in r] for r in h.matrix_at(tuple(dn))])) / (2 * step)
                for b in range(2):
                    for c in range(2):
                        rhs = sum(hm[m, c] * H[m, b, a] + hm[b, m] * H[m, c, a]
                                  for m in range(2))
                        assert dh[b, c] == pytest.approx(rhs, abs=1e-8)


class TestTemporalCurvature:
    def test_p1_identically_zero(self):
        h = tmetric(1, [["exp(2*t1)"]], (1, 0))
        assert np.max(np.abs(h_curvature_values(h, (0.7,)))) == 0.0

    def test_flat_zero(self):
        h = TemporalMetric.flat(3)
        assert np.max(np.abs(h_curvature_values(h, (0.1, 0.2, 0.3)))) == 0.0

    def test_sin_squared_frozen(self):
        h = tmetric(2, [["1", "0"], ["0", "sin(t1)^2"]], (2, 0))
        t0 = (0.7, 0.1)
        Hc = np.array(h_curvature_values(h, t0))
        # frozen by the defining formula: H^1_{2,2,1} = sin^2(t1)
        assert Hc[0, 1, 1, 0] == pytest.approx(math.sin(0.7) ** 2, abs=1e-10)
        assert Hc[0, 1, 0, 1] == pytest.approx(-math.sin(0.7) ** 2, abs=1e-10)

    def test_antisymmetry_and_fd_route(self):
        h = tmetric(2, [["1 + t2^2", "0.2*t1"], ["0.2*t1", "2 + sin(t1)"]], (2, 0))
        ts = (0.3, 0.8)
        Hc = np.array(h_curvature_values(h, ts))
        for idx in np.ndindex(2, 2, 2, 2):
            c, m, a, b = idx
            assert Hc[c, m, a, b] == pytest.approx(-Hc[c, m, b, a], abs=1e-9)
        # independent oracle: same defining formula with FD derivatives of H
        # (outer step well above the inner FD step so noise stays bounded)
        step = 1e-4
        for c in range(2):
            for m in range(2):
                val = Hc[c, m, 0, 1]
                up, dn = (ts[0], ts[1] + step), (ts[0], ts[1] - step)
                dHb = (fd_h_christoffel(h, up) - fd_h_christoffel(h, dn)) / (2 * step)
                up, dn = (ts[0] + step, ts[1]), (ts[0] - step, ts[1])
                dHa = (fd_h_christoffel(h, up) - fd_h_christoffel(h, dn)) / (2 * step)
                H0 = fd_h_christoffel(h, ts)
                oracle = dHb[c, m, 0] - dHa[c, m, 1] + sum(
                    H0[e, m, 0] * H0[c, e, 1] - H0[e, m, 1] * H0[c, e, 0]
                    for e in range(2))
                assert val == pytest.approx(oracle, abs=2e-5)


class TestSpatial:
    def test_identity_zero(self):
        g = smetric(2, [["1", "0"], ["0", "1"]])
        pt = JetPoint((0.0,), (0.5, -0.4), ((0.0,), (0.0,)))
        assert np.max(np.abs(g_christoffel_values(g, pt))) == 0.0

    def test_sphere_chart_frozen(self):
        g = smetric(2, [["1", "0"], ["0", "sin(x1)^2"]])
        pt = JetPoint((0.0,), (0.8, 0.3), ((0.0,), (0.0,)))
        G = np.array(g_christoffel_values(g, pt))
        assert G[0, 1, 1] == pytest.approx(-math.sin(0.8) * math.cos(0.8))
        assert G[1, 0, 1] == pytest.approx(math.cos(0.8) / math.sin(0.8))
        assert G[1, 1, 0] == pytest.approx(math.cos(0.8) / math.sin(0.8))

    def test_time_only_dependence_vanishes(self):
        g = smetric(2, [["1 + t1^2", "0"], ["0", "1"]])
        pt = JetPoint((0.7,), (0.5, -0.4), ((0.0,), (0.0,)))
        assert np.max(np.abs(g_christoffel_values(g, pt))) == 0.0

    def test_sphere_curvature_frozen(self):
        g = smetric(2, [["1", "0"], ["0", "sin(x1)^2"]])
        pt = JetPoint((0.0,), (0.8, 0.3), ((0.0,), (0.0,)))
        r = np.array(g_curvature_values(g, pt))
        # defining-order component r^1_{2,2,1} = +sin^2(x1)
        assert r[0, 1, 1, 0] == pytest.approx(math.sin(0.8) ** 2, abs=1e-10)
        assert r[0, 1, 0, 1] == pytest.approx(-math.sin(0.8) ** 2, abs=1e-10)

    def test_sphere_sectional_curvature_plus_one(self):
        # classical oracle: R^1_212 = +sin^2, K = R_1212 / det(g) = 1
        g = smetric(2, [["1", "0"], ["0", "sin(x1)^2"]])
        th = 0.8
        pt = JetPoint((0.0,), (th, 0.3), ((0.0,), (0.0,)))
        r = np.array(g_curvature_values(g, pt))
        # classical R^m_{pij} = -r^m_{pij} (defining order)
        classical_R_1_212 = -r[0, 1, 0, 1]
        K = 1.0 * classical_R_1_212 / (math.sin(th) ** 2)
        assert K == pytest.approx(1.0, abs=1e-10)

    def test_curvature_antisymmetry_and_n1_zero(self):
        g = smetric(2, [["1 + x1^2", "0.2"], ["0.2", "1 + x2^2"]])
        pt = JetPoint((0.0,), (0.4, -0.6), ((0.0,), (0.0,)))
        r = np.array(g_curvature_values(g, pt))
        for idx in np.ndindex(2, 2, 2, 2):
            m, p_, i, j = idx
            assert r[m, p_, i, j] == pytest.approx(-r[m, p_, j, i], abs=1e-9)
        g1 = smetric(1, [["1 + x1^2"]])
        pt1 = JetPoint((0.0,), (0.4,), ((0.0,),))
        assert np.max(np.abs(g_curvature_values(g1, pt1))) == 0.0

    def test_christoffels_evaluate_the_metric_once_per_lift(self):
        # once, on the lift over every x: its value gives the inverse and its
        # partials the derivatives
        n = 3
        inst = corpus_instance("non_autonomous", 2, n, count=4)
        deco = electrodynamics_decompose(inst.L, inst.h)
        calls = []

        def counted(pt):
            calls.append(pt)
            return deco.g_field(pt)

        pt = sample_points(inst.dims, None, 1, seed=3)[0]
        g_christoffel_values(counted, pt)
        assert len(calls) == 1

    def test_flat_curvature_zero(self):
        g = smetric(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        pt = JetPoint((0.0,), (0.1, 0.2, 0.3), ((0.0,), (0.0,), (0.0,)))
        assert np.max(np.abs(g_curvature_values(g, pt))) == 0.0


class TestInversion:
    def test_identity(self):
        assert np.allclose(checked_inverse(np.eye(3).tolist()).inverse, np.eye(3))

    def test_diагonal_frozen(self):
        out = np.array(checked_inverse(np.diag([2.0, -3.0]).tolist()).inverse)
        assert np.allclose(out, np.diag([0.5, -1.0 / 3.0]))

    def test_random_symmetric_roundtrip(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.uniform(-1, 1, (3, 3))
            m = a @ a.T + 3.0 * np.eye(3)  # well conditioned
            inv = np.array(checked_inverse(m.tolist()).inverse)
            assert np.max(np.abs(inv @ m - np.eye(3))) <= 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError) as err:
            checked_inverse([[1.0, 1.0], [1.0, 1.0]])
        assert err.value.det == pytest.approx(0.0, abs=1e-15)

    def test_structural_zeros_stay_floats_under_a_lifted_pivot(self):
        # a diagonal, t-dependent h: its inverse keeps plain 0.0 off the
        # diagonal, so the Lagrangian's h^{ab} = 0 terms are skipped
        inst = corpus_instance("non_autonomous", 3, 2)
        pt = sample_points(inst.dims, None, 1, seed=5)[0]
        coords = [t_coord(a) for a in range(3)]
        for q in (lift_d1(pt, coords), lift_taylor(pt, all_coords(inst.dims))):
            inv = inst.h.inverse_at(q.t)
            for a in range(3):
                for b in range(3):
                    if a != b:
                        assert type(inv[a][b]) is float and inv[a][b] == 0.0
            assert repr(inv[2][2]) == repr(1.0 / inst.h.matrix_at(q.t)[2][2])


def _symmetric_samples(seed=7, per_dim=10):
    """Random symmetric matrices, n = 1..4, condition number below 1e3; half
    of those with n >= 2 have a zero diagonal, which forces a 2x2 pivot."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, 5):
        while sum(len(m) == n for m in out) < per_dim:
            a = rng.uniform(-1.0, 1.0, (n, n))
            a = a + a.T
            if n >= 2 and len(out) % 2:
                np.fill_diagonal(a, 0.0)
            if np.linalg.cond(a) < 1e3:
                out.append(a)
    return out


class TestSymmetricFactor:
    @pytest.mark.parametrize("a", _symmetric_samples(), ids=lambda a: f"n{len(a)}")
    def test_against_numpy(self, a):
        fac = checked_inverse(a.tolist())
        eigs = np.linalg.eigvalsh(a)
        assert fac.inertia == (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)))
        assert fac.det == pytest.approx(np.linalg.det(a), rel=1e-12)
        assert np.max(np.abs(a @ np.array(fac.inverse) - np.eye(len(a)))) <= 1e-12

    def test_zero_diagonal_takes_a_2x2_pivot(self):
        fac = checked_inverse([[0.0, 1.0], [1.0, 0.0]])
        assert fac.inverse == [[0.0, 1.0], [1.0, 0.0]]
        assert (fac.det, fac.inertia) == (-1.0, (1, 1))

    def test_dual_inverse_derivative(self):
        # d(A^-1) = -A^-1 (dA) A^-1 along two directions at once, relative
        # to the largest entry
        rng = np.random.default_rng(3)
        for a in _symmetric_samples(seed=11, per_dim=5):
            n = len(a)
            da = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2)]
            da = [d + d.T for d in da]
            lifted = [[Dual(a[i][j], [d[i][j] for d in da]) for j in range(n)] for i in range(n)]
            inv = checked_inverse(lifted).inverse
            ainv = np.linalg.inv(a)
            for s, d in enumerate(da):
                want = -ainv @ d @ ainv
                got = np.array([[inv[i][j].du[s] for j in range(n)] for i in range(n)])
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_singular_rejected_with_det_zero(self):
        with pytest.raises(DegeneracyError, match=r"degenerate metric \(det=0\.000e\+00\)") as err:
            checked_inverse([[1.0, 1.0], [1.0, 1.0]])
        assert err.value.det == 0.0

    def test_declared_signature_validated(self):
        h = tmetric(1, [["exp(2*t1)"]], (0, 1))  # deliberately wrong
        report = h.validate_samples([(-0.5,), (0.0,), (0.5,)])
        assert not report["ok"]

    def test_verify_passes_an_indefinite_h_with_zero_diagonal(self):
        inst = assemble({
            "dims": {"p": 2, "n": 1},
            "lagrangian": {"kind": "harmonic", "g_entries": [["1 + x1^2"]]},
            "temporal_metric": {"kind": "expression", "entries": [["0", "1"], ["1", "0"]],
                                "signature": [1, 1]},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
        })
        checks = {c.name: c for c in verify.run_checks(inst)}
        assert checks["temporal_metric_signature"].passed


class TestSymmetricAssembly:
    """``assemble`` makes g_entries and temporal_metric.entries symmetric by
    construction; metric evaluation mirrors the upper triangle."""

    @staticmethod
    def _config(g_entries, h_entries):
        return {
            "dims": {"p": 2, "n": len(g_entries)},
            "lagrangian": {"kind": "harmonic", "g_entries": g_entries},
            "temporal_metric": {"kind": "expression", "entries": h_entries,
                                "signature": [2, 0]},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
        }

    def test_identical_mirror_text_is_one_field_evaluated_once(self, monkeypatch, recwarn):
        g_src = [["1 + x1^2", "0.1*x3", "0"],
                 ["0.1*x3", "2 + x2^2", "0.2"],
                 ["0", "0.2", "3"]]
        inst = assemble(self._config(g_src, [["1 + t1^2", "0.2*t1*t2"],
                                             ["0.2*t1*t2", "1 + t2^2"]]))
        assert recwarn.list == []
        g_entries = inst.L.structure.g_entries
        for i in range(3):
            for j in range(3):
                assert g_entries[i][j] is g_entries[j][i]
        calls = []
        evaluate = ExpressionField.__call__

        def counted(field, point):
            calls.append(field)
            return evaluate(field, point)

        monkeypatch.setattr(ExpressionField, "__call__", counted)
        pt = sample_points(inst.dims, None, 1, seed=1)[0]
        g = inst.L.structure.g_matrix(pt)
        assert len(calls) == 3 * 4 // 2
        assert all(g[i][j] is g[j][i] for i in range(3) for j in range(3))
        del calls[:]
        h = inst.h.matrix_at(pt.t)
        assert len(calls) == 2 * 3 // 2
        assert h[0][1] is h[1][0]

    def test_asymmetric_entries_warn_and_average(self):
        g_src = [["1", "0.1000000001", "x1*x2"],
                 ["0.1", "2 + x2^2", "0"],
                 ["x2*x1", "0", "3"]]
        h_src = [["1 + t1^2", "0.2*t1"], ["0.2*t1 + 0", "1 + t2^2"]]
        with pytest.warns(UserWarning) as record:
            inst = assemble(self._config(g_src, h_src))
        messages = sorted(str(w.message) for w in record)
        assert len(messages) == 3
        assert all("asymmetric" in m for m in messages)
        assert "lagrangian.g_entries[0][1]" in messages[0]
        assert "lagrangian.g_entries[1][0]" in messages[0]
        assert "lagrangian.g_entries[0][2]" in messages[1]
        assert "lagrangian.g_entries[2][0]" in messages[1]
        assert "temporal_metric.entries[0][1]" in messages[2]
        assert "temporal_metric.entries[1][0]" in messages[2]

        dims = inst.dims
        pt = sample_points(dims, None, 1, seed=2)[0]
        lifted = lift_d1(pt, (x_coord(0),))
        g_entries = inst.L.structure.g_entries
        for (i, j) in ((0, 1), (0, 2)):
            assert g_entries[i][j] is g_entries[j][i]
            a, b = ExpressionField(g_src[i][j], dims), ExpressionField(g_src[j][i], dims)
            for q in (pt, lifted):
                assert repr(g_entries[i][j](q)) == repr((a(q) + b(q)) * 0.5)
        assert g_entries[0][1](pt) == pytest.approx(0.10000000005)
        a, b = ExpressionField(h_src[0][1], dims), ExpressionField(h_src[1][0], dims)
        h = inst.h.matrix_at(pt.t)
        assert repr(h[0][1]) == repr((a(pt) + b(pt)) * 0.5)
        assert h[0][1] is h[1][0]

    def test_analyze_warns_on_asymmetric_text(self, tmp_path, capsys):
        cfg = self._config([["1", "x1*x2"], ["x2*x1", "2"]],
                           [["1", "0"], ["0", "1"]])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.warns(UserWarning, match="asymmetric") as record:
            run(["analyze", "--config", str(path)])
        assert len(record) == 1
