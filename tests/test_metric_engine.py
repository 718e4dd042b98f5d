"""Metric inverses, Christoffel symbols, curvature tensors."""

import math
import random

import numpy as np
import pytest

from jetlag.errors import DegeneracyError
from jetlag.fields import ExpressionField, constant_field
from jetlag.jet_core import Dims, JetPoint
from jetlag.metric_engine import (
    TemporalMetric,
    checked_inverse,
    g_christoffel_values,
    g_curvature_values,
    h_christoffel_values,
    h_curvature_values,
    jacobi_eigenvalues,
    signature_of,
)
from jetlag.regularity import electrodynamics_decompose, sample_points

from conftest import corpus_instance, spatial_metric_of, temporal_metric_of


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
        H = np.array(h_christoffel_values(h, (0.3, -0.2, 0.9)))
        assert np.max(np.abs(H)) == 0.0

    def test_exponential_p1(self):
        h = tmetric(1, [["exp(2*t1)"]], (1, 0))
        for t in (-0.5, 0.0, 1.2):
            H = np.array(h_christoffel_values(h, (t,)))
            assert H[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_diag_p2_frozen(self):
        h = tmetric(2, [["1", "0"], ["0", "t1^2"]], (2, 0))
        H = np.array(h_christoffel_values(h, (2.0, 0.3)))
        assert H[1, 0, 1] == pytest.approx(0.5)   # H^2_12
        assert H[0, 1, 1] == pytest.approx(-2.0)  # H^1_22
        nonzero = {(1, 0, 1), (1, 1, 0), (0, 1, 1)}
        for idx in np.ndindex(2, 2, 2):
            if idx not in nonzero:
                assert H[idx] == pytest.approx(0.0, abs=1e-14)

    def test_matches_fd_oracle(self):
        h = tmetric(2, [["1 + t2^2", "0.2*t1"], ["0.2*t1", "2 + sin(t1)"]], (2, 0))
        ts = (0.4, -0.7)
        H = np.array(h_christoffel_values(h, ts))
        oracle = fd_h_christoffel(h, ts)
        assert np.allclose(H, oracle, atol=1e-8)

    def test_symmetry(self):
        h = tmetric(2, [["1 + t2^2", "0.2*t1"], ["0.2*t1", "2 + sin(t1)"]], (2, 0))
        H = np.array(h_christoffel_values(h, (0.4, -0.7)))
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
            H = np.array(h_christoffel_values(h, ts))
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
        # once at the point for the inverse and once per x-lift for the
        # partials: 1 + n matrices, each one evaluation of g_field
        n = 3
        inst = corpus_instance("non_autonomous", 2, n, count=4)
        deco = electrodynamics_decompose(inst.L, inst.h)
        assert deco.metric.matrix is deco.g_field
        calls = []

        def counted(pt):
            calls.append(pt)
            return deco.g_field(pt)

        deco.metric.matrix = counted
        pt = sample_points(inst.dims, None, 1, seed=3)[0]
        g_christoffel_values(deco.metric, pt)
        assert len(calls) == 1 + n

    def test_flat_curvature_zero(self):
        g = smetric(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        pt = JetPoint((0.0,), (0.1, 0.2, 0.3), ((0.0,), (0.0,), (0.0,)))
        assert np.max(np.abs(g_curvature_values(g, pt))) == 0.0


class TestInversion:
    def test_identity(self):
        assert np.allclose(checked_inverse(np.eye(3).tolist()), np.eye(3))

    def test_diагonal_frozen(self):
        out = np.array(checked_inverse(np.diag([2.0, -3.0]).tolist()))
        assert np.allclose(out, np.diag([0.5, -1.0 / 3.0]))

    def test_random_symmetric_roundtrip(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.uniform(-1, 1, (3, 3))
            m = a @ a.T + 3.0 * np.eye(3)  # well conditioned
            inv = np.array(checked_inverse(m.tolist()))
            assert np.max(np.abs(inv @ m - np.eye(3))) <= 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError) as err:
            checked_inverse([[1.0, 1.0], [1.0, 1.0]])
        assert err.value.det == pytest.approx(0.0, abs=1e-15)


class TestSignature:
    def test_jacobi_eigenvalues(self):
        m = [[2.0, 1.0], [1.0, 2.0]]
        eigs = jacobi_eigenvalues(m)
        assert eigs == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_signature(self):
        assert signature_of([[2.0, 0.0], [0.0, -3.0]]) == (1, 1)
        assert signature_of(np.eye(3)) == (3, 0)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(DegeneracyError):
            signature_of([[1.0, 1.0], [1.0, 1.0]])

    def test_declared_signature_validated(self):
        h = tmetric(1, [["exp(2*t1)"]], (0, 1))  # deliberately wrong
        report = h.validate_samples([(-0.5,), (0.0,), (0.5,)])
        assert not report["ok"]

    def test_asymmetric_entries_warn_and_average(self):
        dims = Dims(1, 2)
        g = spatial_metric_of([
            [constant_field(1.0), constant_field(0.30000001)],
            [constant_field(0.3), constant_field(2.0)],
        ])
        with pytest.warns(UserWarning):
            m = g.matrix_at(JetPoint((0.0,), (0.0, 0.0), ((0.0,), (0.0,))))
        assert m[0][1] == pytest.approx(0.300000005)
        assert m[0][1] == m[1][0]
