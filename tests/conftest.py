"""Shared fixtures: the builtin Lagrangian corpus and small FD oracles."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from jetlag.calculus import (
    _ABS_FLOOR,
    FD_STEP_1,
    FD_STEP_2,
    Coord,
    CrosscheckEntry,
    CrosscheckReport,
    all_coords,
    field_jacobian,
    gradient_hessian,
    t_coord,
)
from jetlag.config import assemble
from jetlag.cartan import _g_block
from jetlag.connection import electrodynamics_n_values, pair_n_values
from jetlag.curvature import curvature_table, torsion_table
from jetlag.jet_core import JetPoint
from jetlag.metric_engine import TemporalMetric, checked_inverse, g_christoffel_values
from jetlag.scalars import hessian_pairs, nan_max

CORPUS_DIMS = [(p, n) for p in (1, 2, 3) for n in (1, 2, 3)]
KINDS = ("harmonic", "autonomous", "non_autonomous")


def _h_block(kind: str, p: int) -> dict:
    if kind == "harmonic":
        return {"kind": "flat"}
    if p == 1:
        entries = [["exp(2*t1)"]] if kind == "autonomous" else [["1 + t1^2"]]
        return {"kind": "expression", "entries": entries, "signature": [1, 0]}
    if p == 2:
        entries = [["1", "0"], ["0", "1 + t1^2"]]
        if kind == "non_autonomous":
            entries = [["1 + t2^2", "0"], ["0", "1 + t1^2"]]
        return {"kind": "expression", "entries": entries, "signature": [2, 0]}
    entries = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2 + sin(t1)"]]
    return {"kind": "expression", "entries": entries, "signature": [3, 0]}


def _g_entries(kind: str, n: int) -> list:
    time_dep = kind == "non_autonomous"
    diag = []
    for i in range(n):
        base = f"1 + x{i + 1}^2" if i < 9 else "1"
        if time_dep:
            base = f"1 + t1^2 + x{i + 1}^2"
        diag.append(base)
    out = [["0"] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = diag[i]
    if n >= 2:
        out[0][1] = out[1][0] = "0.2"
    return out


def _u_entries(n: int, p: int) -> list:
    out = []
    for i in range(n):
        row = []
        for a in range(p):
            row.append(f"0.3*t{a + 1}*x{i + 1}")
        out.append(row)
    return out


def corpus_config(kind: str, p: int, n: int, count: int = 16, seed: int = 0) -> dict:
    lag = {"kind": "harmonic" if kind == "harmonic" else "electrodynamics",
           "g_entries": _g_entries(kind, n)}
    if kind != "harmonic":
        lag["U_entries"] = _u_entries(n, p)
        lag["F"] = "t1 + x1"
    return {
        "dims": {"p": p, "n": n},
        "lagrangian": lag,
        "temporal_metric": _h_block(kind, p),
        "sampling": {"box": [-1.0, 1.0], "count": count, "seed": seed},
    }


def corpus_instance(kind: str, p: int, n: int, count: int = 16, seed: int = 0):
    return assemble(corpus_config(kind, p, n, count=count, seed=seed))


def potentials_config() -> dict:
    """A block-regular p = 2, n = 2 expression Lagrangian with
    velocity-linear terms, so the expression backend's U, its curl and the
    x- and t-partials of F are nonzero."""
    return {
        "dims": {"p": 2, "n": 2},
        "lagrangian": {
            "kind": "expression",
            "expression": "(1 + x2^2)*(v1_1^2/(1 + t1^2) + v1_2^2/2) + (2 + x1^2)*(v2_1^2/(1 + t1^2)"
                          " + v2_2^2/2) + exp(0.3*t1*x2)*v1_1 + log(2 + x1)*v2_2 + x1*x2/(2 + t2^2)",
        },
        "temporal_metric": {"kind": "expression", "entries": [["1 + t1^2", "0"], ["0", "2"]],
                            "signature": [2, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 1},
    }


def curled_potentials_config() -> dict:
    """A block-regular p = 3, n = 2 builtin electrodynamics Lagrangian whose
    g depends on t and has an off-diagonal entry and whose U^a_i depend on
    the other x, so all three terms of the canonical N (Gamma v, the G
    block and the potentials' term) are nonzero."""
    return {
        "dims": {"p": 3, "n": 2},
        "lagrangian": {
            "kind": "electrodynamics",
            "g_entries": [["1 + 0.2*t1^2 + 0.3*x2^2", "0.1 + 0.05*t2*x1"],
                          ["0.1 + 0.05*t2*x1", "1 + 0.1*t3^2 + 0.2*x1^2"]],
            "U_entries": [["0.3*t1*x2", "0.2*x2^2", "0.1*t3*x2"],
                          ["-0.2*t2*x1", "0.4*x1", "0.1*x1*x2"]],
            "F": "t1*x2 + x1",
        },
        "temporal_metric": {"kind": "expression",
                            "entries": [["1 + t1^2", "0", "0"], ["0", "2", "0"],
                                        ["0", "0", "2 + sin(t3)"]],
                            "signature": [3, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 3},
    }


def nan_lagrangian_config() -> dict:
    """A p = n = 1 Lagrangian that is NaN wherever x1 != 0 (inf - inf)
    but whose vertical Hessian is that of v1_1^2."""
    return {
        "dims": {"p": 1, "n": 1},
        "lagrangian": {"kind": "expression",
                       "expression": "v1_1^2 + 1e308*x1*1e10 - 1e308*x1*1e10"},
        "temporal_metric": {"kind": "flat"},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
    }


def nan_h_config() -> dict:
    """A p = n = 1 harmonic Lagrangian over a temporal metric that is NaN
    wherever t1 != 0 (inf - inf), declared (1, 0)."""
    return {
        "dims": {"p": 1, "n": 1},
        "lagrangian": {"kind": "harmonic", "g_entries": [["1 + x1^2"]]},
        "temporal_metric": {"kind": "expression",
                            "entries": [["1 + 1e308*t1*1e10 - 1e308*t1*1e10"]],
                            "signature": [1, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
    }


def quotient_h_config() -> dict:
    """A p = 1, n = 2 electrodynamics Lagrangian over a temporal metric that
    is a quotient, h = (2 + t1^2)/(1 + 0.5 t1^2), with a solver."""
    return {
        "dims": {"p": 1, "n": 2},
        "lagrangian": {"kind": "electrodynamics",
                       "g_entries": [["1 + 0.2*x1^2 + 0.1*t1^2", "0.1"],
                                     ["0.1", "1 + 0.3*x2^2"]],
                       "U_entries": [["0.2*t1*x2"], ["-0.1*x1"]],
                       "F": "0.1*x1*x2 + 0.2*t1*x1"},
        "temporal_metric": {"kind": "expression",
                            "entries": [["(2 + t1^2)/(1 + 0.5*t1^2)"]],
                            "signature": [1, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
        "solver": {"t_end": 0.5, "dt": 0.01,
                   "initial": {"t": 0.0, "x": [0.2, -0.1], "y": [0.5, 0.3]}},
    }


def nan_at_point_config() -> dict:
    """A p = n = 1 Lagrangian that is finite on its sampling box
    [-0.2, 0.2] but NaN (inf - inf) where |x1| > 0.26, as at the point
    x1 = 0.5, and whose vertical Hessian is that of v1_1^2."""
    return {
        "dims": {"p": 1, "n": 1},
        "lagrangian": {"kind": "expression",
                       "expression": "v1_1^2 + 1e300*x1^3*1e10 - 1e300*x1^3*1e10"},
        "temporal_metric": {"kind": "flat"},
        "sampling": {"box": [-0.2, 0.2], "count": 4, "seed": 0},
    }


def non_finite_lattice_configs() -> dict:
    """Name -> p = 2, n = 1 lattice whose residuals are NaN at every
    interior node of its 5 x 5 grid: a potential F that is NaN wherever
    x1 != 0 (inf - inf), and a map that overflows to inf off t1 = 0."""

    def lattice(lagrangian, map_entry):
        return {
            "dims": {"p": 2, "n": 1},
            "lagrangian": lagrangian,
            "temporal_metric": {"kind": "flat"},
            "grid": {"shape": [5, 5], "box": [[-1.0, 1.0], [-1.0, 1.0]], "map": [map_entry]},
        }

    return {
        "lattice_nan_potential_p2_n1": lattice(
            {"kind": "electrodynamics", "g_entries": [["1"]],
             "F": "1e308*x1*1e10 - 1e308*x1*1e10"}, "0.3 + t1*t2"),
        "lattice_overflowing_map_p2_n1": lattice(
            {"kind": "harmonic", "g_entries": [["1"]]}, "1e308*t1*10"),
    }


def benchmark_lattice_config(seed: int) -> dict:
    """The config of the benchmark's ``lattice_p2`` job that
    ``perfbench/workloads.py`` draws from ``random.Random(seed)``."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    from workloads import _lattice_config

    return _lattice_config(random.Random(seed))[0]


def non_block_regular_lattice_config() -> dict:
    """The benchmark's seed-3 lattice under flat h with an expression L
    that is not block-regular: its cross term 0.3*v1_1*v2_2 gives block
    residual 0.15 at every node."""
    return dict(benchmark_lattice_config(3), temporal_metric={"kind": "flat"}, lagrangian={
        "kind": "expression",
        "expression": "(1 + 0.2*x1^2)*v1_1^2 + v1_2^2 + (1 + 0.1*t1)*v2_1^2 + v2_2^2 + v3_1^2"
                      " + (1 + 0.1*x2^2)*v3_2^2 + 0.3*v1_1*v2_2 + 0.2*x3*v1_2 + 0.1*t2*x1*x2"})


def lattice_job_config() -> dict:
    """The shape of the benchmark's lattice jobs: p = 2, n = 3, g with
    x-dependent diagonal and two constant off-diagonal pairs, every entry
    of h t-dependent, and a smooth map on a 9 x 9 grid."""
    return {
        "dims": {"p": 2, "n": 3},
        "lagrangian": {"kind": "harmonic",
                       "g_entries": [["1 + 0.3*x2^2", "0.1", "0"],
                                     ["0.1", "1 + 0.2*x3^2", "-0.12"],
                                     ["0", "-0.12", "1 + 0.4*x1^2"]]},
        "temporal_metric": {"kind": "expression",
                            "entries": [["1 + 0.4*t1^2", "0.15*t1*t2"],
                                        ["0.15*t1*t2", "1 + 0.3*t2^2"]],
                            "signature": [2, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
        "grid": {"shape": [9, 9], "box": [[-1.0, 1.0], [-1.0, 1.0]],
                 "map": ["0.1 + 0.3*sin(0.8*t1) + 0.2*cos(0.8*t2)",
                         "-0.2 + 0.4*sin(t1)*cos(t2)",
                         "1 + 0.1*cos(1.2*t2) - 0.3*sin(1.2*t1)"]},
    }


def extremal_job_config() -> dict:
    """The shape of the benchmark's extremal jobs: p = 1, n = 3, g with
    (t, x)-dependent diagonal and two constant off-diagonal pairs, U and F,
    and 60 RK4 steps of dt = 0.01 from t = 0."""
    return {
        "dims": {"p": 1, "n": 3},
        "lagrangian": {"kind": "electrodynamics",
                       "g_entries": [["1 + 0.3*x1^2 + 0.1*t1^2", "0.1", "0"],
                                     ["0.1", "0.9 + 0.2*x2^2 + 0.2*t1^2", "-0.12"],
                                     ["0", "-0.12", "1.1 + 0.4*x3^2 + 0.05*t1^2"]],
                       "U_entries": [["0.2*t1*x2"], ["-0.3*t1*x3"], ["0.1*t1*x1"]],
                       "F": "0.2*t1*x1 - 0.1*cos(x2) + 0.3*x3^2"},
        "temporal_metric": {"kind": "expression", "entries": [["1 + t1^2"]],
                            "signature": [1, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
        "solver": {"t_end": 60 * 0.01, "dt": 0.01,
                   "initial": {"t": 0.0, "x": [0.2, -0.3, 0.1], "y": [0.5, -0.4, 0.3]}},
    }


def scaled_flat_config() -> dict:
    """g = e^(-x1) I on n = 3 under a flat h: regular everywhere, though
    along the extremal from x = 0 with y = (1, 0, 0), 150 steps of dt = 0.01,
    |det g| = e^(-3 x1) falls below 1 % of its start by t = 1.08."""
    g = "exp(-x1)"
    return {
        "dims": {"p": 1, "n": 3},
        "lagrangian": {"kind": "harmonic",
                       "g_entries": [[g, "0", "0"], ["0", g, "0"], ["0", "0", g]]},
        "temporal_metric": {"kind": "flat"},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
        "solver": {"t_end": 1.5, "dt": 0.01,
                   "initial": {"t": 0.0, "x": [0, 0, 0], "y": [1, 0, 0]}},
    }


def quartic_config(count: int = 16) -> dict:
    return {
        "dims": {"p": 2, "n": 2},
        "lagrangian": {
            "kind": "expression",
            "expression": "(v1_1*v1_1 + v1_2*v1_2 + v2_1*v2_1 + v2_2*v2_2)^2",
        },
        "temporal_metric": {"kind": "flat"},
        "sampling": {"box": [-1.0, 1.0], "count": count, "seed": 0},
    }


def sphere_config(dt: float = 1e-3) -> dict:
    """(T, h) = (R, flat), L = g_ij(x) y^i y^j on the sphere chart."""
    return {
        "dims": {"p": 1, "n": 2},
        "lagrangian": {"kind": "harmonic", "g_entries": [["1", "0"], ["0", "sin(x1)^2"]]},
        "temporal_metric": {"kind": "flat"},
        "sampling": {
            "box": [[-1, 1], [0.4, 2.7], [-1, 1], [-1, 1], [-1, 1]],
            "count": 12,
            "seed": 5,
        },
        "solver": {
            "t_end": 1.0,
            "dt": dt,
            "initial": {"t": 0.0, "x": [1.5707963267948966, 0.0], "y": [0.0, 1.0]},
        },
    }


# --- Metrics from grids of scalar fields ---------------------------------------


def spatial_metric_of(entries):
    """The matrix function of g: a jet point to the grid ``entries`` of
    scalar fields evaluated there."""
    return lambda pt: [[e(pt) for e in row] for row in entries]


def temporal_metric_of(entries, signature) -> TemporalMetric:
    """h whose matrix at a t-tuple is the grid ``entries`` of scalar fields
    (reading t only) evaluated there."""

    def matrix(ts):
        point = JetPoint(ts, (), ())
        return [[e(point) for e in row] for row in entries]

    return TemporalMetric(len(entries), matrix, signature)


def tables_at(pack, points):
    """The (TorsionTable, CurvatureTable) pair of ``pack`` at each point,
    as ``curvature.table_zero_audit`` takes them."""
    return [(tor, curvature_table(tor)) for tor in (torsion_table(pack, pt) for pt in points)]


def counted(calls: dict, name: str, fn):
    """``fn``, adding 1 to ``calls[name]`` at each call."""

    def wrapped(*args):
        calls[name] += 1
        return fn(*args)

    return wrapped


# --- Reference values of the nonlinear connection -------------------------------


def canonical_n_reference(h: TemporalMetric, deco, point: JetPoint):
    """The p >= 2 canonical N^{(i)}_{(a)j} as [i][a][j], from the curl of U
    in the decomposition's jet and this helper's own evaluations of the
    decomposition metric: its Christoffels (for the pair N), its inverse
    and its Jacobian along t (for the G block)."""
    ts = [t_coord(a) for a in range(len(point.t))]
    _, jac = field_jacobian(deco.g_field, point, ts)
    ginv = checked_inverse(deco.g_field(point)).inverse
    return electrodynamics_n_values(
        h.matrix_at(point.t), deco.jet_at(point), ginv,
        pair_n_values(g_christoffel_values(deco.g_field, point), point),
        _g_block(ginv, [jac[c] for c in ts]))


def d2(f, point: JetPoint, wrt1: Coord, wrt2: Coord):
    """Mixed second partial of ``f``, with ``wrt1`` as the first direction,
    from one Taylor2 evaluation over the two coordinates carrying their one
    pair."""
    return gradient_hessian(f, point, (wrt1, wrt2), ((0,), (1,)))[2][0]


# --- Central-difference oracles, one plain evaluation per stencil point -------
# calculus.fd_crosscheck evaluates its whole stencil at once, on float64-array
# coordinates; these are its stencils point by point, the bitwise reference,
# and the central differences the other tests compare with.


def _shift(point: JetPoint, coord: Coord, delta: float) -> JetPoint:
    """``point`` with coordinate ``coord`` moved by ``delta``."""
    kind, i, a = coord
    t, x, v = list(point.t), list(point.x), [list(r) for r in point.v]
    value = point.coord(coord) + delta
    if kind == "t":
        t[a] = value
    elif kind == "x":
        x[i] = value
    else:
        v[i][a] = value
    return JetPoint(t, x, v)


def fd_d1(f, point: JetPoint, wrt: Coord, step: float) -> float:
    h = step * max(1.0, abs(float(point.coord(wrt))))
    return (f(_shift(point, wrt, h)) - f(_shift(point, wrt, -h))) / (2.0 * h)


def fd_d2(f, point: JetPoint, w1: Coord, w2: Coord, step: float) -> float:
    h1 = step * max(1.0, abs(float(point.coord(w1))))
    if w1 == w2:
        up = f(_shift(point, w1, h1))
        mid = f(point)
        dn = f(_shift(point, w1, -h1))
        return (up - 2.0 * mid + dn) / (h1 * h1)
    h2 = step * max(1.0, abs(float(point.coord(w2))))
    pp = f(_shift(_shift(point, w1, h1), w2, h2))
    pm = f(_shift(_shift(point, w1, h1), w2, -h2))
    mp = f(_shift(_shift(point, w1, -h1), w2, h2))
    mm = f(_shift(_shift(point, w1, -h1), w2, -h2))
    return (pp - pm - mp + mm) / (4.0 * h1 * h2)


def scalar_crosscheck(f, point: JetPoint, dims, tol: float) -> CrosscheckReport:
    """``fd_crosscheck`` with every stencil point evaluated on its own."""
    coords = all_coords(dims)
    report = CrosscheckReport()
    scale = max(1.0, abs(float(f(point))))
    eps = 2.220446049250313e-16
    floor_1 = max(_ABS_FLOOR * scale, 8.0 * eps * scale / (2.0 * FD_STEP_1))
    floor_2 = max(_ABS_FLOOR * scale, 16.0 * eps * scale / FD_STEP_2**2)

    def record(coords_key, order, ad, fd):
        floor = floor_1 if order == 1 else floor_2
        denom = max(abs(ad), abs(fd))
        ok = abs(ad - fd) <= max(tol * denom, floor)
        rel = abs(ad - fd) / max(denom, scale)
        report.entries.append(CrosscheckEntry(coords_key, order, ad, fd, rel, ok))
        report.max_rel_discrepancy = nan_max(report.max_rel_discrepancy, rel)
        if not ok:
            report.passed = False

    _, grad, hess = gradient_hessian(f, point, coords)
    for s, c in enumerate(coords):
        record((c,), 1, grad[s], fd_d1(f, point, c, FD_STEP_1))
    for s, r, second in zip(*hessian_pairs(len(coords)), hess):
        c1, c2 = coords[s], coords[r]
        record((c1, c2), 2, second, fd_d2(f, point, c1, c2, FD_STEP_2))
    return report


@pytest.fixture
def sphere_instance():
    return assemble(sphere_config())
