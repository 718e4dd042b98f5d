"""Shared fixtures: the builtin Lagrangian corpus and small FD oracles."""

from __future__ import annotations

import pytest

from jetlag.calculus import Coord
from jetlag.config import assemble
from jetlag.jet_core import JetPoint
from jetlag.metric_engine import SpatialMetricField, TemporalMetric

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


def spatial_metric_of(entries) -> SpatialMetricField:
    """g whose matrix at a jet point is the grid ``entries`` of scalar
    fields evaluated there."""
    return SpatialMetricField(len(entries), lambda pt: [[e(pt) for e in row] for row in entries])


def temporal_metric_of(entries, signature) -> TemporalMetric:
    """h whose matrix at a t-tuple is the grid ``entries`` of scalar fields
    (reading t only) evaluated there."""

    def matrix(ts):
        point = JetPoint(ts, (), ())
        return [[e(point) for e in row] for row in entries]

    return TemporalMetric(len(entries), matrix, signature)


# --- Small central-difference oracles (independent of the calculus module) ---


def oracle_d1(f, point: JetPoint, coord: Coord, h: float = 1e-6) -> float:
    step = h * max(1.0, abs(float(point.coord(coord))))
    up = f(point.replace_coord(coord, point.coord(coord) + step))
    dn = f(point.replace_coord(coord, point.coord(coord) - step))
    return (up - dn) / (2.0 * step)


def oracle_d2(f, point: JetPoint, c1: Coord, c2: Coord, h: float = 2e-4) -> float:
    if c1 == c2:
        step = h * max(1.0, abs(float(point.coord(c1))))
        up = f(point.replace_coord(c1, point.coord(c1) + step))
        dn = f(point.replace_coord(c1, point.coord(c1) - step))
        return (up - 2.0 * f(point) + dn) / step**2
    s1 = h * max(1.0, abs(float(point.coord(c1))))
    s2 = h * max(1.0, abs(float(point.coord(c2))))

    def at(d1v, d2v):
        moved = point.replace_coord(c1, point.coord(c1) + d1v)
        return f(moved.replace_coord(c2, moved.coord(c2) + d2v))

    return (at(s1, s2) - at(s1, -s2) - at(-s1, s2) + at(-s1, -s2)) / (4 * s1 * s2)


@pytest.fixture
def sphere_instance():
    return assemble(sphere_config())
