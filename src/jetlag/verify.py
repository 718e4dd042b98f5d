"""The `verify` invariant suite: every structural identity the library
promises, run against one problem instance and reported check by check."""

from __future__ import annotations

import math
import random

import numpy as np

from .calculus import fd_crosscheck
from .cartan import cartan_connection
from .config import ProblemInstance
from .connection import euler_lagrange_residual, harmonic_form, spatial_block, spray_data
from .curvature import (
    AUDIT_TOL,
    curvature_table,
    metric_compatibility,
    table_zero_audit,
    torsion_table,
)
from .errors import DecompositionError
from .jet_core import JetPoint
from .metric_engine import g_christoffel_values
from .regularity import REASSEMBLY_TOL, electrodynamics_decompose, kronecker_test, sample_points
from .scalars import nan_max, scalar_value


class CheckResult:
    """One invariant's outcome: its worst measured value against ``tol``."""

    __slots__ = ("name", "passed", "worst", "tol", "detail")

    def __init__(self, name: str, passed: bool, worst: float, tol: float, detail: str = ""):
        self.name = name
        self.passed = passed
        self.worst = worst
        self.tol = tol
        self.detail = detail

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tolerance": self.tol,
            "detail": self.detail,
        }


# Sample points per instance; each point-wise check runs on all of them or
# on a prefix.
POINT_BUDGET = 6


def _points(instance: ProblemInstance, count: int):
    return sample_points(instance.dims, instance.sampling["box"], count,
                         seed=instance.seed)


def run_checks(instance: ProblemInstance) -> list:
    """Run every invariant applicable to the instance; returns CheckResults.

    A failed prerequisite (e.g. an irregular Lagrangian) short-circuits the
    dependent checks with explicit failures rather than exceptions.
    """
    L, h, dims = instance.L, instance.h, instance.dims
    tols = instance.tolerances
    checks: list[CheckResult] = []
    pts = _points(instance, POINT_BUDGET)

    # Temporal metric sanity.
    msample = h.validate_samples([pt.t for pt in pts])
    checks.append(CheckResult(
        name="temporal_metric_signature",
        passed=msample["ok"],
        worst=float(len(msample["issues"])),
        tol=0.0,
        detail="; ".join(i["issue"] for i in msample["issues"][:3]),
    ))

    # Forward-mode vs central differences on L.
    worst = 0.0
    ok = True
    for pt in pts[:3]:
        rep = fd_crosscheck(L, pt, dims, tols["crosscheck"])
        worst = nan_max(worst, rep.max_rel_discrepancy)
        ok = ok and rep.passed
    checks.append(CheckResult("ad_fd_crosscheck", ok, worst, tols["crosscheck"]))

    # Block regularity.
    verdict = kronecker_test(L, h, instance.sampling["box"],
                             K=instance.sampling["count"],
                             tol=tols["regularity"], seed=instance.seed)
    checks.append(CheckResult(
        "kronecker_regularity", verdict.is_kronecker, verdict.max_block_residual,
        tols["regularity"], "; ".join(verdict.diagnostics[:3]),
    ))
    if not verdict.is_kronecker:
        checks.append(CheckResult("downstream_invariants", False, math.inf, 0.0,
                                  "skipped: Lagrangian is not block-regular"))
        return checks

    deco = None
    if dims.p >= 2 or not verdict.velocity_dependent_g:
        try:
            deco = electrodynamics_decompose(L, h, base_points=pts)
            checks.append(CheckResult("decomposition_roundtrip", True,
                                      deco.reassembly_residual, REASSEMBLY_TOL))
        except DecompositionError as exc:
            checks.append(CheckResult("decomposition_roundtrip", False, exc.residual,
                                      REASSEMBLY_TOL, str(exc)))
            return checks

    # Spray identity: the h-trace of the spatial block is G.
    worst_trace = 0.0
    for k, pt in enumerate(pts):
        # the decomposition's base points are pts, so its k-th jet is at pt's (t, x)
        data = spray_data(L, h, pt)
        block = spatial_block(pt, deco.jets[k] if dims.p >= 2 else None, data)
        for l in range(dims.n):
            acc = 0.0
            for a in range(dims.p):
                for b in range(dims.p):
                    acc += data.hinv[a][b] * block.get((l, a), b)
            worst_trace = nan_max(worst_trace, abs(acc - data.g_vec[l]))
    checks.append(CheckResult("h_trace_identity", worst_trace <= 1e-8, worst_trace, 1e-8))

    # Euler-Lagrange consistency: g^{ki}/2-weighted residual equals the
    # rearranged form on a smooth test map.
    rng = random.Random(instance.seed + 101)
    coef = [[rng.uniform(-0.4, 0.4) for _ in range(dims.p)] for _ in range(dims.n)]
    off = [rng.uniform(-0.2, 0.2) for _ in range(dims.n)]
    quad = [[rng.uniform(-0.2, 0.2) for _ in range(dims.p)] for _ in range(dims.n)]
    worst_el = 0.0
    for pt in pts[:3]:
        # the test map's 2-jet at pt.t in closed form
        xs, vs, xab = [], [], []
        for i in range(dims.n):
            xi = off[i]
            for a, ta in enumerate(pt.t):
                xi = xi + coef[i][a] * ta
                xi = xi + quad[i][a] * (ta * ta)
            xs.append(xi)
            vs.append([coef[i][a] + quad[i][a] * (ta + ta) for a, ta in enumerate(pt.t)])
            xab.append([[2.0 * quad[i][a] if a == b else 0.0 for b in range(dims.p)]
                        for a in range(dims.p)])
        mid = JetPoint(pt.t, xs, vs)
        data = spray_data(L, h, mid)
        res = euler_lagrange_residual(xab, data)
        rearranged = harmonic_form(data.hinv, data.hch, mid.v, xab, data.g_vec)
        weighted = [0.5 * sum(gk[i] * res[i] for i in range(dims.n)) for gk in data.ginv]
        worst_el = nan_max(worst_el, *(abs(w - r) for w, r in zip(weighted, rearranged)))
    checks.append(CheckResult("el_rearrangement", worst_el <= 1e-7, worst_el, 1e-7))

    # Cartan pack at 4 points: one torsion and one curvature table per
    # point, which the zero audit and the antisymmetry check both read.  The
    # torsion table's frame is one evaluation of the coefficients, lifted
    # over every coordinate; compatibility reads it, and its value is the
    # point's coefficients, which symmetry and the classical reduction read.
    pack = cartan_connection(L, h, decomposition=deco)
    worst_compat = worst_sym = worst_anti = 0.0
    cos, tables = [], []
    for pt in pts[:4]:
        tor = torsion_table(pack, pt)
        tables.append((tor, curvature_table(tor)))
        worst_anti = nan_max(worst_anti, _antisymmetry_defect(*tables[-1]))
        co = tor.frame.coefficients
        cos.append(co)
        worst_compat = nan_max(worst_compat, *metric_compatibility(tor).values())
        for i in range(dims.n):
            for j in range(dims.n):
                for k in range(dims.n):
                    worst_sym = nan_max(worst_sym, abs(co.l[i][j][k] - co.l[i][k][j]), *(
                        abs(co.c[i][j][k][c] - co.c[i][k][j][c]) for c in range(dims.p)))
    checks.append(CheckResult("cartan_metric_compatibility",
                              worst_compat <= tols["compatibility"],
                              worst_compat, tols["compatibility"]))
    checks.append(CheckResult("cartan_coefficient_symmetry", worst_sym <= 1e-9, worst_sym, 1e-9))
    audit = table_zero_audit(pack, tables)
    checks.append(CheckResult("table_zero_audit", audit.passed, audit.worst, AUDIT_TOL,
                              audit.worst_cell))
    checks.append(CheckResult("torsion_curvature_antisymmetry",
                              worst_anti <= 1e-9, worst_anti, 1e-9))

    # Reductions applicable to the instance.
    if (dims.p == 1 and h.constant and instance.g_reads_x_only()
            and instance.L.structure.u_entries is None):
        worst_red = 0.0
        # for p = 1 the Cartan pack's N is the spray derivative
        # (connection.spray_n_values), read from the coefficients above
        for pt, co in zip(pts[:3], cos):
            gamma = g_christoffel_values(instance.L.structure.g_matrix, pt)
            for i in range(dims.n):
                for j in range(dims.n):
                    expect = sum(scalar_value(gamma[i][j][k]) * pt.v[k][0] for k in range(dims.n))
                    worst_red = nan_max(worst_red, abs(scalar_value(co.n[i][0][j]) - expect))
        checks.append(CheckResult("classical_reduction", worst_red <= 1e-8, worst_red, 1e-8))
    return checks


def _antisymmetry_defect(tor, cur) -> float:
    """Largest |X + X^T| over the antisymmetric last index pair of the torsion
    families tt_v, mm_v and the curvature families mm_m, tt_t (0.0 when all
    are zero; a NaN entry gives NaN)."""
    sums = [x.data + x.data.swapaxes(-1, -2) for x in (tor.tt_v, tor.mm_v, cur.mm_m, cur.tt_t)]
    return nan_max(0.0, *(float(np.max(np.abs(s), initial=0.0)) for s in sums))


def checks_to_json(checks) -> dict:
    return {
        "passed": all(c.passed for c in checks),
        "checks": [c.to_json_dict() for c in checks],
    }
