"""Vertical Hessian of the Lagrangian, block-factorization testing, and the
quadratic (electrodynamics-form) decomposition it forces.

The central object is G[(i,a)][(j,b)] = (1/2) d^2 L / dv^i_a dv^j_b.  The
Lagrangian is block-regular w.r.t. the temporal metric h when this factors
as h^{ab}(t) g_ij, with g symmetric, full-rank, of constant signature.  For
p >= 2 that forces L to be quadratic in the velocities, which the
decomposition recovers and verifies by reassembly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .calculus import d1, field_jacobian, gradient_hessian, v_coord, vertical_coords, x_coord
from .errors import DecompositionError, DegeneracyError, DimensionError
from .jet_core import Dims, JetPoint, zero_velocity_point
from .metric_engine import SpatialMetricField, TemporalMetric, mat_det, signature_of
from .parallel import map_ordered
from .scalars import scalar_value

DEFAULT_SAMPLES = 64
DEFAULT_TOL = 1e-6
DEFAULT_BOX = (-1.0, 1.0)
VELOCITY_REDRAWS = 8
REASSEMBLY_TOL = 1e-8


# --- Sampling ----------------------------------------------------------------


def expand_box(box, dims: Dims):
    """Normalize a box argument to one (lo, hi) pair per coordinate, ordered
    t, x, then v in row-major (i, a) order."""
    total = dims.p + dims.n + dims.n * dims.p
    if box is None:
        box = DEFAULT_BOX
    box = list(box)
    if len(box) == 2 and all(isinstance(b, (int, float)) for b in box):
        return [(float(box[0]), float(box[1]))] * total
    if len(box) != total:
        raise DimensionError(f"box needs {total} coordinate ranges, got {len(box)}")
    return [(float(lo), float(hi)) for lo, hi in box]


def sample_point(rng: random.Random, ranges, dims: Dims) -> JetPoint:
    vals = [rng.uniform(lo, hi) for lo, hi in ranges]
    p, n = dims.p, dims.n
    t = vals[:p]
    x = vals[p:p + n]
    v = [vals[p + n + i * p: p + n + (i + 1) * p] for i in range(n)]
    return JetPoint(t, x, v)


def sample_points(dims: Dims, box, count: int, seed: int = 0):
    rng = random.Random(seed)
    ranges = expand_box(box, dims)
    return [sample_point(rng, ranges, dims) for _ in range(count)]


# --- Vertical Hessian --------------------------------------------------------


def hessian_blocks(L, point: JetPoint, dims: Dims | None = None):
    """Nested [i][a][j][b] values of (1/2) d^2L/dv^i_a dv^j_b from one
    evaluation of L over the np vertical coordinates; generic over the
    scalar kind of the point, symmetric by construction."""
    dims = dims or point.dims
    n, p = dims.n, dims.p
    _, hess = gradient_hessian(L, point, vertical_coords(dims))
    half = [[e * 0.5 for e in row] for row in hess]
    return [[[[half[i * p + a][j * p + b] for b in range(p)] for j in range(n)]
             for a in range(p)] for i in range(n)]


def trace_metric(hmat, blocks):
    """g_ij = (1/p) h_ab G^{(ab)}_{(ij)}: the h-trace of already computed
    ``hessian_blocks`` under the temporal metric matrix ``hmat``; generic
    over the scalar kind."""
    n, p = len(blocks), len(hmat)
    g = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    acc = acc + hmat[a][b] * blocks[i][a][j][b]
            g[i][j] = acc * (1.0 / p)
    return g


def g_from_hessian(L, h: TemporalMetric, point: JetPoint, dims: Dims | None = None):
    """Spatial metric estimate g_ij = (1/p) h_ab G^{(ab)}_{(ij)} (the
    h-trace of the vertical Hessian); generic over the scalar kind."""
    dims = dims or point.dims
    hmat = h.matrix_at(point.t)
    return trace_metric(hmat, hessian_blocks(L, point, dims))


# --- Block-regularity verdict ------------------------------------------------


@dataclass
class SampleRecord:
    point: JetPoint
    residual: float
    symmetry_dev: float
    det: float
    signature: tuple | None
    issue: str = ""


@dataclass
class RegularityVerdict:
    """Outcome of the sampled block-factorization test."""

    is_kronecker: bool
    max_block_residual: float
    velocity_dependent_g: bool
    signature: tuple | None
    samples: list = field(default_factory=list)
    g_estimates: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    tol: float = DEFAULT_TOL

    def to_json_dict(self) -> dict:
        return {
            "is_kronecker": self.is_kronecker,
            "max_block_residual": self.max_block_residual,
            "velocity_dependent_g": self.velocity_dependent_g,
            "signature": list(self.signature) if self.signature else None,
            "tolerance": self.tol,
            "diagnostics": list(self.diagnostics),
            "samples": [
                {
                    "t": list(rec.point.t),
                    "x": list(rec.point.x),
                    "v": [list(r) for r in rec.point.v],
                    "residual": rec.residual,
                    "symmetry_dev": rec.symmetry_dev,
                    "det": rec.det,
                    "signature": list(rec.signature) if rec.signature else None,
                    "issue": rec.issue,
                }
                for rec in self.samples
            ],
        }


def _g_estimate_floats(L, h, point, dims):
    return [[scalar_value(e) for e in row] for row in g_from_hessian(L, h, point, dims)]


def kronecker_test(L, h: TemporalMetric, box=None, K: int = DEFAULT_SAMPLES,
                   tol: float = DEFAULT_TOL, seed: int = 0) -> RegularityVerdict:
    """Sampled test of the factorization G^{(ab)}_{(ij)} = h^{ab} g_ij.

    Per sample: estimate g by the h-trace, measure the worst block residual,
    check symmetry, non-degeneracy, and signature constancy; for p >= 2 an
    additional velocity-redraw test decides whether g depends on v.
    Degeneracies yield a false verdict with a diagnostic, not an exception.
    """
    if K < 1:
        raise DimensionError("sample count must be >= 1")
    dims = Dims(h.p, _infer_n(L, h))
    ranges = expand_box(box, dims)
    rng = random.Random(seed)
    points = [sample_point(rng, ranges, dims) for _ in range(K)]
    redraws = [
        [sample_point(rng, ranges, dims) for _ in range(VELOCITY_REDRAWS)]
        for _ in range(K)
    ]

    def examine(idx_point):
        idx, point = idx_point
        n, p = dims.n, dims.p
        blocks = hessian_blocks(L, point, dims)
        g = trace_metric(h.matrix_at(point.t), blocks)
        hinv = h.inverse_at(point.t)
        residual = 0.0
        for i in range(n):
            for a in range(p):
                for j in range(n):
                    for b in range(p):
                        residual = max(
                            residual,
                            abs(scalar_value(blocks[i][a][j][b]) - hinv[a][b] * g[i][j]),
                        )
        sym = max(
            abs(g[i][j] - g[j][i]) for i in range(n) for j in range(n)
        )
        det = float(scalar_value(mat_det(g)))
        issue = ""
        sig = None
        try:
            sig = signature_of(g)
        except DegeneracyError as exc:
            issue = f"sample {idx}: {exc}"
        # Velocity dependence: redraw v at fixed (t, x) and compare estimates.
        vdep = 0.0
        for redraw in redraws[idx]:
            probe = JetPoint(point.t, point.x, redraw.v)
            g2 = _g_estimate_floats(L, h, probe, dims)
            vdep = max(
                vdep,
                max(abs(g2[i][j] - g[i][j]) for i in range(n) for j in range(n)),
            )
        return g, residual, sym, det, sig, issue, vdep

    results = map_ordered(examine, list(enumerate(points)))

    verdict = RegularityVerdict(
        is_kronecker=True,
        max_block_residual=0.0,
        velocity_dependent_g=False,
        signature=None,
        tol=tol,
    )
    signatures = set()
    vdep_worst = 0.0
    for idx, (point, (g, residual, sym, det, sig, issue, vdep)) in enumerate(zip(points, results)):
        verdict.samples.append(SampleRecord(point, residual, sym, det, sig, issue))
        verdict.g_estimates.append(g)
        verdict.max_block_residual = max(verdict.max_block_residual, residual)
        vdep_worst = max(vdep_worst, vdep)
        if issue:
            verdict.diagnostics.append(issue)
            verdict.is_kronecker = False
        if residual > tol:
            verdict.diagnostics.append(f"sample {idx}: block residual {residual:.3e} > {tol:.1e}")
            verdict.is_kronecker = False
        if sym > tol:
            verdict.diagnostics.append(f"sample {idx}: g estimate asymmetric by {sym:.3e}")
            verdict.is_kronecker = False
        if sig is not None:
            signatures.add(sig)
    if len(signatures) > 1:
        verdict.diagnostics.append(f"signature varies across samples: {sorted(signatures)}")
        verdict.is_kronecker = False
    verdict.signature = next(iter(signatures)) if len(signatures) == 1 else None
    verdict.velocity_dependent_g = vdep_worst > tol
    if dims.p >= 2 and verdict.velocity_dependent_g:
        verdict.diagnostics.append(
            f"g estimate varies with velocity by {vdep_worst:.3e} (p >= 2 forbids this)"
        )
        verdict.is_kronecker = False
    return verdict


def _infer_n(L, h) -> int:
    dims = getattr(L, "dims", None)
    if dims is None:
        raise DimensionError("Lagrangian field must expose .dims")
    if dims.p != h.p:
        raise DimensionError(f"temporal dims disagree: L has p={dims.p}, h has p={h.p}")
    return dims.n


# --- Electrodynamics decomposition -------------------------------------------


@dataclass
class ElectrodynamicsDecomposition:
    """g, U, F fields with L = h^{ab} g_ij v^i_a v^j_b + U^a_i v^i_a + F,
    plus per-point samples and the verified reassembly residual.

    ``metric`` is the spatial metric over ``g_field``, built once here; the
    spray, N and the Cartan closure all read it."""

    dims: Dims
    g_field: object          # JetPoint -> n x n (reads t, x only)
    u_field: object          # JetPoint -> n x p
    f_field: object          # JetPoint -> scalar
    metric: SpatialMetricField
    g_samples: list = field(default_factory=list)
    u_samples: list = field(default_factory=list)
    f_samples: list = field(default_factory=list)
    u_curl_samples: list = field(default_factory=list)
    reassembly_residual: float = 0.0

    def u_curl_at(self, point: JetPoint):
        """U^{(a)}_{(i)j} = d U^a_i/dx^j - d U^a_j/dx^i as [i][a][j], from n
        lifted evaluations of the U field."""
        n, p = self.dims.n, self.dims.p
        xs = [x_coord(j) for j in range(n)]
        du = field_jacobian(self.u_field, point, xs)
        return [
            [[du[xs[j]][i][a] - du[xs[i]][j][a] for j in range(n)] for a in range(p)]
            for i in range(n)
        ]


def electrodynamics_decompose(L, h: TemporalMetric, base_points=None,
                              reassembly_tol: float = REASSEMBLY_TOL,
                              seed: int = 0) -> ElectrodynamicsDecomposition:
    """Recover (g, U, F) from a block-regular, velocity-independent L.

    F(t,x) = L(t,x,0); U^a_i = dL/dv^i_a at v=0; g is the h-trace of the
    vertical Hessian at v=0.  When L is a builtin quadratic family the
    recovered fields coincide exactly with its (symmetrized) entries, which
    are then used as the field backend; the reassembly check below runs on L
    itself either way and fails loudly when L is not quadratic in v.
    """
    dims = Dims(h.p, _infer_n(L, h))
    n, p = dims.n, dims.p

    structure = getattr(L, "structure", None)
    if structure is not None:
        g_field = structure.g_matrix
        if structure.u_entries is not None:
            u_field = lambda pt: [
                [structure.u_entries[i][a](pt) for a in range(p)] for i in range(n)
            ]
        else:
            u_field = lambda pt: [[0.0] * p for _ in range(n)]
        if structure.f_entry is not None:
            f_field = structure.f_entry
        else:
            f_field = lambda pt: 0.0
    else:
        def g_field(pt):
            return g_from_hessian(L, h, _at_zero_velocity(pt, dims), dims)

        def u_field(pt):
            pt0 = _at_zero_velocity(pt, dims)
            return [
                [d1(L, pt0, v_coord(i, a)) for a in range(p)]
                for i in range(n)
            ]

        def f_field(pt):
            return L(_at_zero_velocity(pt, dims))

    deco = ElectrodynamicsDecomposition(
        dims=dims, g_field=g_field, u_field=u_field, f_field=f_field,
        metric=SpatialMetricField(n, g_field),
    )

    if base_points is None:
        base_points = sample_points(dims, None, 8, seed=seed)
    rng = random.Random(seed + 1)
    worst = 0.0
    for pt in base_points:
        base = _at_zero_velocity(pt, dims)
        g = [[scalar_value(e) for e in row] for row in g_field(base)]
        u = [[scalar_value(e) for e in row] for row in u_field(base)]
        f_val = scalar_value(f_field(base))
        deco.g_samples.append(g)
        deco.u_samples.append(u)
        deco.f_samples.append(f_val)
        deco.u_curl_samples.append(
            [[[scalar_value(e) for e in row] for row in plane]
             for plane in deco.u_curl_at(base)]
        )
        hinv = h.inverse_at(base.t)
        for _ in range(4):
            v = [[rng.uniform(-1.0, 1.0) for _ in range(p)] for _ in range(n)]
            probe = JetPoint(base.t, base.x, v)
            quad = 0.0
            for a in range(p):
                for b in range(p):
                    for i in range(n):
                        for j in range(n):
                            quad += hinv[a][b] * g[i][j] * v[i][a] * v[j][b]
            lin = sum(u[i][a] * v[i][a] for i in range(n) for a in range(p))
            worst = max(worst, abs(scalar_value(L(probe)) - (quad + lin + f_val)))
    deco.reassembly_residual = worst
    if worst > reassembly_tol:
        raise DecompositionError(
            f"reassembly residual {worst:.3e} exceeds {reassembly_tol:.1e}; "
            "the Lagrangian is not quadratic in the velocities"
        )
    return deco


def _at_zero_velocity(pt: JetPoint, dims: Dims) -> JetPoint:
    return zero_velocity_point(pt.t, pt.x, dims)
