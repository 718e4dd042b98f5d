"""Vertical Hessian of the Lagrangian, block-factorization testing, and the
quadratic (electrodynamics-form) decomposition it forces.

The central object is G[(i,a)][(j,b)] = (1/2) d^2 L / dv^i_a dv^j_b.  The
Lagrangian is block-regular w.r.t. the temporal metric h when this factors
as h^{ab}(t) g_ij, with g symmetric, full-rank, of constant signature.  For
p >= 2 that forces L to be quadratic in the velocities, which the
decomposition recovers and verifies by reassembly.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

from .calculus import field_jacobian, gradient_hessian, t_coord, v_coord, vertical_coords, x_coord
from .errors import DecompositionError, DegeneracyError, DimensionError
from .jet_core import Dims, JetPoint, zero_velocity_point
from .metric_engine import TemporalMetric, checked_inverse
from .scalars import hessian_pairs, nan_max, pair_positions, scalar_value

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


class HessianBlocks(NamedTuple):
    """The vertical blocks of one second-order evaluation of L, beside that
    evaluation's value, gradient and Hessian over its coordinates, as
    ``calculus.gradient_hessian`` returns them."""

    blocks: list  # [i][a][j][b] = (1/2) d^2L/dv^i_a dv^j_b
    value: object  # L at the point, bitwise its plain value
    grad: list
    hess: list    # one entry per pair


@functools.cache
def _block_positions(pairs, off: int, n: int, p: int):
    """Position in ``pairs`` of the pair behind each block entry
    [i][a][j][b], with v^0_0 the seed at ``off``; built once per pair set."""
    at = pair_positions(pairs)
    return tuple(tuple(tuple(tuple(at[off + i * p + a, off + j * p + b] for b in range(p))
                             for j in range(n)) for a in range(p)) for i in range(n))


def hessian_blocks(L, point: JetPoint, coords=None, pairs=None) -> HessianBlocks:
    """The one second-order evaluation of L at ``point``: one Taylor2 lift
    over ``coords`` (default the np vertical coordinates) carrying ``pairs``
    (default the full triangle), as ``calculus.gradient_hessian`` takes
    them.  ``coords`` ends with the np verticals in row-major (i, a) order,
    as ``vertical_coords`` and ``all_coords`` give them, and ``pairs`` holds
    the v-v triangle.  The blocks are symmetric by construction and generic
    over the scalar kind of the point."""
    n, p = len(point.x), len(point.t)
    if coords is None:
        coords = vertical_coords(point.dims)
    if pairs is None:
        pairs = hessian_pairs(len(coords))
    value, grad, hess = gradient_hessian(L, point, coords, pairs)
    blocks = [[[[hess[m] * 0.5 for m in ms] for ms in mj] for mj in ma] for ma in
              _block_positions(pairs, len(coords) - n * p, n, p)]
    return HessianBlocks(blocks, value, grad, hess)


def trace_metric(hmat, blocks):
    """g_ij = (1/p) h_ab G^{(ab)}_{(ij)}: the h-trace of already computed
    ``hessian_blocks`` under the temporal metric matrix ``hmat``; generic
    over the scalar kind."""
    n, p = len(blocks), len(hmat)
    g = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    acc = acc + hmat[a][b] * blocks[i][a][j][b]
            g[i][j] = g[j][i] = acc * (1.0 / p)
    return g


def g_from_hessian(L, h: TemporalMetric, point: JetPoint):
    """Spatial metric estimate g_ij = (1/p) h_ab G^{(ab)}_{(ij)} (the
    h-trace of the vertical Hessian); generic over the scalar kind."""
    return trace_metric(h.matrix_at(point.t), hessian_blocks(L, point).blocks)


def block_residual(blocks, hinv, g) -> float:
    """max |G^{(ab)}_{(ij)} - h^{ab} g_ij| over the vertical Hessian
    ``blocks`` [i][a][j][b] of a float point, h^{-1} ``hinv`` and g there;
    a NaN entry gives NaN.  The three are symmetric bit for bit, so the
    upper triangle of the (i p + a, j p + b) index holds every value."""
    n, p = len(blocks), len(hinv)
    return nan_max(0.0, *(abs(blocks[i][a][j][b] - hinv[a][b] * g[i][j])
                          for i in range(n) for a in range(p)
                          for j in range(i, n) for b in range(a if j == i else 0, p)))


# --- Block-regularity verdict ------------------------------------------------


class SampleRecord:
    """What the block-factorization test measured at one sample."""

    __slots__ = ("point", "residual", "det", "signature", "issue")

    def __init__(self, point: JetPoint, residual: float, det: float, signature: tuple | None,
                 issue: str = ""):
        self.point = point
        self.residual = residual
        self.det = det
        self.signature = signature
        self.issue = issue


class RegularityVerdict:
    """Outcome of the sampled block-factorization test."""

    __slots__ = ("is_kronecker", "max_block_residual", "velocity_dependent_g", "signature",
                 "samples", "g_estimates", "diagnostics", "tol")

    def __init__(self, tol: float):
        """An empty verdict that passes, to which the samples are added."""
        self.is_kronecker = True
        self.max_block_residual = 0.0
        self.velocity_dependent_g = False
        self.signature = None
        self.samples = []
        self.g_estimates = []
        self.diagnostics = []
        self.tol = tol

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
                    "det": rec.det,
                    "signature": list(rec.signature) if rec.signature else None,
                    "issue": rec.issue,
                }
                for rec in self.samples
            ],
        }


def kronecker_test(L, h: TemporalMetric, box=None, K: int = DEFAULT_SAMPLES,
                   tol: float = DEFAULT_TOL, seed: int = 0) -> RegularityVerdict:
    """Sampled test of the factorization G^{(ab)}_{(ij)} = h^{ab} g_ij.

    Per sample: check that L itself is finite there (its value from the
    evaluation that gives the Hessian, which can be finite where L is NaN),
    estimate g by the h-trace, measure the worst block residual, check
    non-degeneracy, and signature constancy; for p >= 2 an additional
    velocity-redraw test decides whether g depends on v.  Degeneracies and
    a non-finite L yield a false verdict with a diagnostic, not an
    exception.
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

    verdict = RegularityVerdict(tol)
    signatures = set()
    vdep_worst = 0.0
    n = dims.n
    for idx, point in enumerate(points):
        blocks, value, _, _ = hessian_blocks(L, point)
        hmat = h.matrix_at(point.t)
        g = trace_metric(hmat, blocks)
        hinv = h.inverse_at(point.t)
        residual = block_residual(blocks, hinv, g)
        issue = "" if math.isfinite(value) else f"sample {idx}: L is not finite ({value})"
        try:
            _, det, sig = checked_inverse(g)
        except DegeneracyError as exc:
            det, sig = exc.det, None
            issue = issue or f"sample {idx}: {exc}"
        # Velocity dependence: redraw v at fixed (t, x), h is hmat there, and compare.
        for redraw in redraws[idx]:
            probe = JetPoint(point.t, point.x, redraw.v)
            g2 = trace_metric(hmat, hessian_blocks(L, probe).blocks)
            vdep_worst = nan_max(vdep_worst, *(abs(g2[i][j] - g[i][j])
                                               for i in range(n) for j in range(n)))
        verdict.samples.append(SampleRecord(point, residual, det, sig, issue))
        verdict.g_estimates.append(g)
        verdict.max_block_residual = nan_max(verdict.max_block_residual, residual)
        if issue:
            verdict.diagnostics.append(issue)
            verdict.is_kronecker = False
        # a NaN fails each comparison below
        if not residual <= tol:
            verdict.diagnostics.append(f"sample {idx}: block residual {residual:.3e} > {tol:.1e}")
            verdict.is_kronecker = False
        if sig is not None:
            signatures.add(sig)
    if len(signatures) > 1:
        verdict.diagnostics.append(f"signature varies across samples: {sorted(signatures)}")
        verdict.is_kronecker = False
    verdict.signature = next(iter(signatures)) if len(signatures) == 1 else None
    verdict.velocity_dependent_g = not vdep_worst <= tol
    if dims.p >= 2 and verdict.velocity_dependent_g:
        verdict.diagnostics.append(
            f"g estimate varies with velocity by {vdep_worst:.3e} (p >= 2 forbids this)"
        )
        verdict.is_kronecker = False
    return verdict


def _infer_n(L, h) -> int:
    dims = L.dims
    if dims.p != h.p:
        raise DimensionError(f"temporal dims disagree: L has p={dims.p}, h has p={h.p}")
    return dims.n


# --- Electrodynamics decomposition -------------------------------------------


class DecompositionJet(NamedTuple):
    """g, U, F of a decomposition at a point with their partials along
    every x and t, from one lift (``ElectrodynamicsDecomposition.jet_at``)."""

    g: list       # [i][j]
    u: list       # [i][a] = U^a_i
    f: object
    dg_dx: list   # [k][i][j] = d g_ij/dx^k
    dg_dt: list   # [c][i][j] = d g_ij/dt^c
    du_dt: list   # [c][i][a] = d U^a_i/dt^c
    df_dx: list   # [i] = dF/dx^i
    u_curl: list  # [i][a][j] = U^{(a)}_{(i)j} = d U^a_i/dx^j - d U^a_j/dx^i


class ElectrodynamicsDecomposition:
    """g, U, F fields with L = h^{ab} g_ij v^i_a v^j_b + U^a_i v^i_a + F,
    plus the jet at each base point and the verified reassembly residual.

    ``g_field`` is the spatial metric, symmetric at every point; packs,
    Berwald and metric compatibility read it alone.  ``potentials`` gives
    (U, F) together, and ``jet_at`` everything the spray, N, the T-tensor
    and the Cartan closure read of the three."""

    __slots__ = ("dims", "g_field", "potentials", "jets", "reassembly_residual")

    def __init__(self, dims: Dims, g_field, potentials):
        self.dims = dims
        self.g_field = g_field        # JetPoint -> n x n (reads t, x only)
        self.potentials = potentials  # JetPoint -> (n x p U, scalar F) (reads t, x only)
        self.jets = []                # DecompositionJet per base point, as they are verified
        self.reassembly_residual = 0.0

    def jet_at(self, point: JetPoint) -> DecompositionJet:
        """g, U, F at ``point`` and their partials along every x and t, from
        one evaluation of both fields lifted over all of them together."""
        n, p = self.dims.n, self.dims.p
        xs = [x_coord(j) for j in range(n)]
        ts = [t_coord(a) for a in range(p)]
        (g, (u, f)), jac = field_jacobian(
            lambda q: (self.g_field(q), self.potentials(q)), point, xs + ts)
        du = [jac[c][1][0] for c in xs]
        return DecompositionJet(
            g=g, u=u, f=f,
            dg_dx=[jac[c][0] for c in xs],
            dg_dt=[jac[c][0] for c in ts],
            du_dt=[jac[c][1][0] for c in ts],
            df_dx=[jac[c][1][1] for c in xs],
            u_curl=[[[du[j][i][a] - du[i][j][a] for j in range(n)] for a in range(p)]
                    for i in range(n)],
        )


def electrodynamics_decompose(L, h: TemporalMetric, base_points=None,
                              seed: int = 0) -> ElectrodynamicsDecomposition:
    """Recover (g, U, F) from a block-regular, velocity-independent L.

    F(t,x) = L(t,x,0) and U^a_i = dL/dv^i_a at v=0, both from one lift of
    L over the verticals; g is the h-trace of the vertical Hessian at v=0.
    When L is a builtin quadratic family the recovered fields coincide
    exactly with its entries, which are then used as the field backend; the
    reassembly check below runs on L itself either way and fails loudly
    when L is not quadratic in v.
    ``jets[k]`` is the jet at ``base_points[k]``'s (t, x).
    """
    dims = Dims(h.p, _infer_n(L, h))
    n, p = dims.n, dims.p

    structure = getattr(L, "structure", None)
    if structure is not None:
        g_field = structure.g_matrix

        def potentials(pt):
            if structure.u_entries is None:
                u = [[0.0] * p for _ in range(n)]
            else:
                u = [[structure.u_entries[i][a](pt) for a in range(p)] for i in range(n)]
            return u, 0.0 if structure.f_entry is None else structure.f_entry(pt)
    else:
        def g_field(pt):
            return g_from_hessian(L, h, zero_velocity_point(pt.t, pt.x, dims))

        def potentials(pt):
            f, jac = field_jacobian(L, zero_velocity_point(pt.t, pt.x, dims),
                                    vertical_coords(dims))
            return [[jac[v_coord(i, a)] for a in range(p)] for i in range(n)], f

    deco = ElectrodynamicsDecomposition(dims=dims, g_field=g_field, potentials=potentials)

    if base_points is None:
        base_points = sample_points(dims, None, 8, seed=seed)
    rng = random.Random(seed + 1)
    worst = 0.0
    for pt in base_points:
        base = zero_velocity_point(pt.t, pt.x, dims)
        jet = deco.jet_at(base)
        deco.jets.append(jet)
        g = [[scalar_value(e) for e in row] for row in jet.g]
        u = [[scalar_value(e) for e in row] for row in jet.u]
        f_val = scalar_value(jet.f)
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
            worst = nan_max(worst, abs(scalar_value(L(probe)) - (quad + lin + f_val)))
    deco.reassembly_residual = worst
    if not worst <= REASSEMBLY_TOL:
        raise DecompositionError(
            f"reassembly residual {worst:.3e} exceeds {REASSEMBLY_TOL:.1e}; "
            "the Lagrangian is not quadratic in the velocities", worst
        )
    return deco
