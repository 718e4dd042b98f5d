"""Extremal curves (p = 1) and harmonic-map residuals (p >= 2).

For one-dimensional time the extremal equations reduce to the second-order
system x'' = H(t) x' - 2 h_11(t) G(t, x, x') which is integrated by the
classical fourth-order Runge-Kutta scheme; the extremals are the curves on
which the Euler-Lagrange residual vanishes, so a relative residual above
``EL_RESIDUAL_BOUND`` at an interior sample's 2-jet stops the run.  The
residual reads the spray that the first RK4 stage of the step leaving the
sample assembled there, so it evaluates L no further.  For several times
the equations form a PDE system; candidate maps are only *checked* by
evaluating the residual h^{ab}(x_ab - H^c_ab x_c) + 2G
(``connection.harmonic_form``) at each interior node of a lattice, with
x_a and x_ab from central differences.  That form is the extremal
equations only where L is block-regular, so each node's block residual
(``regularity.block_residual``) is read from the same spray.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# gcal_values: perfbench/selftest.py checks the tracer patches this binding.
from .connection import euler_lagrange_residual, gcal_values, harmonic_form, spray_data  # noqa: F401
from .errors import DegeneracyError, DimensionError, JetLagError, StencilError
from .jet_core import Dims, JetPoint
from .metric_engine import TemporalMetric
from .regularity import block_residual


# --- p = 1: extremal integration ---------------------------------------------


class ExtremalProblem:
    """Initial state (t0, x0, y0 = x'(t0)) of an extremal of L over h, to be
    integrated up to t_end in steps of dt."""

    __slots__ = ("L", "h", "t0", "x0", "y0", "t_end", "dt")

    def __init__(self, L, h: TemporalMetric, t0: float, x0: tuple, y0: tuple, t_end: float,
                 dt: float):
        if h.p != 1:
            raise DimensionError("extremal integration needs p = 1")
        if dt <= 0:
            raise DimensionError("dt must be positive")
        self.L = L
        self.h = h
        self.t0 = t0
        self.x0 = x0
        self.y0 = y0
        self.t_end = t_end
        self.dt = dt


class Trajectory:
    """Uniformly sampled (t, x, y) states plus a residual summary."""

    __slots__ = ("t", "x", "y", "aborted", "abort_reason", "el_residuals")

    def __init__(self, t: np.ndarray, x: np.ndarray, y: np.ndarray, aborted: bool = False,
                 abort_reason: str = "", el_residuals: np.ndarray | None = None):
        self.t = t  # (steps+1,)
        self.x = x  # (steps+1, n)
        self.y = y  # (steps+1, n)
        self.aborted = aborted
        self.abort_reason = abort_reason
        self.el_residuals = el_residuals  # interior-sample residual norms, once measured

    @property
    def max_el_residual(self) -> float:
        if self.el_residuals is None or len(self.el_residuals) == 0:
            return math.nan
        return float(np.max(np.abs(self.el_residuals)))


# A sample whose relative Euler-Lagrange residual r = ||R||inf / S exceeds
# this bound is off the extremal, and the run aborts there.  S, the largest
# max_i(|R_i - B_i| + |B_i|) so far (B the first-order bracket), ignores the
# scale of g and stays above 0 where x'' crosses 0.  R holds the central
# difference's truncation error, so a regular extremal of fastest rate w
# reads r ~ (w dt)^2 / 12; README gives the limits this sets.
EL_RESIDUAL_BOUND = 1e-2


def _acceleration(L, h, t, x, y):
    """x''^k = H^1_11 x'^k - 2 h_11 G^k, and the spray it is read from.
    The spray's point is built from Python floats, so that no Taylor2
    kernel runs on numpy scalars."""
    ys = y.tolist()
    point = JetPoint((t,), x.tolist(), [(yk,) for yk in ys])
    data = spray_data(L, h, point)
    h11, hc = data.hmat[0][0], data.hch[0][0][0]
    return np.array([hc * yk - 2.0 * h11 * gk for yk, gk in zip(ys, data.g_vec)]), data


def _el_residual(y_prev, y_next, dt, data):
    """The max-norm Euler-Lagrange residual at an interior sample and the
    size max_i(|R_i - B_i| + |B_i|) of the terms it sums, on the spray
    ``data`` that the first RK4 stage leaving the sample assembled at that
    very point; the second derivative is the central difference of the
    neighbouring samples' y (independent of the integrator's right-hand
    side)."""
    xab = [[[(up - dn) / (2.0 * dt)]] for up, dn in zip(y_next.tolist(), y_prev.tolist())]
    res = euler_lagrange_residual(xab, data)
    terms = np.max([abs(ri - bi) + abs(bi) for ri, bi in zip(res.tolist(), data.bracket)])
    return float(np.max(np.abs(res))), float(terms)


def integrate_extremal(problem: ExtremalProblem) -> Trajectory:
    """Classical RK4 on the first-order system (x, y); aborts cleanly, with
    the samples before the step that failed, once the curve stops being
    trustworthy.  Each state the spray is evaluated at (a step's starting
    state and its three inner stages) must keep the signature g has at the
    initial state, as the paper's regularity asks, and give a finite
    acceleration, since float arithmetic overflows to inf without raising.
    Once step k + 1 completes, sample k's Euler-Lagrange residual is read
    on the spray that the step's first stage assembled there; a relative
    residual above ``EL_RESIDUAL_BOUND``, or a NaN one, means the curve no
    longer solves the extremal equations, and step k + 1 fails.  The abort
    reason ends with the step and t of the last stage begun."""
    L, h = problem.L, problem.h
    span = problem.t_end - problem.t0
    steps = max(1, round(abs(span) / problem.dt))
    dt = span / steps

    ts = [problem.t0]
    xs = [np.array(problem.x0, dtype=float)]
    ys = [np.array(problem.y0, dtype=float)]
    residuals = []
    scale = 0.0  # the largest size of the residual's terms at any sample so far
    aborted = False
    reason = ""
    signature = None
    where = ""

    def stage(step, t, x, y):
        nonlocal signature, where
        where = f"at step {step}, t={t:.6g}"
        accel, data = _acceleration(L, h, t, x, y)
        if signature is not None and data.inertia != signature:
            raise DegeneracyError(f"signature of g changed from {signature} to {data.inertia}")
        signature = data.inertia
        if not np.isfinite(accel).all():
            raise FloatingPointError(f"acceleration is not finite: {accel.tolist()}")
        return accel, data

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for k in range(steps):
            t = ts[-1]
            x = xs[-1]
            y = ys[-1]
            try:
                k1y, first = stage(k + 1, t, x, y)
                k1x = y
                k2x = y + 0.5 * dt * k1y
                k2y = stage(k + 1, t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)[0]
                k3x = y + 0.5 * dt * k2y
                k3y = stage(k + 1, t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)[0]
                k4x = y + dt * k3y
                k4y = stage(k + 1, t + dt, x + dt * k3x, k4x)[0]
                x_next = x + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
                y_next = y + (dt / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
            except (JetLagError, FloatingPointError, OverflowError, ZeroDivisionError) as exc:
                aborted = True
                reason = f"{type(exc).__name__}: {exc} {where}"
                break
            if k:
                norm, terms = _el_residual(ys[-2], y_next, ts[1] - ts[0], first)
                scale = max(terms, scale)  # a NaN stays
                r = norm / scale if norm else 0.0
                if not r <= EL_RESIDUAL_BOUND:
                    aborted = True
                    reason = (f"relative Euler-Lagrange residual {r:.3e} at t={t:.6g} "
                              f"exceeds {EL_RESIDUAL_BOUND:g} {where}")
                    break
                residuals.append(norm)
            xs.append(x_next)
            ys.append(y_next)
            ts.append(problem.t0 + (k + 1) * dt)

    return Trajectory(
        t=np.array(ts), x=np.vstack(xs), y=np.vstack(ys),
        aborted=aborted, abort_reason=reason, el_residuals=np.array(residuals),
    )


# --- p >= 2: lattice residuals --------------------------------------------------


class GridMap:
    """A candidate map T -> M sampled on a rectangular lattice."""

    __slots__ = ("dims", "box", "shape", "values", "spacing")

    def __init__(self, dims: Dims, box: list, shape: tuple, values: np.ndarray):
        p, n = dims.p, dims.n
        if len(shape) != p or len(box) != p:
            raise DimensionError("grid shape/box rank must equal p")
        if any(s < 5 for s in shape):
            raise StencilError("need at least 5 nodes per axis")
        if values.shape != tuple(shape) + (n,):
            raise DimensionError(
                f"values shape {values.shape} != {tuple(shape) + (n,)}"
            )
        self.dims = dims
        self.box = box        # p pairs (lo, hi)
        self.shape = shape    # p ints, each >= 5
        self.values = values  # shape (*shape, n)
        self.spacing = tuple(
            (hi - lo) / (s - 1) for (lo, hi), s in zip(box, shape)
        )

    @classmethod
    def from_function(cls, dims: Dims, box, shape, fn) -> "GridMap":
        """The map ``fn`` sampled at every node at once: ``fn`` receives
        the p coordinates t^a of the nodes, each a float64 array over them
        in ``np.ndindex`` order, and returns the n map entries, each an
        array over the nodes or a float shared by all of them."""
        box = [(float(lo), float(hi)) for lo, hi in box]
        shape = tuple(int(s) for s in shape)
        ks = np.indices(shape).reshape(len(shape), -1)
        ts = tuple(lo + k * (hi - lo) / (s - 1) for (lo, hi), s, k in zip(box, shape, ks))
        entries = [np.broadcast_to(np.asarray(e, dtype=float), ks.shape[1:]) for e in fn(ts)]
        values = np.stack(entries, axis=-1).reshape(shape + (len(entries),))
        return cls(dims=dims, box=box, shape=shape, values=values)

    def node_t(self, idx) -> tuple:
        return tuple(lo + k * sp for (lo, _), sp, k in zip(self.box, self.spacing, idx))

    def interior_indices(self):
        return itertools.product(*[range(1, s - 1) for s in self.shape])


def _central_differences(grid: GridMap):
    """x, x_a and x_ab at every interior node, in ``interior_indices``
    order, from one pass of central differences over the whole lattice:
    lists ``x[node][k]``, ``first[node][k][a]`` and ``second[node][k][a][b]``
    of floats.  Each element goes through the float operations of the
    node-by-node formulas, in their order."""
    p, n = grid.dims.p, grid.dims.n
    sp = grid.spacing

    def at(*steps):
        """The values at every interior node moved by ``steps`` (axis, step)."""
        shift = dict(steps)
        return grid.values[tuple(slice(1 + shift.get(a, 0), s - 1 + shift.get(a, 0))
                                 for a, s in enumerate(grid.shape))].reshape(-1, n)

    centre = at()
    first = np.empty(centre.shape + (p,))
    second = np.empty(centre.shape + (p, p))
    # IEEE arithmetic on the arrays is that on floats, numpy's warnings aside
    with np.errstate(all="ignore"):
        for a in range(p):
            up, dn = at((a, 1)), at((a, -1))
            first[..., a] = (up - dn) / (2.0 * sp[a])
            second[..., a, a] = (up - 2.0 * centre + dn) / (sp[a] ** 2)
            for b in range(a + 1, p):
                pp, pm = at((a, 1), (b, 1)), at((a, 1), (b, -1))
                mp, mm = at((a, -1), (b, 1)), at((a, -1), (b, -1))
                second[..., a, b] = second[..., b, a] = (pp - pm - mp + mm) / (4.0 * sp[a] * sp[b])
    return centre.tolist(), first.tolist(), second.tolist()


class ResidualField:
    """Interior-node residuals of the harmonic-map equations."""

    __slots__ = ("indices", "points", "residuals", "max_norm", "rms", "max_block_residual",
                 "worst_block_row")

    def __init__(self, indices: list, points: list, residuals: np.ndarray, max_norm: float,
                 rms: float, max_block_residual: float, worst_block_row: int):
        self.indices = indices
        self.points = points        # node t-tuples
        self.residuals = residuals  # (len(indices), n)
        self.max_norm = max_norm
        self.rms = rms
        self.max_block_residual = max_block_residual  # regularity.block_residual; a NaN stays
        self.worst_block_row = worst_block_row        # the first node that reads it


def harmonic_residual(L, h: TemporalMetric, grid: GridMap) -> ResidualField:
    """residual^k = h^{ab}(x^k_ab - H^c_ab x^k_c) + 2 G^k
    (``harmonic_form``) at interior nodes, with x_a, x_ab supplied by
    central differences, and the worst node's block residual from its
    spray: only a block-regular L has these as its extremal equations."""
    dims = grid.dims
    if dims.p < 2:
        raise DimensionError("lattice residuals are for p >= 2")
    if L.dims != dims:
        raise DimensionError(f"Lagrangian dims {L.dims} do not match the grid {dims}")
    if h.p != dims.p:
        raise DimensionError("temporal metric p does not match the grid")
    indices = list(grid.interior_indices())
    residuals = np.zeros((len(indices), dims.n))
    points = []
    worst, worst_row = 0.0, 0
    nodes = zip(indices, *_central_differences(grid))
    for row, (idx, xs, first, second) in enumerate(nodes):
        ts = grid.node_t(idx)
        points.append(ts)
        data = spray_data(L, h, JetPoint(ts, xs, first))
        residuals[row] = harmonic_form(data.hinv, data.hch, first, second, data.g_vec)
        block = block_residual(data.blocks, data.hinv, data.g)
        if worst == worst and not block <= worst:  # the first NaN stays
            worst, worst_row = block, row
    max_norm = float(np.max(np.abs(residuals))) if len(indices) else 0.0
    rms = float(np.sqrt(np.mean(residuals ** 2))) if len(indices) else 0.0
    return ResidualField(indices=indices, points=points, residuals=residuals,
                         max_norm=max_norm, rms=rms, max_block_residual=worst,
                         worst_block_row=worst_row)
