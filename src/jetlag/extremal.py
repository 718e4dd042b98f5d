"""Extremal curves (p = 1) and harmonic-map residuals (p >= 2).

For one-dimensional time the extremal equations reduce to the second-order
system x'' = H(t) x' - 2 h_11(t) G(t, x, x') which is integrated by the
classical fourth-order Runge-Kutta scheme, then checked by the
Euler-Lagrange residual at each interior sample's 2-jet.  For several times
the equations form a PDE system; candidate maps are only *checked* by
evaluating the residual h^{ab}(x_ab - H^c_ab x_c) + 2G
(``connection.harmonic_form``) at each interior node of a lattice, with
x_a and x_ab from central differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# gcal_values: perfbench/selftest.py checks the tracer patches this binding.
from .connection import euler_lagrange_residual, gcal_values, harmonic_form, spray_data  # noqa: F401
from .errors import DegeneracyError, DimensionError, JetLagError, StencilError
from .jet_core import Dims, JetPoint
from .metric_engine import TemporalMetric, h_christoffel_values


# --- p = 1: extremal integration ---------------------------------------------


@dataclass
class ExtremalProblem:
    L: object
    h: TemporalMetric
    t0: float
    x0: tuple
    y0: tuple
    t_end: float
    dt: float

    def __post_init__(self):
        if self.h.p != 1:
            raise DimensionError("extremal integration needs p = 1")
        if self.dt <= 0:
            raise DimensionError("dt must be positive")


@dataclass
class Trajectory:
    """Uniformly sampled (t, x, y) states plus a residual summary."""

    t: np.ndarray       # (steps+1,)
    x: np.ndarray       # (steps+1, n)
    y: np.ndarray       # (steps+1, n)
    aborted: bool = False
    abort_reason: str = ""
    el_residuals: np.ndarray = None  # interior-sample residual norms

    @property
    def max_el_residual(self) -> float:
        if self.el_residuals is None or len(self.el_residuals) == 0:
            return math.nan
        return float(np.max(np.abs(self.el_residuals)))


# A stage whose |det g| is below this share of |det g| at the initial state
# aborts the extremal.  checked_inverse's own test is relative to g itself,
# so a 1x1 g is degenerate only at exactly 0, and RK4's stages step across
# a zero of det g rather than land on it.
DEGENERACY_MARGIN = 1e-2


def _acceleration(L, h, t, x, y):
    """x''^k = H^1_11 x'^k - 2 h_11 G^k, and the spray it is read from.
    The spray's point is built from Python floats, so that no Taylor2
    kernel runs on numpy scalars."""
    ys = y.tolist()
    point = JetPoint((t,), x.tolist(), [(yk,) for yk in ys])
    data = spray_data(L, h, point)
    h11, hc = data.hmat[0][0], data.hch[0][0][0]
    return np.array([hc * yk - 2.0 * h11 * gk for yk, gk in zip(ys, data.g_vec)]), data


def integrate_extremal(problem: ExtremalProblem) -> Trajectory:
    """Classical RK4 on the first-order system (x, y); aborts cleanly with
    the last valid state if the spray degenerates mid-trajectory.  The
    paper's regularity (det g != 0, constant signature) is checked at every
    state the spray is evaluated at: each step's starting state and its
    three inner stages must keep the signature g has at the initial state,
    and a |det g| of at least ``DEGENERACY_MARGIN`` times its initial
    value.  A stage whose acceleration is not finite aborts too, since
    float arithmetic overflows to inf without raising.  The abort reason
    ends with the step and t of the last stage begun."""
    L, h = problem.L, problem.h
    span = problem.t_end - problem.t0
    steps = max(1, round(abs(span) / problem.dt))
    dt = span / steps

    ts = [problem.t0]
    xs = [np.array(problem.x0, dtype=float)]
    ys = [np.array(problem.y0, dtype=float)]
    aborted = False
    reason = ""
    signature = None
    det0 = None
    where = ""

    def stage(step, t, x, y):
        nonlocal signature, det0, where
        where = f"at step {step}, t={t:.6g}"
        accel, data = _acceleration(L, h, t, x, y)
        if signature is not None and data.inertia != signature:
            raise DegeneracyError(f"signature of g changed from {signature} to {data.inertia}")
        signature = data.inertia
        det = abs(data.det)
        if det0 is None:
            det0 = det
        elif det < DEGENERACY_MARGIN * det0:
            raise DegeneracyError(f"|det g| = {det:.3e} fell below {DEGENERACY_MARGIN:g} "
                                  f"of its initial {det0:.3e}", det=data.det)
        if not np.isfinite(accel).all():
            raise FloatingPointError(f"acceleration is not finite: {accel.tolist()}")
        return accel

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for k in range(steps):
            t = ts[-1]
            x = xs[-1]
            y = ys[-1]
            try:
                k1x, k1y = y, stage(k + 1, t, x, y)
                k2x = y + 0.5 * dt * k1y
                k2y = stage(k + 1, t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
                k3x = y + 0.5 * dt * k2y
                k3y = stage(k + 1, t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
                k4x = y + dt * k3y
                k4y = stage(k + 1, t + dt, x + dt * k3x, k4x)
                x_next = x + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
                y_next = y + (dt / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
            except (JetLagError, FloatingPointError, OverflowError, ZeroDivisionError) as exc:
                aborted = True
                reason = f"{type(exc).__name__}: {exc} {where}"
                break
            xs.append(x_next)
            ys.append(y_next)
            ts.append(problem.t0 + (k + 1) * dt)

    traj = Trajectory(
        t=np.array(ts), x=np.vstack(xs), y=np.vstack(ys),
        aborted=aborted, abort_reason=reason,
    )
    if len(ts) >= 3:
        traj.el_residuals = trajectory_el_residuals(L, h, traj)
    return traj


def trajectory_el_residuals(L, h: TemporalMetric, traj: Trajectory) -> np.ndarray:
    """Max-norm Euler-Lagrange residual at every interior trajectory sample;
    the second derivative is the central difference of the stored y
    (independent of the integrator's right-hand side)."""
    ts, xs, ys = traj.t.tolist(), traj.x.tolist(), traj.y.tolist()
    dt = ts[1] - ts[0]
    out = []
    for k in range(1, len(ts) - 1):
        point = JetPoint((ts[k],), xs[k], [[yi] for yi in ys[k]])
        xab = [[[(up - dn) / (2.0 * dt)]] for up, dn in zip(ys[k + 1], ys[k - 1])]
        res = euler_lagrange_residual(L, point, xab, spray_data(L, h, point))
        out.append(float(np.max(np.abs(res))))
    return np.array(out)


# --- p >= 2: lattice residuals --------------------------------------------------


@dataclass
class GridMap:
    """A candidate map T -> M sampled on a rectangular lattice."""

    dims: Dims
    box: list            # p pairs (lo, hi)
    shape: tuple         # p ints, each >= 5
    values: np.ndarray   # shape (*shape, n)
    spacing: tuple = field(init=False)

    def __post_init__(self):
        p, n = self.dims.p, self.dims.n
        if len(self.shape) != p or len(self.box) != p:
            raise DimensionError("grid shape/box rank must equal p")
        if any(s < 5 for s in self.shape):
            raise StencilError("need at least 5 nodes per axis")
        if self.values.shape != tuple(self.shape) + (n,):
            raise DimensionError(
                f"values shape {self.values.shape} != {tuple(self.shape) + (n,)}"
            )
        self.spacing = tuple(
            (hi - lo) / (s - 1) for (lo, hi), s in zip(self.box, self.shape)
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


@dataclass
class ResidualField:
    """Interior-node residuals of the harmonic-map equations."""

    indices: list
    points: list         # node t-tuples
    residuals: np.ndarray  # (len(indices), n)
    max_norm: float
    rms: float


def harmonic_residual(L, h: TemporalMetric, grid: GridMap) -> ResidualField:
    """residual^k = h^{ab}(x^k_ab - H^c_ab x^k_c) + 2 G^k
    (``harmonic_form``) at interior nodes, with x_a, x_ab supplied by
    central differences."""
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
    nodes = zip(indices, *_central_differences(grid))
    for row, (idx, xs, first, second) in enumerate(nodes):
        ts = grid.node_t(idx)
        points.append(ts)
        data = spray_data(L, h, JetPoint(ts, xs, first))
        # data.hch holds these Christoffels already; the second call stays
        # while perfbench/selftest.py pins 2 h_christoffel_values per node
        hch = h_christoffel_values(h, ts)[2]
        residuals[row] = harmonic_form(data.hinv, hch, first, second, data.g_vec)
    max_norm = float(np.max(np.abs(residuals))) if len(indices) else 0.0
    rms = float(np.sqrt(np.mean(residuals ** 2))) if len(indices) else 0.0
    return ResidualField(indices=indices, points=points, residuals=residuals,
                         max_norm=max_norm, rms=rms)
