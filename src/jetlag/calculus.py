"""First and second partials of scalar fields on the jet space.

Derivatives are exact (to roundoff) forward directional derivatives, not
difference quotients.  One evaluation of the field on a Dual lift over k
coordinates gives all k first partials; one on a Taylor2 lift over k
coordinates also gives the second partials of the pairs it is lifted with,
by default all k(k+1)/2 of them.  Central finite differences, at the fixed
steps ``FD_STEP_1`` and ``FD_STEP_2``, exist only to cross-check the forward
values.  Their whole stencil, the 1 + 4k + 2k(k - 1) distinct points of
every first and second difference quotient, is one evaluation of the field
on a point whose coordinates are float64 arrays over those points (array
leaves, see ``scalars``); each quotient reads its points' values from that
evaluation, in the order of the point-by-point formulas.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .jet_core import Dims, JetPoint
from .scalars import (Dual, Taylor2, hessian_pairs, layout, leaf_layouts, nan_max, scalar_value,
                      seeded)


class Coord(NamedTuple):
    """Names one coordinate: kind 't' (index alpha), 'x' (index i), or
    'v' (pair i, alpha).  Indices are 0-based."""

    kind: str
    i: int
    alpha: int


def t_coord(alpha: int) -> Coord:
    return Coord("t", 0, alpha)


def x_coord(i: int) -> Coord:
    return Coord("x", i, 0)


def v_coord(i: int, alpha: int) -> Coord:
    return Coord("v", i, alpha)


def vertical_coords(dims: Dims):
    return [v_coord(i, a) for i in range(dims.n) for a in range(dims.p)]


@functools.cache
def all_coords(dims: Dims) -> tuple:
    """Every coordinate, ordered t, x, then v in row-major (i, a) order;
    built once per Dims and shared."""
    return (tuple(Coord("t", 0, a) for a in range(dims.p))
            + tuple(Coord("x", i, 0) for i in range(dims.n))
            + tuple(Coord("v", i, a) for i in range(dims.n) for a in range(dims.p)))


# --- Lifts ------------------------------------------------------------------


def lift_d1(point: JetPoint, coords) -> JetPoint:
    """A new point with every coordinate wrapped in a Dual over len(coords)
    directions, seeding direction s on coords[s]; the unseeded coordinates
    share one zero row.  Its rows are fresh tuples; ``point`` is unchanged.

    Wrapping everything keeps nested first-derivative layers distinct: inside
    a lifted evaluation no un-lifted sibling from an older layer can appear.
    """
    if isinstance(coords, (Coord, str)):
        raise TypeError(f"coords must be a sequence of coordinates, not {coords!r}")
    k = len(coords)
    zero = (0.0,) * k
    rows = {}
    for s, c in enumerate(coords):
        rows.setdefault(c, [0.0] * k)[s] = 1.0
    row = rows.get  # keyed by plain (kind, i, alpha) tuples, which equal Coords
    return JetPoint(
        tuple([Dual(val, row(("t", 0, a), zero)) for a, val in enumerate(point.t)]),
        tuple([Dual(val, row(("x", i, 0), zero)) for i, val in enumerate(point.x)]),
        tuple([tuple([Dual(val, row(("v", i, a), zero)) for a, val in enumerate(vi)])
               for i, vi in enumerate(point.v)]),
    )


def lift_taylor(point: JetPoint, coords, pairs=None) -> JetPoint:
    """A new point with the coordinates in ``coords`` wrapped in Taylor2
    scalars over len(coords) seeds, seed s on coords[s], carrying the
    Hessian entries of ``pairs`` (a ``(rows, cols)`` tuple of seed indices;
    default the full triangle); the other coordinates keep their entries.
    Its rows are fresh tuples; ``point`` is unchanged.  Each coordinate's
    support is its own slots: a coordinate listed twice is seeded in both,
    so the entry between those slots is its pure second partial."""
    if pairs is None:
        pairs = hessian_pairs(len(coords))
    t, x, v = _position_layouts(pairs, tuple(coords), len(point.t), len(point.x))
    return JetPoint(
        tuple([val if lay is None else seeded(val, lay) for val, lay in zip(point.t, t)]),
        tuple([val if lay is None else seeded(val, lay) for val, lay in zip(point.x, x)]),
        tuple([tuple([val if lay is None else seeded(val, lay) for val, lay in zip(vi, lays)])
               for vi, lays in zip(point.v, v)]),
    )


def _position_layouts(pairs, coords: tuple, p: int, n: int):
    """The ``leaf_layouts`` of a lift over ``coords`` by position in a point
    of p times and n positions: (t, x, v) shaped as the point's, None where
    a coordinate is not lifted.  Kept in the seedless layout's ``leaves``
    under (coords, p, n), so a lift makes one lookup, not one per
    coordinate, and a fresh layout table starts a fresh one."""
    table = layout(pairs, (), ()).leaves
    key = (coords, p, n)
    at = table.get(key)
    if at is None:
        lays = leaf_layouts(pairs, coords)
        at = table[key] = (tuple(lays.get(Coord("t", 0, a)) for a in range(p)),
                           tuple(lays.get(Coord("x", i, 0)) for i in range(n)),
                           tuple(tuple(lays.get(Coord("v", i, a)) for a in range(p))
                                 for i in range(n)))
    return at


# --- Derivatives ------------------------------------------------------------


def gradient_hessian(f, point: JetPoint, coords, pairs=None):
    """Value, first and second partials of ``f`` along ``coords`` from one
    evaluation on a Taylor2 lift: the value is bitwise that of a plain call
    (see ``scalars``), ``grad[s]`` is the partial along coords[s] and
    ``hess[m]``, for the m-th pair (s, r) = (rows[m], cols[m]) of ``pairs``
    (default the full triangle), the second partial along coords[s] and
    coords[r], computed with coords[s] as the first direction.  A pair
    outside the result's support reads 0.0, since it is structurally zero;
    a pair not in ``pairs`` has no entry to read."""
    k = len(coords)
    if pairs is None:
        pairs = hessian_pairs(k)
    r = f(lift_taylor(point, coords, pairs))
    grad = [0.0] * k
    hess = [0.0] * len(pairs[0])
    value = r
    if type(r) is Taylor2:
        value, lay = r.re, r.layout
        for s, e in zip(lay.seeds, r.g):
            grad[s] = e
        for m, e in zip(lay.kept, r.h):
            hess[m] = e
    return value, grad, hess


# --- Finite differences (cross-check only) ---------------------------------


# Central-difference steps for first and second partials; each scales as
# step*max(1, |coordinate|).
FD_STEP_1 = 6e-6
FD_STEP_2 = 2e-4


def _stencil(point: JetPoint, coords):
    """The distinct points of the central differences of every first and
    second partial along ``coords`` at ``point``, as one JetPoint whose
    coordinates are float64 arrays over them, with the steps h1[s] and
    h2[s] of each coordinate.  In order: the centre; coordinate s moved by
    +h1 and -h1, for each s; then for each pair s <= r, s moved by +h2 and
    -h2 if r = s, else the corners (+h2, +h2), (+h2, -h2), (-h2, +h2),
    (-h2, -h2) of (s, r).  Each moved coordinate is its value plus the
    signed step, as a float."""
    k = len(coords)
    centre = [float(point.coord(c)) for c in coords]
    h1 = [FD_STEP_1 * max(1.0, abs(c)) for c in centre]
    h2 = [FD_STEP_2 * max(1.0, abs(c)) for c in centre]
    rows = [centre]

    def moved(*shifts):
        row = list(centre)
        for s, delta in shifts:
            row[s] = centre[s] + delta
        rows.append(row)

    for s in range(k):
        moved((s, h1[s]))
        moved((s, -h1[s]))
    for s in range(k):
        for r in range(s, k):
            if r == s:
                moved((s, h2[s]))
                moved((s, -h2[s]))
                continue
            for d1 in (h2[s], -h2[s]):
                for d2 in (h2[r], -h2[r]):
                    moved((s, d1), (r, d2))
    cols = dict(zip(coords, np.array(rows).T.copy()))
    dims = point.dims
    batch = JetPoint(
        tuple(cols[t_coord(a)] for a in range(dims.p)),
        tuple(cols[x_coord(i)] for i in range(dims.n)),
        tuple(tuple(cols[v_coord(i, a)] for a in range(dims.p)) for i in range(dims.n)),
    )
    return batch, h1, h2


class CrosscheckEntry:
    """One partial, forward-mode against central difference."""

    __slots__ = ("coords", "order", "forward", "central", "discrepancy", "ok")

    def __init__(self, coords: tuple, order: int, forward: float, central: float,
                 discrepancy: float, ok: bool):
        self.coords = coords
        self.order = order
        self.forward = forward
        self.central = central
        self.discrepancy = discrepancy
        self.ok = ok


class CrosscheckReport:
    """Forward-mode vs central-difference agreement at one point."""

    __slots__ = ("entries", "max_rel_discrepancy", "passed")

    def __init__(self):
        self.entries = []
        self.max_rel_discrepancy = 0.0
        self.passed = True


_ABS_FLOOR = 1e-8


def fd_crosscheck(f, point: JetPoint, dims: Dims, tol: float) -> CrosscheckReport:
    """Compare all first and second partials at ``point``, from one Taylor2
    evaluation of ``f``, against central finite differences, from one
    evaluation on the stencil's arrays; flags any discrepancy above the
    relative tolerance ``tol`` (with an absolute floor, below).  An error
    at a stencil point is raised as that point raises it alone; where
    points fail at different steps of ``f``, it is that of the earliest
    step.

    The absolute floor is stated in units of the field magnitude: with
    these steps, the rounding noise of a second-difference stencil is
    about 1e-8 * |f| on its own, so a smaller floor would flag noise.
    """
    coords = all_coords(dims)
    k = len(coords)
    report = CrosscheckReport()
    _, grad, hess = gradient_hessian(f, point, coords)
    batch, h1, h2 = _stencil(point, coords)
    # IEEE arithmetic on the arrays is that on floats, numpy's warnings aside
    with np.errstate(all="ignore"):
        values = np.broadcast_to(f(batch), (1 + 4 * k + 2 * k * (k - 1),)).tolist()
    mid = values[0]
    scale = max(1.0, abs(float(mid)))
    eps = 2.220446049250313e-16
    # Rounding noise of the stencils themselves: each is a near-cancelling
    # combination of O(scale) evaluations divided by h or h^2.
    floor_1 = max(_ABS_FLOOR * scale, 8.0 * eps * scale / (2.0 * FD_STEP_1))
    floor_2 = max(_ABS_FLOOR * scale, 16.0 * eps * scale / FD_STEP_2**2)

    def record(coords_key, order, ad, fd):
        floor = floor_1 if order == 1 else floor_2
        denom = max(abs(ad), abs(fd))
        ok = abs(ad - fd) <= max(tol * denom, floor)
        # Relative discrepancy with the denominator floored at the field
        # scale: a pair of near-zero derivatives agreeing to stencil noise
        # should not register as a large relative disagreement.
        rel = abs(ad - fd) / max(denom, scale)
        report.entries.append(CrosscheckEntry(coords_key, order, ad, fd, rel, ok))
        report.max_rel_discrepancy = nan_max(report.max_rel_discrepancy, rel)
        if not ok:
            report.passed = False

    for s, c in enumerate(coords):
        up, dn = values[1 + 2 * s], values[2 + 2 * s]
        record((c,), 1, grad[s], (up - dn) / (2.0 * h1[s]))
    at = 1 + 2 * k
    for s, r, second in zip(*hessian_pairs(k), hess):
        if r == s:
            up, dn = values[at], values[at + 1]
            central = (up - 2.0 * mid + dn) / (h2[s] * h2[s])
            at += 2
        else:
            pp, pm, mp, mm = values[at:at + 4]
            central = (pp - pm - mp + mm) / (4.0 * h2[s] * h2[r])
            at += 4
        record((coords[s], coords[r]), 2, second, central)
    return report


# --- Structure helpers ------------------------------------------------------


def map_structure(fn, obj):
    """Apply ``fn`` to every leaf of a nested list/tuple structure."""
    if isinstance(obj, (list, tuple)):
        return [map_structure(fn, o) for o in obj]
    return fn(obj)


def structure_values(obj):
    """Nested structure with every leaf reduced to its plain float value."""
    return map_structure(scalar_value, obj)


def structure_entry(obj, idx):
    """The leaf of a nested structure at the index path ``idx``."""
    for k in idx:
        obj = obj[k]
    return obj


def _value_partials(obj, k):
    """Value of every leaf of a lifted structure (a leaf with no Dual is
    its own value) and, for each of the k sensitivities, that sensitivity
    of every leaf (0.0 if no Dual), from one walk."""
    if isinstance(obj, (list, tuple)):
        walked = [_value_partials(o, k) for o in obj]
        return [w[0] for w in walked], [[w[1][s] for w in walked] for s in range(k)]
    if type(obj) is Dual:
        return obj.re, obj.du
    return obj, (0.0,) * k


def field_jacobian(field, point: JetPoint, coords):
    """Value of a structure-valued field at ``point`` and its derivatives
    along each of ``coords``, as a dict keyed by coordinate, from one
    evaluation on a Dual lift over them.  The value is bitwise that of a
    plain call, as a lifted value always is (see ``scalars``), with every
    container a list."""
    value, partials = _value_partials(field(lift_d1(point, coords)), len(coords))
    return value, dict(zip(coords, partials))
