"""Temporal and spatial metric machinery: one symmetric factorization per
metric matrix (its inverse, determinant and inertia), Christoffel symbols
and their curvature tensors.

All assembly routines are generic over the scalar kind so connection and
curvature code can push derivative scalars straight through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .calculus import field_jacobian, t_coord, x_coord
from .errors import DegeneracyError
from .jet_core import JetPoint, raw_point
from .scalars import reciprocal, scalar_value

_DEGENERACY_SCALE = 1e-10
_BK_ALPHA = (1.0 + 17.0 ** 0.5) / 8.0  # Bunch-Kaufman's pivot growth bound


# --- Symmetric factorization (dims <= 4, generic over the scalar kind) ---------


class SymmetricFactor(NamedTuple):
    """A symmetric matrix's inverse (generic over the scalar kind), its
    determinant and its inertia (positive, negative eigenvalue counts), the
    latter two as plain values."""

    inverse: list
    det: float
    inertia: tuple


def _exchange(a, k, c):
    """Gauss-Jordan exchange of row k and column c of ``a`` in place.  Plain
    0.0 entries of the pivot row and plain 0.0 multipliers are skipped, so
    structural zeros stay floats under a lifted pivot."""
    inv_p = reciprocal(a[k][c])
    a[k][c] = 0.0
    pivot = a[k] = [e if type(e) is float and e == 0.0 else e * inv_p for e in a[k]]
    pivot[c] = inv_p
    for i, row in enumerate(a):
        f = row[c]
        if i == k or isinstance(f, (int, float)) and f == 0.0:
            continue
        row[c] = 0.0
        a[i] = [e - f * q for e, q in zip(row, pivot)]


def checked_inverse(rows) -> SymmetricFactor:
    """The symmetric factorization every inverse, determinant and signature
    of a metric is read from: a Gauss-Jordan sweep in place, one 1x1 or 2x2
    diagonal pivot block at a time, chosen by Bunch-Kaufman on plain values
    (Bunch & Kaufman, Math. Comp. 31, 1977; Golub & Van Loan, Matrix
    Computations, 4.4); a 2x2 block (k, r) is the exchanges (k, r), (r, k)
    and a swap back.  The swept array is the inverse, the product of the
    pivot blocks the determinant, and their signs, by Sylvester's law of
    inertia, the inertia (a 2x2 block is indefinite).  Raises
    DegeneracyError where |det| <= 1e-10 scale^n.  Float64-array entries
    make a batch of matrices, and the sweep runs on plain values only: once
    per distinct matrix of the batch (``_batch_factor``)."""
    dim = len(rows)
    try:
        scale = max([abs(scalar_value(e)) for r in rows for e in r])
    except TypeError:  # an array entry, which has no one plain value
        return _batch_factor(rows)
    a = [list(r) for r in rows]
    det, neg = _sweep(a)
    if abs(det) <= _DEGENERACY_SCALE * max(scale, 1e-300) ** dim:
        raise DegeneracyError(f"degenerate metric (det={det:.3e})", det=det)
    return SymmetricFactor(a, det, (dim - neg, neg))


def _sweep(a):
    """The pivoted sweep of checked_inverse on ``a`` in place; returns the
    determinant and the number of negative pivots."""
    det, neg = 1.0, 0
    todo = list(range(len(a)))
    while todo:
        k = todo.pop(0)
        akk = scalar_value(a[k][k])
        if todo:
            lam, r = max((abs(scalar_value(a[i][k])), i) for i in todo)
            if abs(akk) < _BK_ALPHA * lam:
                sigma = max(abs(scalar_value(a[i][r])) for i in todo + [k] if i != r)
                if abs(akk) * sigma < _BK_ALPHA * lam * lam:
                    arr = scalar_value(a[r][r])
                    if abs(arr) >= _BK_ALPHA * sigma:
                        todo[todo.index(r)] = k
                        k, akk = r, arr
                    else:
                        todo.remove(r)
                        det *= akk * arr - lam * lam
                        neg += 1
                        _exchange(a, k, r)
                        _exchange(a, r, k)
                        a[k], a[r] = a[r], a[k]
                        for row in a:
                            row[k], row[r] = row[r], row[k]
                        continue
        if akk == 0.0:
            det = 0.0
            break
        det *= akk
        neg += 1 if akk < 0.0 else 0
        _exchange(a, k, k)
    return det, neg


def _batch_factor(rows) -> SymmetricFactor:
    """checked_inverse of a batch of matrices, each entry a float64 array
    over the batch or a value shared by all of it.  Each distinct matrix,
    keyed by the bits of its array entries (so 0.0 and -0.0 differ), is
    factorized once, in the order of its first element, so that a
    degenerate element raises as it would alone, the first one first.  Each
    entry of the result, det and inertia included, is gathered back over
    the batch: the value every element shares bit for bit (so a structural
    zero stays a float), else an array, each element bitwise its own
    factorization."""
    dim = len(rows)
    entries = [e for r in rows for e in r]  # row-major
    batched = [k for k, e in enumerate(entries) if isinstance(e, np.ndarray)]
    # row j: element j's array entries, keyed by their bits
    stacked = np.stack([entries[k] for k in batched], axis=1)
    keys = stacked.view(np.dtype((np.void, stacked.itemsize * len(batched)))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    factors = []
    for values in stacked[first[order]].tolist():
        for k, e in zip(batched, values):
            entries[k] = e
        factors.append(checked_inverse([entries[i * dim:(i + 1) * dim] for i in range(dim)]))
    pick = np.argsort(order)[which]  # element j's factor is factors[pick[j]]
    # one row per factor: its inverse, row-major, and its det
    head = factors[0]
    table = np.array([[e for r in f.inverse for e in r] + [f.det] for f in factors])
    bits = table.view(np.int64)
    cells = [value if shared else column for value, shared, column in zip(
        [e for r in head.inverse for e in r] + [head.det],
        (bits == bits[0]).all(axis=0).tolist(), table[pick].T.copy())]
    inertia = head.inertia
    if any(f.inertia != inertia for f in factors):
        inertia = tuple(np.array(counts)[pick] for counts in zip(*(f.inertia for f in factors)))
    return SymmetricFactor([cells[i * dim:(i + 1) * dim] for i in range(dim)], cells[-1], inertia)


def symmetric_matrix(entries, point):
    """The matrix of the symmetric grid ``entries`` of fields at ``point``:
    each entry of the upper triangle is evaluated once and mirrored."""
    dim = len(entries)
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = entries[i][j](point)
    return rows


# --- Christoffel and Riemann kernels --------------------------------------------


def christoffel(inv, d):
    """The Christoffel process of a metric m with inverse ``inv`` and
    partials ``d[k][i][j]`` = d_k m_ij:
    Gamma^l_{jk} = inv^{li}(d_k m_ij + d_j m_ik - d_i m_jk)/2, as [l][j][k].
    Generic over the scalar kind; ``d`` may hold adapted derivatives."""
    dim = len(inv)
    out = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
    for l in range(dim):
        for j in range(dim):
            for k in range(dim):
                acc = 0.0
                for i in range(dim):
                    acc = acc + inv[l][i] * (d[k][i][j] + d[j][i][k] - d[i][j][k])
                out[l][j][k] = acc * 0.5
    return out


def riemann(ch, dch):
    """Curvature of Christoffel symbols ``ch`` [c][m][a] with partials
    ``dch[b]`` = d_b ch: R^c_{mab} = d_b Ch^c_{ma} - d_a Ch^c_{mb}
    + Ch^e_{ma} Ch^c_{eb} - Ch^e_{mb} Ch^c_{ea}, as [c][m][a][b]."""
    dim = len(ch)
    out = [[[[0.0] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for c in range(dim):
        for m in range(dim):
            for a in range(dim):
                for b in range(dim):
                    acc = dch[b][c][m][a] - dch[a][c][m][b]
                    for e in range(dim):
                        acc = acc + ch[e][m][a] * ch[c][e][b] - ch[e][m][b] * ch[c][e][a]
                    out[c][m][a][b] = acc
    return out


# --- Temporal metric ---------------------------------------------------------


def _t_partials(fn, ts):
    """The value at ``ts`` of a structure-valued function of the t-tuple
    alone and [d fn/dt^a for each a], from one evaluation on a lift."""
    coords = [t_coord(a) for a in range(len(ts))]
    value, jac = field_jacobian(lambda q: fn(q.t), raw_point(tuple(ts), (), ()), coords)
    return value, [jac[c] for c in coords]


@dataclass
class TemporalMetric:
    """Semi-Riemannian metric h on the temporal factor: ``matrix`` maps a
    t-tuple to the symmetric p x p matrix of h there, evaluated once per
    ``matrix_at``.  A ``constant`` metric is evaluated once, at t = 0."""

    p: int
    matrix: object  # ts -> p x p
    signature: tuple = None
    constant: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def flat(cls, p: int) -> "TemporalMetric":
        identity = [[1.0 if i == j else 0.0 for j in range(p)] for i in range(p)]
        return cls(p=p, matrix=lambda ts: identity, signature=(p, 0), constant=True)

    def matrix_at(self, ts):
        if self.constant:
            cached = self._cache.get("matrix")
            if cached is None:
                cached = [[float(e) for e in row] for row in self.matrix((0.0,) * self.p)]
                self._cache["matrix"] = cached
            return cached
        return self.matrix(ts)

    def inverse_at(self, ts):
        if self.constant:
            cached = self._cache.get("inverse")
            if cached is None:
                cached = checked_inverse(self.matrix_at(ts)).inverse
                self._cache["inverse"] = cached
            return cached
        return checked_inverse(self.matrix_at(ts)).inverse

    def validate_samples(self, ts_list) -> dict:
        """Sampled rank/signature report; signature mismatches and
        degeneracies are reported, not raised."""
        issues = []
        seen = set()
        for ts in ts_list:
            try:
                sig = checked_inverse(self.matrix_at(ts)).inertia
            except DegeneracyError as exc:
                issues.append({"t": list(ts), "issue": str(exc)})
                continue
            seen.add(sig)
            if self.signature is not None and tuple(sig) != tuple(self.signature):
                issues.append({"t": list(ts), "issue": f"signature {sig} != declared {tuple(self.signature)}"})
        return {"ok": not issues and len(seen) <= 1, "issues": issues}


def h_christoffel_values(h: TemporalMetric, ts):
    """h's matrix at ``ts``, its inverse and the Christoffels
    H^c_{ab} = h^{cm}(d_a h_{mb} + d_b h_{ma} - d_m h_{ab})/2 as nested
    lists [c][a][b], all from one evaluation of h on a lift over t and one
    factorization; generic over the scalar kind of ts."""
    p = h.p
    if h.constant:
        return h.matrix_at(ts), h.inverse_at(ts), [[[0.0] * p for _ in range(p)] for _ in range(p)]
    hmat, dh = _t_partials(h.matrix_at, ts)
    hinv = checked_inverse(hmat).inverse
    return hmat, hinv, christoffel(hinv, dh)


# --- Spatial metric ----------------------------------------------------------


def g_christoffel_values(g_matrix, point: JetPoint):
    """Gamma^l_{jk} = g^{li}(d_k g_{ij} + d_j g_{ik} - d_i g_{jk})/2,
    [l][j][k], of the spatial metric ``g_matrix`` (JetPoint -> n x n);
    spatial partials only."""
    xs = [x_coord(k) for k in range(len(point.x))]
    g, dg = field_jacobian(g_matrix, point, xs)
    return christoffel(checked_inverse(g).inverse, [dg[c] for c in xs])
