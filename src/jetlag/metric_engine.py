"""Temporal and spatial metric machinery: one symmetric factorization per
metric matrix (its inverse, determinant and inertia), Christoffel symbols
and their curvature tensors.  ``levi_civita`` is g's Levi-Civita
construction along x (lift, factorize, contract).  h lives on T alone:
``TemporalMetric`` keeps its last evaluation and factorization, so h is
evaluated once per distinct t in a row, and ``h_christoffel_values`` reads
h's Christoffels from a Taylor2 evaluation of h, the one that the
Lagrangian's lift has just made and kept when there is one.  The program
is single-threaded; the matrices a metric returns are shared and
read-only.

All assembly routines are generic over the scalar kind so connection and
curvature code can push derivative scalars straight through them.  Their
symmetric results are symmetric bit for bit: symmetric_matrix,
checked_inverse, christoffel's lower pair and regularity.trace_metric each
compute an unordered pair once and store it at both places.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .calculus import field_jacobian, lift_taylor, t_coord, x_coord
from .errors import DegeneracyError
from .jet_core import JetPoint
from .scalars import Taylor2, reciprocal, scalar_value

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
    for i in range(1, dim):
        for j in range(i):
            a[i][j] = a[j][i]
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
            for k in range(j, dim):
                acc = 0.0
                for i in range(dim):
                    acc = acc + inv[l][i] * (d[k][i][j] + d[j][i][k] - d[i][j][k])
                out[l][j][k] = out[l][k][j] = acc * 0.5
    return out


def levi_civita(matrix, point: JetPoint, coords):
    """The Levi-Civita data of a metric along ``coords``: its matrix at
    ``point``, its inverse and its Christoffels [l][j][k] (``christoffel``
    of the partials along ``coords``), from one Dual lift of ``matrix`` (a
    JetPoint to the symmetric matrix there) and one factorization; g's
    along x (h's are ``h_christoffel_values``).  Generic over the scalar
    kind."""
    m, jac = field_jacobian(matrix, point, coords)
    inv = checked_inverse(m).inverse
    return m, inv, christoffel(inv, [jac[c] for c in coords])


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


def _kept_key(ts):
    """What an evaluation of h at ``ts`` is kept under: per t its value,
    the sign of that value (so 0.0 and -0.0 differ) and its leaf, None for
    a float or the interned layout of a seeded Taylor2 leaf over a float.
    None, never kept, for any other t (a Dual, an array, a nested or an
    unseeded Taylor2, an int) and for a NaN, which matches nothing."""
    key = []
    for t in ts:
        leaf = None
        if type(t) is Taylor2:
            leaf = t.layout
            if leaf.kept or t.g.count(1.0) != len(t.g):
                return None
            t = t.re
        if type(t) is not float or t != t:
            return None
        key.append((t, math.copysign(1.0, t), leaf))
    return tuple(key)


class TemporalMetric:
    """Semi-Riemannian metric h on the temporal factor: ``matrix`` maps a
    t-tuple to the symmetric p x p matrix of h there.

    h is evaluated once per distinct t in a row.  One slot keeps the matrix
    at the last t asked and, once an inverse is asked, that matrix's
    factorization, found again by ``_kept_key``: a t of the same bits and
    leaf (a float, or a seeded Taylor2 leaf over a float) reads the slot, a
    Dual, array or nested t is evaluated and never kept, and a
    DegeneracyError is never kept, so it raises again on the next ask.  A
    ``constant`` metric is evaluated once, at t = 0 and as floats, and
    keeps that evaluation for every t.  The program is single-threaded, and
    the returned matrices are shared: read-only, as every caller treats
    them."""

    __slots__ = ("p", "matrix", "signature", "constant", "_key", "_matrix", "_factor")

    def __init__(self, p: int, matrix, signature: tuple | None = None, constant: bool = False):
        self.p = p
        self.matrix = matrix  # ts -> p x p
        self.signature = signature
        self.constant = constant
        self._key = self._matrix = self._factor = None  # the kept slot

    @classmethod
    def flat(cls, p: int) -> "TemporalMetric":
        identity = [[1.0 if i == j else 0.0 for j in range(p)] for i in range(p)]
        return cls(p=p, matrix=lambda ts: identity, signature=(p, 0), constant=True)

    def _evaluated(self, ts, key):
        """h's matrix at ``ts``: the slot's when ``key`` is its key, else a
        fresh evaluation, kept under ``key`` unless that is None."""
        if key is not None and key == self._key:
            return self._matrix
        if self.constant:
            m = [[float(e) for e in row] for row in self.matrix((0.0,) * self.p)]
        else:
            m = self.matrix(ts)
        if key is not None:
            self._key, self._matrix, self._factor = key, m, None
        return m

    def matrix_at(self, ts):
        return self._evaluated(ts, () if self.constant else _kept_key(ts))

    def factor_at(self, ts) -> SymmetricFactor:
        """``checked_inverse`` of h's matrix at ``ts``, kept with it."""
        key = () if self.constant else _kept_key(ts)
        m = self._evaluated(ts, key)
        if key is not None and self._factor is not None:
            return self._factor
        factor = checked_inverse(m)
        if key is not None:
            self._factor = factor
        return factor

    def inverse_at(self, ts):
        return self.factor_at(ts).inverse

    def kept_lift(self, ts):
        """The kept evaluation of h on seeded Taylor2 leaves over the floats
        ``ts``, bitwise, as a lift seeds them (each t in seeds of its own):
        (one seed of each t, the matrix, its factorization or None); None
        when the slot holds another."""
        key = self._key
        if key is None or len(key) != len(ts):
            return None
        for t, (value, sign, leaf) in zip(ts, key):
            if leaf is None or type(t) is not float or t != value or math.copysign(1.0, t) != sign:
                return None
        return [leaf.seeds[0] for _, _, leaf in key], self._matrix, self._factor

    def validate_samples(self, ts_list) -> dict:
        """Sampled rank/signature report; a matrix that is not finite,
        signature mismatches and degeneracies are reported, not raised."""
        issues = []
        seen = set()
        for ts in ts_list:
            m = self.matrix_at(ts)
            if not all(math.isfinite(e) for row in m for e in row):
                issues.append({"t": list(ts), "issue": f"h is not finite: {m}"})
                continue
            try:
                sig = self.factor_at(ts).inertia
            except DegeneracyError as exc:
                issues.append({"t": list(ts), "issue": str(exc)})
                continue
            seen.add(sig)
            if self.signature is not None and tuple(sig) != tuple(self.signature):
                issues.append({"t": list(ts), "issue": f"signature {sig} != declared {tuple(self.signature)}"})
        return {"ok": not issues and len(seen) <= 1, "issues": issues}


_NO_PAIRS = ((), ())


def _value(e):
    return e.re if type(e) is Taylor2 else e


def _partial(e, seed):
    """The gradient entry of ``e`` at ``seed``: 0.0 where e does not depend
    on it."""
    if type(e) is not Taylor2 or seed not in e.layout.seeds:
        return 0.0
    return e.g[e.layout.seeds.index(seed)]


def h_christoffel_values(h: TemporalMetric, ts):
    """h's matrix at ``ts``, its inverse and the Christoffels
    H^c_{ab} = h^{cm}(d_a h_{mb} + d_b h_{ma} - d_m h_{ab})/2 as nested
    lists [c][a][b], all read from one Taylor2 evaluation of h at ts: the
    kept one when a lift (L's, inverting h) has just seeded every t there,
    with the inverse read from its kept factorization; else h on its own
    lift of ts, with no Hessian pairs, and a plain factorization of its
    matrix.  Generic over the scalar kind of ts."""
    p = h.p
    if h.constant:
        return h.matrix_at(ts), h.inverse_at(ts), [[[0.0] * p for _ in range(p)] for _ in range(p)]
    kept = h.kept_lift(ts)
    if kept is None:
        lifted = lift_taylor(JetPoint(ts, (), ()), [t_coord(a) for a in range(p)], _NO_PAIRS)
        seeds, matrix, factor = range(p), h.matrix_at(lifted.t), None
    else:
        seeds, matrix, factor = kept
    m = [[_value(e) for e in row] for row in matrix]
    if factor is None:
        inv = checked_inverse(m).inverse
    else:
        inv = [[_value(e) for e in row] for row in factor.inverse]
    return m, inv, christoffel(inv, [[[_partial(e, s) for e in row] for row in matrix]
                                     for s in seeds])


# --- Spatial metric ----------------------------------------------------------


def g_christoffel_values(g_matrix, point: JetPoint):
    """Gamma^l_{jk} = g^{li}(d_k g_{ij} + d_j g_{ik} - d_i g_{jk})/2,
    [l][j][k], of the spatial metric ``g_matrix`` (JetPoint -> n x n): its
    ``levi_civita`` along x."""
    return levi_civita(g_matrix, point, [x_coord(k) for k in range(len(point.x))])[2]
