"""Temporal and spatial metric machinery: inverses, Christoffel symbols,
and their curvature tensors.

All assembly routines are generic over the scalar kind so connection and
curvature code can push derivative scalars straight through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import field_jacobian, t_coord, x_coord
from .errors import DegeneracyError
from .jet_core import JetPoint, raw_point
from .scalars import reciprocal, scalar_value

_DEGENERACY_SCALE = 1e-10
_JACOBI_SWEEPS = 64


# --- Generic dense linear algebra (dims <= 4, correctness first) -----------


def mat_det(rows):
    """Determinant via fraction-free expansion; generic over scalar kind."""
    m = [list(r) for r in rows]
    dim = len(m)
    if dim == 1:
        return m[0][0]
    if dim == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    det = 0.0
    for j in range(dim):
        minor = [r[:j] + r[j + 1:] for r in m[1:]]
        term = m[0][j] * mat_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def mat_invert_generic(rows):
    """Inverse by partial-pivot LU (Gauss-Jordan form); pivoting compares the
    plain values of entries so lifted scalars pass through untouched."""
    dim = len(rows)
    aug = [list(r) + [1.0 if i == j else 0.0 for j in range(dim)] for i, r in enumerate(rows)]
    for col in range(dim):
        pivot = max(range(col, dim), key=lambda r: abs(scalar_value(aug[r][col])))
        if scalar_value(aug[pivot][col]) == 0.0:
            raise DegeneracyError("singular matrix in inversion", det=0.0)
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = reciprocal(aug[col][col])
        # a plain 0.0 stays a float, so structural zeros survive a lifted pivot
        aug[col] = [e if type(e) is float and e == 0.0 else e * inv_p for e in aug[col]]
        for r in range(dim):
            if r == col:
                continue
            factor = aug[r][col]
            if isinstance(factor, (int, float)) and factor == 0.0:
                continue
            aug[r] = [er - factor * ec for er, ec in zip(aug[r], aug[col])]
    return [row[dim:] for row in aug]


def checked_inverse(rows):
    """Generic inverse with the degeneracy threshold applied to plain values."""
    dim = len(rows)
    if dim == 1:
        entry = rows[0][0]
        det_value = scalar_value(entry)
        if abs(det_value) <= _DEGENERACY_SCALE * max(abs(det_value), 1e-300):
            raise DegeneracyError(f"degenerate metric (det={det_value:.3e})", det=det_value)
        return [[reciprocal(entry)]]
    scale = max(abs(scalar_value(e)) for r in rows for e in r)
    det = mat_det(rows)
    det_value = scalar_value(det)
    if abs(det_value) <= _DEGENERACY_SCALE * max(scale, 1e-300) ** dim:
        raise DegeneracyError(f"degenerate metric (det={det_value:.3e})", det=det_value)
    return mat_invert_generic(rows)


def jacobi_eigenvalues(m) -> list:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = [[float(e) for e in row] for row in m]
    dim = len(a)
    for _ in range(_JACOBI_SWEEPS):
        off = max(
            (abs(a[i][j]) for i in range(dim) for j in range(i + 1, dim)),
            default=0.0,
        )
        if off < 1e-14 * max(1.0, max(abs(a[i][i]) for i in range(dim))):
            break
        for i in range(dim):
            for j in range(i + 1, dim):
                if a[i][j] == 0.0:
                    continue
                theta = (a[j][j] - a[i][i]) / (2.0 * a[i][j])
                t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + (theta * theta + 1.0) ** 0.5)
                c = 1.0 / (t * t + 1.0) ** 0.5
                s = t * c
                for k in range(dim):
                    aik, ajk = a[i][k], a[j][k]
                    a[i][k] = c * aik - s * ajk
                    a[j][k] = s * aik + c * ajk
                for k in range(dim):
                    aki, akj = a[k][i], a[k][j]
                    a[k][i] = c * aki - s * akj
                    a[k][j] = s * aki + c * akj
    return sorted(a[i][i] for i in range(dim))


def signature_of(m) -> tuple:
    """(positive, negative) eigenvalue counts; zero eigenvalues are an error."""
    eigs = jacobi_eigenvalues(m)
    scale = max(abs(e) for e in eigs) if eigs else 0.0
    if scale == 0.0 or any(abs(e) <= 1e-10 * scale for e in eigs):
        raise DegeneracyError("metric has (numerically) zero eigenvalue")
    pos = sum(1 for e in eigs if e > 0)
    return pos, len(eigs) - pos


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
    """[d fn/dt^a for each a] of a structure-valued function of the
    t-tuple alone."""
    coords = [t_coord(a) for a in range(len(ts))]
    jac = field_jacobian(lambda q: fn(q.t), raw_point(tuple(ts), (), ()), coords)
    return [jac[c] for c in coords]


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
                cached = checked_inverse(self.matrix_at(ts))
                self._cache["inverse"] = cached
            return cached
        return checked_inverse(self.matrix_at(ts))

    def validate_samples(self, ts_list) -> dict:
        """Sampled rank/signature report; signature mismatches and
        degeneracies are reported, not raised."""
        issues = []
        seen = set()
        for ts in ts_list:
            m = [[scalar_value(e) for e in row] for row in self.matrix_at(ts)]
            try:
                sig = signature_of(m)
            except DegeneracyError as exc:
                issues.append({"t": list(ts), "issue": str(exc)})
                continue
            seen.add(sig)
            if self.signature is not None and tuple(sig) != tuple(self.signature):
                issues.append({"t": list(ts), "issue": f"signature {sig} != declared {tuple(self.signature)}"})
        return {
            "ok": not issues and len(seen) <= 1,
            "signatures_seen": sorted(seen),
            "issues": issues,
        }


def h_christoffel_values(h: TemporalMetric, ts):
    """H^c_{ab} = h^{cm}(d_a h_{mb} + d_b h_{ma} - d_m h_{ab})/2 as nested
    lists [c][a][b]; generic over the scalar kind of ts."""
    p = h.p
    if h.constant:
        return [[[0.0] * p for _ in range(p)] for _ in range(p)]
    return christoffel(h.inverse_at(ts), _t_partials(h.matrix_at, ts))


def h_curvature_values(h: TemporalMetric, ts):
    """H^c_{m a b} = d_b H^c_{ma} - d_a H^c_{mb} + H^e_{ma} H^c_{eb}
    - H^e_{mb} H^c_{ea}, [c][m][a][b]."""
    p = h.p
    if h.constant or p == 1:
        return [[[[0.0] * p for _ in range(p)] for _ in range(p)] for _ in range(p)]
    ch = h_christoffel_values(h, ts)
    return riemann(ch, _t_partials(lambda q: h_christoffel_values(h, q), ts))


# --- Spatial metric ----------------------------------------------------------


def g_christoffel_values(g_matrix, point: JetPoint):
    """Gamma^l_{jk} = g^{li}(d_k g_{ij} + d_j g_{ik} - d_i g_{jk})/2,
    [l][j][k], of the spatial metric ``g_matrix`` (JetPoint -> n x n);
    spatial partials only."""
    xs = [x_coord(k) for k in range(len(point.x))]
    ginv = checked_inverse(g_matrix(point))
    dg = field_jacobian(g_matrix, point, xs)
    return christoffel(ginv, [dg[c] for c in xs])


def g_curvature_values(g_matrix, point: JetPoint):
    """r^m_{pij} = d_j Gamma^m_{pi} - d_i Gamma^m_{pj}
    + Gamma^k_{pi} Gamma^m_{kj} - Gamma^k_{pj} Gamma^m_{ki}, [m][p][i][j]."""
    xs = [x_coord(j) for j in range(len(point.x))]
    gam = g_christoffel_values(g_matrix, point)
    dgam = field_jacobian(lambda q: g_christoffel_values(g_matrix, q), point, xs)
    return riemann(gam, [dgam[c] for c in xs])
