"""Problem configuration: JSON schema validation and instance assembly.

The config format is strict: unknown fields are rejected at every level so
that a hash of the canonicalized config pins down exactly what ran.
"""

from __future__ import annotations

import json
import math
import warnings

from . import dsl
from .errors import ConfigError, DslError
from .fields import ElectrodynamicsLagrangian, ExpressionField, LagrangianModel
from .jet_core import Dims, JetPoint
from .metric_engine import TemporalMetric, symmetric_matrix

DEFAULT_TOLERANCES = {"regularity": 1e-6, "compatibility": 1e-7, "crosscheck": 1e-5}
DEFAULT_SAMPLING = {"box": [-1.0, 1.0], "count": 16, "seed": 0}

_TOP_FIELDS = {"dims", "lagrangian", "temporal_metric", "sampling", "tolerances",
               "solver", "grid"}
_LAGRANGIAN_FIELDS = {"kind", "expression", "g_entries", "U_entries", "F"}
_METRIC_FIELDS = {"kind", "entries", "signature"}
_SAMPLING_FIELDS = {"box", "count", "seed"}
_TOLERANCE_FIELDS = {"regularity", "compatibility", "crosscheck"}
_SOLVER_FIELDS = {"t_end", "dt", "initial"}
_INITIAL_FIELDS = {"t", "x", "y"}
_GRID_FIELDS = {"shape", "box", "map"}


def _require(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _check_keys(obj, allowed, path):
    _require(isinstance(obj, dict), path, "expected an object")
    unknown = set(obj) - allowed
    _require(not unknown, path, f"unknown fields: {sorted(unknown)}")


def _number(value, path):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    _require(math.isfinite(value), path, "must be finite")
    return float(value)


def _int(value, path, lo=None, hi=None):
    _require(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    if lo is not None:
        _require(value >= lo, path, f"must be >= {lo}")
    if hi is not None:
        _require(value <= hi, path, f"must be <= {hi}")
    return value


def _expression(text, dims, path, allow=("t", "x", "v")):
    _require(isinstance(text, str), path, "expected an expression string")
    try:
        fld = ExpressionField(text, dims)
    except DslError as exc:
        raise ConfigError(f"{path}: {exc.diagnostic.render(text)}")
    used = {kind for kind, _, _ in dsl.used_variables(fld.ast)}
    bad = used - set(allow)
    _require(not bad, path, f"may not reference {sorted(bad)} variables")
    return fld


def _matrix_of_expressions(raw, rows, cols, dims, path, allow):
    _require(isinstance(raw, list) and len(raw) == rows, path, f"expected {rows} rows")
    out = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == cols, f"{path}[{i}]", f"expected {cols} entries")
        out.append([
            _expression(entry, dims, f"{path}[{i}][{j}]", allow)
            for j, entry in enumerate(row)
        ])
    return out


def _symmetric_matrix_of_expressions(raw, size, dims, path, allow):
    """A size x size matrix of expressions, symmetric by construction: one
    field sits at [i][j] and [j][i].  Where the two texts parse to different
    ASTs, that field is their average (a + b) * 0.5, with a warning."""
    out = _matrix_of_expressions(raw, size, size, dims, path, allow)
    for i in range(size):
        for j in range(i + 1, size):
            upper, lower = out[i][j], out[j][i]
            if upper.ast != lower.ast:
                warnings.warn(
                    f"{path}[{i}][{j}] = {upper.source!r} and {path}[{j}][{i}] = "
                    f"{lower.source!r} are asymmetric; using their average",
                    stacklevel=2)
                upper = ExpressionField(
                    dsl.Mul(dsl.Add(upper.ast, lower.ast, offset=0), dsl.Const(0.5, offset=0),
                            offset=0), dims)
            out[i][j] = out[j][i] = upper
    return out


class ProblemInstance:
    """A fully assembled problem: everything the commands operate on."""

    __slots__ = ("raw", "dims", "h", "L", "sampling", "tolerances", "solver", "grid")

    def __init__(self, raw: dict, dims: Dims, h: TemporalMetric, L: LagrangianModel,
                 sampling: dict, tolerances: dict, solver: dict | None = None,
                 grid: dict | None = None):
        self.raw = raw
        self.dims = dims
        self.h = h
        self.L = L
        self.sampling = sampling
        self.tolerances = tolerances
        self.solver = solver
        self.grid = grid

    @property
    def seed(self) -> int:
        return self.sampling["seed"]

    def g_reads_x_only(self) -> bool:
        """True when L is a builtin family and every g entry is an expression
        of x alone, the metric-pair situation with g = g(x)."""
        if self.L.structure is None:
            return False
        for row in self.L.structure.g_entries:
            for entry in row:
                ast = getattr(entry, "ast", None)
                if ast is None or any(kind != "x" for kind, _, _ in dsl.used_variables(ast)):
                    return False
        return True


def _reject_constant(token: str):
    raise ConfigError(f"config is not valid JSON: {token} is not a number")


def load_config(path: str) -> dict:
    """Read a config file as strict JSON: NaN and Infinity are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def assemble(raw: dict, seed_override: int | None = None) -> ProblemInstance:
    _check_keys(raw, _TOP_FIELDS, "config")
    _require("dims" in raw, "config", "missing 'dims'")
    _require("lagrangian" in raw, "config", "missing 'lagrangian'")
    _require("temporal_metric" in raw, "config", "missing 'temporal_metric'")

    dims_raw = raw["dims"]
    _check_keys(dims_raw, {"p", "n"}, "dims")
    _require("p" in dims_raw and "n" in dims_raw, "dims", "needs 'p' and 'n'")
    p = _int(dims_raw["p"], "dims.p", 1, 9)
    n = _int(dims_raw["n"], "dims.n", 1, 9)
    dims = Dims(p, n)

    h = _assemble_metric(raw["temporal_metric"], dims)
    L = _assemble_lagrangian(raw["lagrangian"], dims, h)

    sampling = dict(DEFAULT_SAMPLING)
    if "sampling" in raw:
        _check_keys(raw["sampling"], _SAMPLING_FIELDS, "sampling")
        if "box" in raw["sampling"]:
            sampling["box"] = _box(raw["sampling"]["box"], dims, "sampling.box")
        if "count" in raw["sampling"]:
            sampling["count"] = _int(raw["sampling"]["count"], "sampling.count", 1)
        if "seed" in raw["sampling"]:
            sampling["seed"] = _int(raw["sampling"]["seed"], "sampling.seed", 0)
    if seed_override is not None:
        sampling["seed"] = _int(seed_override, "--seed", 0)

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in raw:
        _check_keys(raw["tolerances"], _TOLERANCE_FIELDS, "tolerances")
        for key in raw["tolerances"]:
            value = _number(raw["tolerances"][key], f"tolerances.{key}")
            _require(value > 0, f"tolerances.{key}", "must be positive")
            tolerances[key] = value

    solver = None
    if "solver" in raw:
        solver = _assemble_solver(raw["solver"], dims)
    grid = None
    if "grid" in raw:
        grid = _assemble_grid(raw["grid"], dims)

    return ProblemInstance(raw=raw, dims=dims, h=h, L=L, sampling=sampling,
                           tolerances=tolerances, solver=solver, grid=grid)


def _box(raw, dims, path):
    total = dims.p + dims.n + dims.n * dims.p
    _require(isinstance(raw, list) and raw, path, "expected a range or list of ranges")
    if all(isinstance(e, (int, float)) for e in raw):
        _require(len(raw) == 2, path, "a flat range needs exactly [lo, hi]")
        lo, hi = _number(raw[0], f"{path}[0]"), _number(raw[1], f"{path}[1]")
        _require(lo < hi, path, "lo must be < hi")
        return [lo, hi]
    _require(len(raw) == total, path, f"need {total} per-coordinate ranges")
    out = []
    for k, pair in enumerate(raw):
        _require(isinstance(pair, list) and len(pair) == 2, f"{path}[{k}]", "expected [lo, hi]")
        lo, hi = _number(pair[0], f"{path}[{k}][0]"), _number(pair[1], f"{path}[{k}][1]")
        _require(lo < hi, f"{path}[{k}]", "lo must be < hi")
        out.append([lo, hi])
    return out


def _assemble_metric(raw, dims: Dims) -> TemporalMetric:
    _check_keys(raw, _METRIC_FIELDS, "temporal_metric")
    kind = raw.get("kind")
    _require(kind in ("flat", "expression"), "temporal_metric.kind",
             "must be 'flat' or 'expression'")
    p = dims.p
    signature = raw.get("signature")
    if signature is not None:
        _require(
            isinstance(signature, list) and len(signature) == 2
            and all(isinstance(s, int) for s in signature)
            and signature[0] >= 0 and signature[1] >= 0
            and signature[0] + signature[1] == p,
            "temporal_metric.signature", f"expected [pos, neg] summing to p={p}",
        )
        signature = tuple(signature)
    if kind == "flat":
        _require("entries" not in raw, "temporal_metric.entries", "flat metric takes no entries")
        metric = TemporalMetric.flat(p)
        if signature is not None:
            _require(signature == (p, 0), "temporal_metric.signature",
                     f"flat metric has signature [{p}, 0]")
        return metric
    _require("entries" in raw, "temporal_metric", "expression metric needs 'entries'")
    _require(signature is not None, "temporal_metric", "expression metric needs 'signature'")
    entries = _symmetric_matrix_of_expressions(raw["entries"], p, dims,
                                               "temporal_metric.entries", ("t",))

    def matrix(ts):
        return symmetric_matrix(entries, JetPoint(ts, (), ()))

    return TemporalMetric(p=p, matrix=matrix, signature=signature)


def _assemble_lagrangian(raw, dims: Dims, h: TemporalMetric):
    _check_keys(raw, _LAGRANGIAN_FIELDS, "lagrangian")
    kind = raw.get("kind")
    _require(kind in ("expression", "harmonic", "electrodynamics"), "lagrangian.kind",
             "must be 'expression', 'harmonic', or 'electrodynamics'")
    n, p = dims.n, dims.p
    if kind == "expression":
        _require("expression" in raw, "lagrangian", "kind 'expression' needs 'expression'")
        for key in ("g_entries", "U_entries", "F"):
            _require(key not in raw, f"lagrangian.{key}", "only valid for builtin families")
        fld = _expression(raw["expression"], dims, "lagrangian.expression")
        return LagrangianModel(dims=dims, field=fld)

    _require("g_entries" in raw, "lagrangian", f"kind '{kind}' needs 'g_entries'")
    g_allow = ("t", "x", "v") if p == 1 else ("t", "x")
    g_entries = _symmetric_matrix_of_expressions(raw["g_entries"], n, dims,
                                                 "lagrangian.g_entries", g_allow)
    u_entries = None
    f_entry = None
    if kind == "harmonic":
        for key in ("U_entries", "F"):
            _require(key not in raw, f"lagrangian.{key}", "not part of the kinetic family")
    else:
        if "U_entries" in raw:
            u_entries = _matrix_of_expressions(raw["U_entries"], n, p, dims,
                                               "lagrangian.U_entries", ("t", "x"))
        if "F" in raw:
            f_entry = _expression(raw["F"], dims, "lagrangian.F", ("t", "x"))
    family = ElectrodynamicsLagrangian(dims, h, g_entries, u_entries, f_entry)
    return LagrangianModel.from_family(family)


def _assemble_solver(raw, dims: Dims) -> dict:
    _check_keys(raw, _SOLVER_FIELDS, "solver")
    for key in _SOLVER_FIELDS:
        _require(key in raw, "solver", f"missing '{key}'")
    t_end = _number(raw["t_end"], "solver.t_end")
    dt = _number(raw["dt"], "solver.dt")
    _require(dt > 0, "solver.dt", "must be positive")
    init = raw["initial"]
    _check_keys(init, _INITIAL_FIELDS, "solver.initial")
    for key in _INITIAL_FIELDS:
        _require(key in init, "solver.initial", f"missing '{key}'")
    t0 = _number(init["t"], "solver.initial.t")
    x0 = init["x"]
    y0 = init["y"]
    for name, vec in (("x", x0), ("y", y0)):
        _require(isinstance(vec, list) and len(vec) == dims.n,
                 f"solver.initial.{name}", f"expected {dims.n} numbers")
    x0 = [_number(v, "solver.initial.x") for v in x0]
    y0 = [_number(v, "solver.initial.y") for v in y0]
    _require(t_end != t0, "solver.t_end", "must differ from initial.t")
    steps = abs(t_end - t0) / dt
    _require(math.isfinite(steps), "solver.dt", "gives a step count that is not finite")
    _require(round(steps) >= 2, "solver.dt",
             "must give at least 2 steps over |t_end - initial.t|")
    return {"t_end": t_end, "dt": dt, "t0": t0, "x0": tuple(x0), "y0": tuple(y0)}


def _assemble_grid(raw, dims: Dims) -> dict:
    _check_keys(raw, _GRID_FIELDS, "grid")
    _require("shape" in raw and "box" in raw, "grid", "needs 'shape' and 'box'")
    shape = raw["shape"]
    _require(isinstance(shape, list) and len(shape) == dims.p, "grid.shape",
             f"expected {dims.p} axis sizes")
    shape = tuple(_int(s, "grid.shape", 5) for s in shape)
    box = raw["box"]
    _require(isinstance(box, list) and len(box) == dims.p, "grid.box",
             f"expected {dims.p} axis ranges")
    out_box = []
    for k, pair in enumerate(box):
        _require(isinstance(pair, list) and len(pair) == 2, f"grid.box[{k}]", "expected [lo, hi]")
        lo, hi = _number(pair[0], f"grid.box[{k}][0]"), _number(pair[1], f"grid.box[{k}][1]")
        _require(lo < hi, f"grid.box[{k}]", "lo must be < hi")
        out_box.append((lo, hi))
    map_fields = None
    if "map" in raw:
        raw_map = raw["map"]
        _require(isinstance(raw_map, list) and len(raw_map) == dims.n, "grid.map",
                 f"expected {dims.n} component expressions")
        map_fields = [
            _expression(src, dims, f"grid.map[{i}]", ("t",))
            for i, src in enumerate(raw_map)
        ]
    return {"shape": shape, "box": out_box, "map": map_fields}
