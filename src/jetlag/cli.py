"""Command-line entry point.

Commands: analyze, connection, torsion, curvature, extremal, residual,
verify.  Reports are canonical JSON on stdout (byte-identical for a fixed
config and seed); trajectories and residual fields are CSV.  Exit codes:
0 success (``--help`` and ``--version`` included), 1 failed verification,
evaluation-domain error or aborted extremal, 2 irregular Lagrangian,
64 usage errors (a missing or unknown argument or command among them, a
negative ``--seed`` and an ``--out`` path that cannot be written) and
config errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .calculus import structure_values
from .cartan import berwald_connection, cartan_connection
from .config import ProblemInstance, assemble, load_config
from .connection import spray_entities
from .curvature import curvature_table, table_zero_audit, torsion_table
from .errors import ConfigError, DecompositionError, JetLagError
from .extremal import ExtremalProblem, GridMap, harmonic_residual, integrate_extremal
from .jet_core import DTensor, JetPoint, spatial_lower, temporal_lower, vertical_upper
from .regularity import electrodynamics_decompose, kronecker_test, sample_points
from .report import canonical_json, config_hash, csv_row
from .verify import checks_to_json, run_checks

EX_OK = 0
EX_VERIFY_FAIL = 1
EX_IRREGULAR = 2
EX_USAGE = 64


def _report_head(instance: ProblemInstance, command: str) -> dict:
    return {
        "tool": {"name": "jetlag", "version": __version__},
        "command": command,
        "config_hash": config_hash(instance.raw),
        "dims": {"p": instance.dims.p, "n": instance.dims.n},
        "seed": instance.seed,
    }


def _parse_point(text: str, instance: ProblemInstance) -> JetPoint:
    dims = instance.dims
    parts = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"--point chunk {chunk!r} is not name=values")
        name, values = chunk.split("=", 1)
        name = name.strip()
        if name not in ("t", "x", "v"):
            raise ConfigError(f"--point group must be t, x, or v, got {name!r}")
        if name in parts:
            raise ConfigError(f"--point group {name!r} is given twice")
        try:
            parts[name] = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"--point {name!r} values must be numbers")
        if not all(math.isfinite(v) for v in parts[name]):
            raise ConfigError(f"--point {name!r} values must be finite")
    expected = {"t": dims.p, "x": dims.n, "v": dims.n * dims.p}
    for name, count in expected.items():
        got = parts.get(name, [])
        if len(got) != count:
            raise ConfigError(
                f"--point needs {count} {name}-values (flat v is row-major i*p+a), got {len(got)}"
            )
    v = [parts["v"][i * dims.p:(i + 1) * dims.p] for i in range(dims.n)]
    return JetPoint(parts["t"], parts["x"], v)


def _regularity_gate(instance: ProblemInstance):
    verdict = kronecker_test(
        instance.L, instance.h, instance.sampling["box"],
        K=instance.sampling["count"], tol=instance.tolerances["regularity"],
        seed=instance.seed,
    )
    return verdict


def _write(text: str, out_path: str | None) -> None:
    """Write a command's output to the ``--out`` file, or else to stdout."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write: {exc}")
    else:
        sys.stdout.write(text)


def _decompose(instance: ProblemInstance):
    base = sample_points(instance.dims, instance.sampling["box"], 8, seed=instance.seed)
    return electrodynamics_decompose(instance.L, instance.h, base_points=base,
                                     seed=instance.seed)


def cmd_analyze(instance: ProblemInstance, args) -> int:
    verdict = _regularity_gate(instance)
    report = _report_head(instance, "analyze")
    report["regularity"] = verdict.to_json_dict()
    if verdict.is_kronecker and (instance.dims.p >= 2 or not verdict.velocity_dependent_g):
        try:
            deco = _decompose(instance)
            report["decomposition"] = {
                "reassembly_residual": deco.reassembly_residual,
                "g_samples": [structure_values(jet.g) for jet in deco.jets],
                "u_samples": [structure_values(jet.u) for jet in deco.jets],
                "f_samples": [structure_values(jet.f) for jet in deco.jets],
                "u_curl_samples": [structure_values(jet.u_curl) for jet in deco.jets],
            }
        except DecompositionError as exc:
            report["decomposition"] = {"error": str(exc)}
    _write(canonical_json(report) + "\n", args.out)
    return EX_OK if verdict.is_kronecker else EX_IRREGULAR


def _connection_objects(instance: ProblemInstance, verdict):
    """The decomposition of L (None for p = 1), the Cartan pack and the
    Berwald pack (None where it is not defined)."""
    deco = None
    if instance.dims.p >= 2:
        deco = _decompose(instance)
    pack = cartan_connection(instance.L, instance.h, decomposition=deco)
    # The Berwald connection is only defined over a velocity-independent
    # metric; skip it when the derived g depends on v (p = 1 only).
    if instance.dims.p == 1 and verdict.velocity_dependent_g:
        return deco, pack, None
    structure = instance.L.structure
    g_matrix = structure.g_matrix if structure is not None else pack.g_matrix_at
    berwald = berwald_connection(instance.h, g_matrix, instance.dims)
    return deco, pack, berwald


def _nonlinear_tables(co, dims) -> dict:
    """M and N as d-tensors over a vertical upper slot (row i*p + a)."""
    n, p = dims.n, dims.p
    return {name: DTensor((vertical_upper(n, p), lower),
                          [row for block in structure_values(values) for row in block]).to_json_dict()
            for name, values, lower in (("M", co.m, temporal_lower(p)), ("N", co.n, spatial_lower(n)))}


def _coefficient_tables(co) -> dict:
    return {
        "H_temporal": structure_values(co.hbar),
        "G_block": structure_values(co.g),
        "L_block": structure_values(co.l),
        "C_block": structure_values(co.c),
    }


def cmd_connection(instance: ProblemInstance, args) -> int:
    verdict = _regularity_gate(instance)
    if not verdict.is_kronecker:
        sys.stderr.write("Lagrangian is not block-regular; no canonical connection\n")
        return EX_IRREGULAR
    point = _parse_point(args.point, instance)
    deco, pack, berwald = _connection_objects(instance, verdict)
    report = _report_head(instance, "connection")
    report["point"] = {"t": list(point.t), "x": list(point.x), "v": [list(r) for r in point.v]}
    co = pack.coefficients_at(point)
    report["nonlinear"] = _nonlinear_tables(co, instance.dims)
    report["cartan"] = _coefficient_tables(co)
    if berwald is not None:
        report["berwald"] = _coefficient_tables(berwald.coefficients_at(point))
    spray = spray_entities(instance.L, instance.h, point,
                           None if deco is None else deco.jet_at(point))
    report["spray"] = {
        "S": list(spray.S),
        "H": list(spray.Hc),
        "J": list(spray.J),
        "G": list(spray.Gc),
        "G_spatial": spray.G_spatial.to_json_dict(),
        "H_temporal": spray.H_temporal.to_json_dict(),
    }
    _write(canonical_json(report) + "\n", args.out)
    return EX_OK


def cmd_tables(instance: ProblemInstance, args, which: str) -> int:
    verdict = _regularity_gate(instance)
    if not verdict.is_kronecker:
        sys.stderr.write("Lagrangian is not block-regular; no canonical connection\n")
        return EX_IRREGULAR
    point = _parse_point(args.point, instance)
    _, pack, berwald = _connection_objects(instance, verdict)
    report = _report_head(instance, which)
    report["point"] = {"t": list(point.t), "x": list(point.x), "v": [list(r) for r in point.v]}
    sections = [("cartan", pack)]
    if berwald is not None:
        sections.append(("berwald", berwald))
    for label, the_pack in sections:
        # the zero table assumes a metric pair with g = g(x); for
        # time-dependent g the Berwald tables are a distinctness probe,
        # not a case the zero cells describe
        audited = label == "cartan" or instance.g_reads_x_only()
        tor = torsion_table(the_pack, point)
        cur = curvature_table(tor) if which == "curvature" or audited else None
        report[label] = (tor if which == "torsion" else cur).to_json_dict()
        if audited:
            audit = table_zero_audit(the_pack, [(tor, cur)])
            report[f"{label}_zero_audit"] = audit.to_json_dict()
        else:
            report["berwald_zero_audit"] = {"skipped": "g depends on t; metric-pair zero table not applicable"}
    _write(canonical_json(report) + "\n", args.out)
    return EX_OK


def cmd_extremal(instance: ProblemInstance, args) -> int:
    if instance.dims.p != 1:
        sys.stderr.write("extremal integration needs p = 1\n")
        return EX_USAGE
    if instance.solver is None:
        sys.stderr.write("config has no solver block\n")
        return EX_USAGE
    sol = instance.solver
    problem = ExtremalProblem(
        L=instance.L, h=instance.h, t0=sol["t0"], x0=sol["x0"], y0=sol["y0"],
        t_end=sol["t_end"], dt=sol["dt"],
    )
    traj = integrate_extremal(problem)
    n = instance.dims.n
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
    lines = [",".join(header)]
    for k in range(len(traj.t)):
        lines.append(csv_row([float(traj.t[k])] + list(map(float, traj.x[k])) + list(map(float, traj.y[k]))))
    _write("\n".join(lines) + "\n", args.out)
    summary = f"steps={len(traj.t) - 1} max_el_residual={traj.max_el_residual:.3e}"
    if traj.aborted:
        summary += f" aborted=({traj.abort_reason})"
    sys.stderr.write(summary + "\n")
    return EX_VERIFY_FAIL if traj.aborted else EX_OK


def cmd_residual(instance: ProblemInstance, args) -> int:
    if instance.dims.p < 2:
        sys.stderr.write("lattice residuals need p >= 2\n")
        return EX_USAGE
    if instance.grid is None or instance.grid["map"] is None:
        sys.stderr.write("config needs a grid block with a map\n")
        return EX_USAGE
    grid_cfg = instance.grid
    fields = grid_cfg["map"]
    dims = instance.dims

    def fn(ts):
        """Each map entry evaluated once, on the point whose t are the
        nodes' arrays; each element is bitwise its float evaluation."""
        pt = JetPoint(ts, (0.0,) * dims.n, tuple((0.0,) * dims.p for _ in range(dims.n)))
        # IEEE arithmetic on the arrays is that on floats, numpy's warnings aside
        with np.errstate(all="ignore"):
            return [f(pt) for f in fields]

    grid = GridMap.from_function(dims, grid_cfg["box"], grid_cfg["shape"], fn)
    field = harmonic_residual(instance.L, instance.h, grid)
    header = [f"t{a+1}" for a in range(dims.p)] + [f"x{i+1}" for i in range(dims.n)] \
        + [f"residual{i+1}" for i in range(dims.n)]
    lines = [",".join(header)]
    for row, idx in enumerate(field.indices):
        ts = field.points[row]
        xs = grid.values[idx]
        lines.append(csv_row(list(ts) + list(map(float, xs)) + list(map(float, field.residuals[row]))))
    _write("\n".join(lines) + "\n", args.out)
    sys.stderr.write(f"max_norm={field.max_norm:.6e} rms={field.rms:.6e}\n")
    return EX_OK


def cmd_verify(instance: ProblemInstance, args) -> int:
    checks = run_checks(instance)
    report = _report_head(instance, "verify")
    report.update(checks_to_json(checks))
    _write(canonical_json(report) + "\n", args.out)
    if report["passed"]:
        return EX_OK
    failing = [c.name for c in checks if not c.passed]
    sys.stderr.write("failed invariants: " + ", ".join(failing) + "\n")
    return EX_VERIFY_FAIL


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``run`` in this process, built on the first
    (and not at import)."""
    parser = argparse.ArgumentParser(
        prog="jetlag",
        description="Numerical geometry of multi-time Lagrangians on jet bundles",
    )
    parser.add_argument("--version", action="version", version=f"jetlag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_point in (
        ("analyze", False), ("connection", True), ("torsion", True),
        ("curvature", True), ("extremal", False), ("residual", False),
        ("verify", False),
    ):
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True, help="path to the problem JSON")
        cp.add_argument("--out", default=None, help="write the report here instead of stdout")
        cp.add_argument("--seed", type=int, default=None, help="override sampling.seed")
        cp.add_argument("--json", action="store_true",
                        help="accepted for compatibility; reports are always JSON")
        if needs_point:
            cp.add_argument("--point", required=True,
                            help='evaluation point, e.g. "t=0;x=0.1,0.2;v=1,0"')
    return parser


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, 0 after --help or --version
        return EX_OK if not exc.code else EX_USAGE
    try:
        raw = load_config(args.config)
        instance = assemble(raw, seed_override=args.seed)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EX_USAGE
    try:
        if args.command == "analyze":
            return cmd_analyze(instance, args)
        if args.command == "connection":
            return cmd_connection(instance, args)
        if args.command == "torsion":
            return cmd_tables(instance, args, "torsion")
        if args.command == "curvature":
            return cmd_tables(instance, args, "curvature")
        if args.command == "extremal":
            return cmd_extremal(instance, args)
        if args.command == "residual":
            return cmd_residual(instance, args)
        if args.command == "verify":
            return cmd_verify(instance, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EX_USAGE
    except DecompositionError as exc:
        sys.stderr.write(f"decomposition error: {exc}\n")
        return EX_IRREGULAR
    except JetLagError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_VERIFY_FAIL
    raise AssertionError("unreachable command dispatch")


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
