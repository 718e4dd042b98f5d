"""Command-line entry point.

Commands: analyze, connection, torsion, curvature, extremal, residual,
verify.  Reports are canonical JSON on stdout (byte-identical for a fixed
config and seed); trajectories and residual fields are CSV.  Exit codes:
0 success (``--help`` and ``--version`` included), 1 failed verification,
evaluation-domain error or aborted extremal, 2 irregular Lagrangian,
64 usage errors (a missing or unknown argument or command among them)
and config errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .calculus import structure_values
from .cartan import berwald_connection, cartan_connection
from .config import ProblemInstance, assemble, load_config
from .connection import canonical_nonlinear_connection, spray_entities
from .curvature import curvature_table, table_zero_audit, torsion_table
from .errors import ConfigError, DecompositionError, JetLagError
from .extremal import ExtremalProblem, GridMap, harmonic_residual, integrate_extremal
from .jet_core import JetPoint
from .metric_engine import SpatialMetricField
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


def _emit(report: dict, out_path: str | None) -> None:
    text = canonical_json(report) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
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
                "g_samples": deco.g_samples,
                "u_samples": deco.u_samples,
                "f_samples": deco.f_samples,
                "u_curl_samples": deco.u_curl_samples,
            }
        except DecompositionError as exc:
            report["decomposition"] = {"error": str(exc)}
    _emit(report, args.out)
    return EX_OK if verdict.is_kronecker else EX_IRREGULAR


def _connection_objects(instance: ProblemInstance, verdict):
    """The decomposition of L (None for p = 1), the canonical nonlinear
    connection, the Cartan pack and the Berwald pack (None where it is not
    defined)."""
    deco = None
    if instance.dims.p >= 2:
        deco = _decompose(instance)
    conn = canonical_nonlinear_connection(instance.L, instance.h, decomposition=deco)
    pack = cartan_connection(instance.L, instance.h, conn, decomposition=deco)
    # The Berwald connection is only defined over a velocity-independent
    # metric; skip it when the derived g depends on v (p = 1 only).
    if instance.dims.p == 1 and verdict.velocity_dependent_g:
        return deco, conn, pack, None
    if instance.g_explicit is not None:
        g_for_berwald = instance.g_explicit
    else:
        g_for_berwald = SpatialMetricField(instance.dims.n, pack.g_matrix_at)
    berwald = berwald_connection(instance.h, g_for_berwald, instance.dims)
    return deco, conn, pack, berwald


def _coefficient_tables(pack, point) -> dict:
    co = pack.coefficients_at(point)
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
    deco, conn, pack, berwald = _connection_objects(instance, verdict)
    report = _report_head(instance, "connection")
    report["point"] = {"t": list(point.t), "x": list(point.x), "v": [list(r) for r in point.v]}
    report["nonlinear"] = {
        "M": conn.m_tensor(point).to_json_dict(),
        "N": conn.n_tensor(point).to_json_dict(),
    }
    report["cartan"] = _coefficient_tables(pack, point)
    if berwald is not None:
        report["berwald"] = _coefficient_tables(berwald, point)
    spray = spray_entities(instance.L, instance.h, point, decomposition=deco)
    report["spray"] = {
        "S": list(spray.S),
        "H": list(spray.Hc),
        "J": list(spray.J),
        "G": list(spray.Gc),
        "G_spatial": spray.G_spatial.to_json_dict(),
        "H_temporal": spray.H_temporal.to_json_dict(),
    }
    _emit(report, args.out)
    return EX_OK


def cmd_tables(instance: ProblemInstance, args, which: str) -> int:
    verdict = _regularity_gate(instance)
    if not verdict.is_kronecker:
        sys.stderr.write("Lagrangian is not block-regular; no canonical connection\n")
        return EX_IRREGULAR
    point = _parse_point(args.point, instance)
    _, _, pack, berwald = _connection_objects(instance, verdict)
    report = _report_head(instance, which)
    report["point"] = {"t": list(point.t), "x": list(point.x), "v": [list(r) for r in point.v]}
    sections = [("cartan", pack)]
    if berwald is not None:
        sections.append(("berwald", berwald))
    for label, the_pack in sections:
        tor = torsion_table(the_pack, point)
        if which == "torsion":
            report[label] = tor.to_json_dict()
        else:
            report[label] = curvature_table(tor).to_json_dict()
        if label == "berwald" and not instance.g_reads_x_only():
            # the zero table assumes a metric pair with g = g(x); for
            # time-dependent g the Berwald tables are a distinctness probe,
            # not a case the zero cells describe
            report["berwald_zero_audit"] = {"skipped": "g depends on t; metric-pair zero table not applicable"}
            continue
        audit = table_zero_audit(the_pack, [point])
        report[f"{label}_zero_audit"] = audit.to_json_dict()
    _emit(report, args.out)
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
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
        pt = JetPoint(ts, (0.0,) * dims.n, tuple((0.0,) * dims.p for _ in range(dims.n)))
        return [float(f(pt)) for f in fields]

    grid = GridMap.from_function(dims, grid_cfg["box"], grid_cfg["shape"], fn)
    field = harmonic_residual(instance.L, instance.h, grid)
    header = [f"t{a+1}" for a in range(dims.p)] + [f"x{i+1}" for i in range(dims.n)] \
        + [f"residual{i+1}" for i in range(dims.n)]
    lines = [",".join(header)]
    for row, idx in enumerate(field.indices):
        ts = field.points[row]
        xs = grid.values[idx]
        lines.append(csv_row(list(ts) + list(map(float, xs)) + list(map(float, field.residuals[row]))))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(f"max_norm={field.max_norm:.6e} rms={field.rms:.6e}\n")
    return EX_OK


def cmd_verify(instance: ProblemInstance, args) -> int:
    checks = run_checks(instance)
    report = _report_head(instance, "verify")
    report.update(checks_to_json(checks))
    _emit(report, args.out)
    if report["passed"]:
        return EX_OK
    failing = [c.name for c in checks if not c.passed]
    sys.stderr.write("failed invariants: " + ", ".join(failing) + "\n")
    return EX_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
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
        args = build_parser().parse_args(argv)
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
