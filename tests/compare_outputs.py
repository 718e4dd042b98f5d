"""Run every command over a fixed set of configs with two source trees and
report where their outputs differ.

    python3 tests/compare_outputs.py OLD_SRC NEW_SRC

Each run is ``python -m jetlag COMMAND --config FILE`` in a fresh process
with ``PYTHONPATH`` set to one tree, two runs at a time.  The configs are
the 27 corpus configs of ``conftest`` (``count=4``), the quartic
(``count=4``) and the sphere (``dt=1e-2``), eleven expression Lagrangians
(seven with a solver; one p = 2 with velocity-linear terms; one p = 1
with a t-dependent h and a velocity-dependent g), two metrics
that vanish along an extremal (g = x1 and g = x1^2), an extremal that
overflows under a constant g, three regular extremals (g = e^(-x1) I with
n = 3, whose |det g| falls below 1 % of its start, the benchmark's
extremal job at dt = 0.05, and x'' = (t - 0.5)^2, whose acceleration
vanishes at a sample), a Lagrangian that is NaN away from x1 = 0
(``v1_1^2 + 1e308*x1*1e10 - 1e308*x1*1e10``), one that is finite on its
sampling box but NaN at the fixed point (``v1_1^2 + 1e300*x1^3*1e10 -
1e300*x1^3*1e10``, box [-0.2, 0.2]), an indefinite
temporal metric with a zero diagonal, a p = 2 and a p = 3 temporal
metric with t-dependent off-diagonal entries, a temporal metric that is
NaN away from t1 = 0, a p = 1 builtin electrodynamics Lagrangian (with a
solver) over a temporal metric that is a quotient, whose t-derivative a
Taylor2 takes through 1/b and a Dual does not, and a builtin p = 3
electrodynamics Lagrangian whose U has a nonzero curl.
Every config runs ``analyze``, ``verify`` and ``connection``/``torsion``/
``curvature`` at a fixed point; ``extremal`` runs where the config has a
solver.  Seven lattices beyond the benchmark's run ``residual``: a p = 3
grid, a non-square p = 2 grid with a constant map entry, two expression
Lagrangians, one with an indefinite g whose off-diagonal entry is exactly
zero along a column of nodes, two whose residuals are not finite (a
NaN potential F and an overflowing map), and the benchmark's seed-3
lattice under flat h with an expression L that is not block-regular
(its cross term 0.3*v1_1*v2_2 gives block residual 0.15 at every node).  Besides these, the benchmark's
generated configs (every job of the cycle of each workload in
``perfbench/workloads.py``, seeds 3 and 7) run their workload's own
command.

The report gives the number of byte-identical runs; for every other run,
the numbers that moved, grouped by JSON path (list indices collapsed) or by
column of a CSV or stderr line, with their count, largest distance in ulp
and largest absolute difference (a round-off-sized number that crosses
zero is many ulp away but only that far), and each text difference (a
key or line present on one side only, a string or exit code that
changed).  The exit status is 0 when every run is byte-identical and 1
otherwise.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_SEEDS = (3, 7)
POINT_COMMANDS = ("connection", "torsion", "curvature")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _harmonic_p1(g_entries, x0, y0) -> dict:
    return {
        "dims": {"p": 1, "n": 1},
        "lagrangian": {"kind": "harmonic", "g_entries": g_entries},
        "temporal_metric": {"kind": "flat"},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
        "solver": {"t_end": 3.0, "dt": 0.01,
                   "initial": {"t": 0.0, "x": [x0], "y": [y0]}},
    }


def _expression(p, n, expression, h=None, x0=None, y0=None) -> dict:
    cfg = {
        "dims": {"p": p, "n": n},
        "lagrangian": {"kind": "expression", "expression": expression},
        "temporal_metric": h or {"kind": "flat"},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 1},
    }
    if x0 is not None:
        cfg["solver"] = {"t_end": 0.5, "dt": 0.01,
                         "initial": {"t": 0.0, "x": x0, "y": y0}}
    return cfg


def configs() -> dict:
    """Name -> config dict of the comparison set."""
    from conftest import (
        CORPUS_DIMS,
        KINDS,
        corpus_config,
        curled_potentials_config,
        extremal_job_config,
        nan_at_point_config,
        nan_h_config,
        nan_lagrangian_config,
        potentials_config,
        quartic_config,
        quotient_h_config,
        scaled_flat_config,
        sphere_config,
    )

    out = {f"{kind}_p{p}_n{n}": corpus_config(kind, p, n, count=4)
           for kind in KINDS for p, n in CORPUS_DIMS}
    out["quartic"] = quartic_config(count=4)
    out["sphere"] = sphere_config(dt=1e-2)
    out["expr_p1_n2"] = _expression(
        1, 2, "(1 + x1^2)*v1_1^2 + 0.4*sin(x2)*v1_1*v2_1 + (2 + cos(x1))*v2_1^2 + x1*x2*v1_1",
        x0=[0.2, -0.1], y0=[0.5, 0.3])
    out["expr_p1_n3"] = _expression(
        1, 3, "exp(0.1*t1)*(v1_1^2 + v2_1^2 + v3_1^2) + 0.3*x1*v2_1*v3_1 + x2^2",
        h={"kind": "expression", "entries": [["1 + t1^2"]], "signature": [1, 0]},
        x0=[0.1, 0.2, 0.3], y0=[-0.4, 0.2, 0.6])
    out["expr_lorentz_p1_n2"] = _expression(
        1, 2, "v1_1^2 - (1 + 0.2*x1^2)*v2_1^2 + 0.1*x1*v2_1", x0=[0.3, 0.0], y0=[0.2, 0.4])
    out["expr_p2_n2"] = _expression(
        2, 2, "(1 + x2^2)*(v1_1^2/(1 + t1^2) + v1_2^2/2) + v2_1^2/(1 + t1^2) + v2_2^2/2 + x1*x2",
        h={"kind": "expression", "entries": [["1 + t1^2", "0"], ["0", "2"]],
           "signature": [2, 0]})
    out["expr_p2_n1"] = _expression(
        2, 1, "v1_1^2 - v1_2^2 + x1^2*t2",
        h={"kind": "expression", "entries": [["1", "0"], ["0", "-1"]], "signature": [1, 1]})
    # sqrt, log, tan, cosh, a negative integer power, a non-integer power and
    # a quotient by a seeded denominator; g is positive definite over the box
    out["expr_functions_p1_n2"] = _expression(
        1, 2, "sqrt(2 + x1^2)*v1_1^2 + (log(2 + x2^2) + (1 + x2^2)^(-1))*v2_1^2"
              " + tan(0.3*x1)*v1_1*v2_1 + cosh(0.2*x2)/(2 + t1^2) + (1.5 + x1)^1.5",
        x0=[0.2, -0.1], y0=[0.5, 0.3])
    # sinh and an exponent that depends on a coordinate
    out["expr_sinh_pow_p1_n2"] = _expression(
        1, 2, "(1 + x1^2)*v1_1^2 + (2 + sinh(0.3*x2))*v2_1^2 + 0.2*v1_1*v2_1"
              " + (1.5 + x1)^(1 + 0.1*t1)",
        x0=[0.2, -0.1], y0=[0.5, 0.3])
    # velocities through a reciprocal and a chain, the two ops that widen a
    # support to every pair among its seeds
    out["expr_quotient_exp_p1_n2"] = _expression(
        1, 2, "(2 + x1^2)*v1_1^2/(3 + v2_1^2) + exp(0.2*x2*v2_1) + (1 + x2^2)*v2_1^2",
        x0=[0.2, -0.1], y0=[0.5, 0.3])
    # a t-dependent h (M != 0) under a g that depends on the velocities:
    # the T-horizontal covariant derivative of g subtracts M dg/dv terms
    out["expr_finsler_th_p1_n2"] = _expression(
        1, 2, "(2 + x1^2)*v1_1^2/(3 + v2_1^2) + (1 + x2^2)*v2_1^2 + 0.1*v1_1^4 + 0.2*t1*x1*v2_1",
        h={"kind": "expression", "entries": [["1 + t1^2"]], "signature": [1, 0]},
        x0=[0.2, -0.1], y0=[0.5, 0.3])
    # velocity-linear terms: the expression backend's U and its curl are
    # nonzero, and F depends on x and t
    out["expr_potentials_p2_n2"] = potentials_config()
    # the builtin backend with a t-dependent g and a U whose curl is
    # nonzero: every term of the p >= 2 canonical N is nonzero
    out["electrodynamics_curl_p3_n2"] = curled_potentials_config()
    out["expr_p3_n2"] = _expression(
        3, 2, "v1_1^2 + v1_2^2 + v1_3^2 + (1 + x1^2)*(v2_1^2 + v2_2^2 + v2_3^2)")
    out["abort_x1"] = _harmonic_p1([["x1"]], 0.3, -1.0)
    out["abort_x1_sq"] = _harmonic_p1([["x1^2"]], 0.3, -1.0)
    # g = 1, and x'' = 2 x^3 overflows near t = 1
    out["abort_overflow"] = dict(_expression(1, 1, "v1_1^2 + x1^4"),
                                 solver={"t_end": 2.0, "dt": 0.01,
                                         "initial": {"t": 0.0, "x": [1.0], "y": [1.0]}})
    # regular extremals: |det g| = e^(-3 x1) falls below 1 % of its start,
    # and the benchmark's extremal job at five times its dt
    out["scaled_flat_p1_n3"] = scaled_flat_config()
    out["extremal_job_dt005"] = extremal_job_config()
    out["extremal_job_dt005"]["solver"]["dt"] = 0.05
    # x'' = (t - 0.5)^2 vanishes at the sample t = 0.5
    out["accel_zero_p1"] = dict(_expression(1, 1, "v1_1^2 + 2*(t1 - 0.5)^2*x1"),
                                solver={"t_end": 1.0, "dt": 0.01,
                                        "initial": {"t": 0.0, "x": [0.0], "y": [0.0]}})
    out["nan_lagrangian"] = nan_lagrangian_config()
    # finite on its samples, NaN at the point: connection's spray check
    out["nan_at_point"] = nan_at_point_config()
    out["nan_h_p1_n1"] = nan_h_config()
    out["quotient_h_p1_n2"] = quotient_h_config()
    out["indefinite_h"] = {
        "dims": {"p": 2, "n": 1},
        "lagrangian": {"kind": "harmonic", "g_entries": [["1 + x1^2"]]},
        "temporal_metric": {"kind": "expression", "entries": [["0", "1"], ["1", "0"]],
                            "signature": [1, 1]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
    }
    # every entry of h depends on t, as in the lattice benchmark
    out["offdiag_h_p2_n2"] = {
        "dims": {"p": 2, "n": 2},
        "lagrangian": {"kind": "harmonic",
                       "g_entries": [["1 + 0.3*x2^2", "0.1"], ["0.1", "1 + 0.2*x1^2"]]},
        "temporal_metric": {"kind": "expression",
                            "entries": [["1 + 0.4*t1^2", "0.15*t1*t2"],
                                        ["0.15*t1*t2", "1 + 0.3*t2^2"]],
                            "signature": [2, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 2},
    }
    # 1 + c t_a^2 on the diagonal and b t_a t_b off it (c = b = 3, positive
    # definite as c >= b and c + 2b >= 0): a p = 3 h whose pivoted sweep can
    # round the two triangles of the inverse differently, where a
    # mirrored inverse moves the numbers that read its lower triangle
    out["offdiag_h_p3_n2"] = {
        "dims": {"p": 3, "n": 2},
        "lagrangian": {"kind": "harmonic",
                       "g_entries": [["1 + 0.3*x2^2", "0.1"], ["0.1", "1 + 0.2*x1^2"]]},
        "temporal_metric": {"kind": "expression",
                            "entries": [["1 + 3*t1^2", "3*t1*t2", "3*t1*t3"],
                                        ["3*t1*t2", "1 + 3*t2^2", "3*t2*t3"],
                                        ["3*t1*t3", "3*t2*t3", "1 + 3*t3^2"]],
                            "signature": [3, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 2},
    }
    return out


def residual_configs() -> dict:
    """Name -> config of the lattices that run ``residual``."""
    from conftest import (
        corpus_config,
        non_block_regular_lattice_config,
        non_finite_lattice_configs,
        potentials_config,
    )

    def lattice(cfg, shape, box, maps):
        return dict(cfg, grid={"shape": shape, "box": box, "map": maps})

    return non_finite_lattice_configs() | {
        "lattice_not_block_regular_p2_n3": non_block_regular_lattice_config(),
        # three mixed pairs
        "lattice_p3_n2": lattice(
            corpus_config("non_autonomous", 3, 2, count=4), [5, 6, 5],
            [[-0.5, 0.5], [-0.4, 0.6], [0.0, 1.0]],
            ["0.2 + 0.3*sin(t1)*cos(t2) + 0.1*t3^2", "0.1*t1*t2*t3 - 0.2*cos(t3)"]),
        "lattice_nonsquare_constant_p2_n3": lattice(
            corpus_config("autonomous", 2, 3, count=4), [7, 5], [[-0.6, 0.6], [0.0, 0.8]],
            ["0.3", "0.2*sin(t1) + 0.1*t2", "0.1*t1*t2 - 0.2"]),
        "lattice_expr_potentials_p2_n2": lattice(
            potentials_config(), [6, 6], [[-0.5, 0.5], [-0.5, 0.5]],
            ["0.3*cos(t1) + 0.1*t2", "0.2*t1*t2 + 0.1"]),
        # g = [[1, x1/2], [x1/2, -(2 + x2^2)]] has its negative pivot last,
        # and x1 = 0.5*t1 is exactly zero on the middle column of nodes
        "lattice_expr_indefinite_p2_n2": lattice(
            _expression(2, 2, "v1_1^2 + v1_2^2 - (2 + x2^2)*(v2_1^2 + v2_2^2)"
                              " + x1*(v1_1*v2_1 + v1_2*v2_2)"),
            [7, 5], [[-1.0, 1.0], [0.0, 0.5]], ["0.5*t1", "0.3*sin(t2) + 0.1*t1*t2"]),
    }


def _point(cfg: dict) -> str:
    p, n = cfg["dims"]["p"], cfg["dims"]["n"]
    ts = ",".join(f"{0.1 * (a + 1):g}" for a in range(p))
    xs = ",".join(f"{0.5 + 0.1 * i:g}" for i in range(n))
    vs = ",".join(f"{0.3 - 0.2 * k:g}" for k in range(n * p))
    return f"t={ts};x={xs};v={vs}"


def runs(tmp: str) -> list:
    """(name, argv) for every run of the comparison set, its configs
    written into ``tmp``."""
    out = []
    for name, cfg in configs().items():
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out.append((name, ["analyze", "--config", path]))
        out.append((name, ["verify", "--config", path]))
        out.extend((name, [cmd, "--config", path, "--point", _point(cfg)])
                   for cmd in POINT_COMMANDS)
        if "solver" in cfg:
            out.append((name, ["extremal", "--config", path]))
    for name, cfg in residual_configs().items():
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out.append((name, ["residual", "--config", path]))
    from workloads import WORKLOADS

    for seed in WORKLOAD_SEEDS:
        for workload in WORKLOADS.values():
            for job in workload.generate(seed, Path(tmp, f"seed{seed}")):
                out.append((f"{workload.name}-{job.index} seed {seed}",
                            [str(a) for a in job.argv]))
    return out


def _run_one(src: str, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "jetlag", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _ulps(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf

    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return float(abs(key(a) - key(b)))


def _record(moved: dict, key: str, old: float, new: float):
    count, worst, widest = moved.get(key, (0, 0.0, 0.0))
    moved[key] = (count + 1, max(worst, _ulps(old, new)), max(widest, abs(new - old)))


def _walk(old, new, path: str, moved: dict, text: list):
    """Compare two JSON values; numbers that moved go to ``moved`` (path ->
    (count, worst ulp, largest absolute difference), list indices collapsed
    to []), anything else to ``text``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key not in new:
                text.append(f"{sub}: only in old")
            elif key not in old:
                text.append(f"{sub}: only in new")
            else:
                _walk(old[key], new[key], sub, moved, text)
    elif isinstance(old, list) and isinstance(new, list):
        if all(isinstance(e, dict) and "name" in e for e in old + new):
            # named records, such as verify's checks, match by name
            _walk({e["name"]: e for e in old}, {e["name"]: e for e in new}, path, moved, text)
            return
        if len(old) != len(new):
            text.append(f"{path}: length {len(old)} -> {len(new)}")
        for a, b in zip(old, new):
            _walk(a, b, f"{path}[]", moved, text)
    elif (isinstance(old, (int, float)) and isinstance(new, (int, float))
          and not isinstance(old, bool) and not isinstance(new, bool)):
        if repr(float(old)) != repr(float(new)):
            _record(moved, path, float(old), float(new))
    elif old != new:
        text.append(f"{path}: {old!r} -> {new!r}")


def _compare_lines(old: str, new: str, label: str, moved: dict, text: list):
    """Line-by-line comparison of CSV output or a stderr summary."""
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        text.append(f"{label}: {len(a)} lines -> {len(b)} lines")
    for k, (la, lb) in enumerate(zip(a, b)):
        if la == lb:
            continue
        na, nb = _NUMBER.findall(la), _NUMBER.findall(lb)
        if _NUMBER.sub("#", la) != _NUMBER.sub("#", lb) or len(na) != len(nb):
            text.append(f"{label} line {k + 1}: {la!r} -> {lb!r}")
            continue
        for col, (x, y) in enumerate(zip(na, nb)):
            if x != y:
                _record(moved, f"{label} column {col + 1}", float(x), float(y))
    for line in a[len(b):]:
        text.append(f"{label} only in old: {line!r}")
    for line in b[len(a):]:
        text.append(f"{label} only in new: {line!r}")


def compare(old: tuple, new: tuple) -> tuple:
    """(moved numbers, text differences) between two (code, stdout, stderr)."""
    moved, text = {}, []
    if old[0] != new[0]:
        text.append(f"exit code {old[0]} -> {new[0]}")
    try:
        _walk(json.loads(old[1]), json.loads(new[1]), "", moved, text)
    except ValueError:
        _compare_lines(old[1], new[1], "stdout", moved, text)
    _compare_lines(old[2], new[2], "stderr", moved, text)
    return moved, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    trees = [str(Path(s).resolve()) for s in (args.old_src, args.new_src)]
    sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench"), trees[1]]
    with tempfile.TemporaryDirectory() as tmp:
        plan = runs(tmp)
        with ThreadPoolExecutor(2) as pool:
            results = [[pool.submit(_run_one, src, argv) for src in trees] for _, argv in plan]
            results = [(a.result(), b.result()) for a, b in results]
    identical = 0
    for (name, argv), (old, new) in zip(plan, results):
        if old == new:
            identical += 1
            continue
        moved, text = compare(old, new)
        print(f"--- {argv[0]} {name}")
        for key, (count, ulp, widest) in moved.items():
            print(f"  moved {key}: {count} numbers, at most {ulp:g} ulp, "
                  f"largest difference {widest:.3g}")
        for line in text:
            print(f"  TEXT {line}")
    print(f"{identical} of {len(plan)} runs byte-identical")
    return 0 if identical == len(plan) else 1


if __name__ == "__main__":
    sys.exit(main())
