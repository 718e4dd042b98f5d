"""Seeded inputs and output checks of the three benchmark workloads.

Every workload is a fixed cycle of ``CYCLE_JOBS`` config files generated
from the seed.  The structure of each config (expressions, dimensions, job
size) is the same for every seed; the seed draws the coefficients, initial
data and sampling seeds, so per-job cost does not depend on the seed while
the numbers the program sees do.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Odd, and not a multiple of 4: with whole cycles and configs of unequal
# cost, the median and the 75th percentile then fall inside one config's
# times rather than on the jump between two configs.
CYCLE_JOBS = 9


@dataclass
class Job:
    """One `jetlag` invocation on one generated config file."""

    index: int
    command: str
    config_path: Path
    config_sha256: str
    spec: dict = field(default_factory=dict)  # what the checks need to know

    @property
    def argv(self) -> list:
        return [self.command, "--config", str(self.config_path)]


def _write_config(path: Path, config: dict) -> str:
    text = json.dumps(config, indent=1, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


# --- extremal_p1 ---------------------------------------------------------------

EXTREMAL_STEPS = 60
EXTREMAL_DT = 0.01
# Central differences of the stored velocities against the spray at dt = 0.01
# leave a residual of order dt^2 times the third derivative; the largest seen
# over seeds 0..39 was 7.9e-5.  Reordered sums move it far less than the
# margin; a wrong spray coefficient moves it to order 1.
EXTREMAL_MAX_EL_RESIDUAL = 1e-3


def _extremal_config(rng: random.Random) -> dict:
    n = 3
    g = [["0"] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = (f"{_u(rng, 0.8, 1.2)!r} + {_u(rng, 0.1, 0.5)!r}*x{i + 1}^2"
                   f" + {_u(rng, 0.05, 0.3)!r}*t1^2")
    for i, j in ((0, 1), (1, 2)):
        g[i][j] = g[j][i] = f"{_u(rng, -0.15, 0.15)!r}"
    u = [[f"{_u(rng, -0.4, 0.4)!r}*t1*x{(i + 1) % n + 1}"] for i in range(n)]
    f = (f"{_u(rng, -0.3, 0.3)!r}*t1*x1 + {_u(rng, -0.3, 0.3)!r}*cos(x2)"
         f" + {_u(rng, -0.3, 0.3)!r}*x3^2")
    return {
        "dims": {"p": 1, "n": n},
        "lagrangian": {"kind": "electrodynamics", "g_entries": g, "U_entries": u, "F": f},
        "temporal_metric": {"kind": "expression", "entries": [["1 + t1^2"]],
                            "signature": [1, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": rng.randrange(1 << 30)},
        "solver": {
            "t_end": EXTREMAL_STEPS * EXTREMAL_DT,
            "dt": EXTREMAL_DT,
            "initial": {"t": 0.0,
                        "x": [_u(rng, -0.5, 0.5) for _ in range(n)],
                        "y": [_u(rng, -0.8, 0.8) for _ in range(n)]},
        },
    }


def _check_extremal(job: Job, stdout: str, stderr: str) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != EXTREMAL_STEPS + 2:
        return f"expected {EXTREMAL_STEPS + 1} samples, got {len(rows) - 1}"
    values = [float(v) for row in rows[1:] for v in row]
    if not all(math.isfinite(v) for v in values):
        return "trajectory has non-finite values"
    summary = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if "aborted" in summary:
        return f"integration aborted: {summary}"
    fields = dict(part.split("=", 1) for part in summary.split() if "=" in part)
    try:
        residual = float(fields["max_el_residual"])
        steps = int(fields["steps"])
    except (KeyError, ValueError):
        return f"unreadable summary line {summary!r}"
    if steps != EXTREMAL_STEPS:
        return f"summary reports {steps} steps"
    if not residual < EXTREMAL_MAX_EL_RESIDUAL:
        return f"max_el_residual {residual} >= {EXTREMAL_MAX_EL_RESIDUAL}"
    return None


# --- lattice_p2 ----------------------------------------------------------------

LATTICE_SHAPE = (9, 9)
LATTICE_BOX = ((-1.0, 1.0), (-1.0, 1.0))
# The reference evaluates the same central differences in closed form, so the
# two differ only by rounding; relative to the residual scale this allows
# reordered floating-point sums.
LATTICE_RTOL = 1e-8


def _lattice_config(rng: random.Random) -> tuple[dict, dict]:
    n = 3
    spec = {
        "h_a": [_u(rng, 0.2, 0.6), _u(rng, 0.2, 0.6)],
        "h_b": _u(rng, -0.2, 0.2),
        "g_c": [_u(rng, 0.1, 0.5) for _ in range(n)],
        "g_d": [_u(rng, -0.15, 0.15), _u(rng, -0.15, 0.15)],
        "map": [[_u(rng, -0.5, 0.5), _u(rng, -0.6, 0.6), _u(rng, -0.6, 0.6),
                 _u(rng, -0.4, 0.4), _u(rng, 0.5, 1.5)] for _ in range(n)],
    }
    a1, a2 = spec["h_a"]
    b = spec["h_b"]
    h_entries = [[f"1 + {a1!r}*t1^2", f"{b!r}*t1*t2"],
                 [f"{b!r}*t1*t2", f"1 + {a2!r}*t2^2"]]
    g = [["0"] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = f"1 + {spec['g_c'][i]!r}*x{(i + 1) % n + 1}^2"
    for (i, j), d in zip(((0, 1), (1, 2)), spec["g_d"]):
        g[i][j] = g[j][i] = f"{d!r}"
    maps = [f"{m0!r} + {m1!r}*sin({w!r}*t1) + {m2!r}*cos({w!r}*t2) + {m3!r}*sin(t1)*cos(t2)"
            for m0, m1, m2, m3, w in spec["map"]]
    config = {
        "dims": {"p": 2, "n": n},
        "lagrangian": {"kind": "harmonic", "g_entries": g},
        "temporal_metric": {"kind": "expression", "entries": h_entries, "signature": [2, 0]},
        "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": rng.randrange(1 << 30)},
        "grid": {"shape": list(LATTICE_SHAPE), "box": [list(r) for r in LATTICE_BOX],
                 "map": maps},
    }
    return config, spec


def _inv(m):
    """Inverse of a small dense matrix by Gauss-Jordan elimination."""
    size = len(m)
    a = [list(row) + [1.0 if i == j else 0.0 for j in range(size)] for i, row in enumerate(m)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        for r in range(size):
            if r != col:
                factor = a[r][col]
                a[r] = [vr - factor * vc for vr, vc in zip(a[r], a[col])]
    return [row[size:] for row in a]


def lattice_reference(spec: dict) -> list:
    """Rows (t1, t2, x1..x3, tau1..tau3) of the harmonic-map tension
    tau^k = h^{ab}(x^k_ab - H^c_ab x^k_c + Gamma^k_ij x^i_a x^j_b) at the
    interior nodes, with x_a, x_ab from central differences of the map's
    node values and h, g, their inverses and Christoffels in closed form."""
    n, p = 3, 2
    (s1, s2) = LATTICE_SHAPE
    a1, a2 = spec["h_a"]
    b = spec["h_b"]
    gc, gd = spec["g_c"], spec["g_d"]
    spacing = [(hi - lo) / (s - 1) for (lo, hi), s in zip(LATTICE_BOX, LATTICE_SHAPE)]

    def node_t(k1, k2):
        return (LATTICE_BOX[0][0] + k1 * spacing[0], LATTICE_BOX[1][0] + k2 * spacing[1])

    def map_at(t1, t2):
        return [m0 + m1 * math.sin(w * t1) + m2 * math.cos(w * t2) + m3 * math.sin(t1) * math.cos(t2)
                for m0, m1, m2, m3, w in spec["map"]]

    values = {(k1, k2): map_at(*node_t(k1, k2)) for k1 in range(s1) for k2 in range(s2)}
    rows = []
    for k1 in range(1, s1 - 1):
        for k2 in range(1, s2 - 1):
            t1, t2 = node_t(k1, k2)
            x = values[(k1, k2)]
            idx = (k1, k2)

            def at(d1, d2):
                return values[(idx[0] + d1, idx[1] + d2)]

            first = [[0.0] * p for _ in range(n)]
            second = [[[0.0] * p for _ in range(p)] for _ in range(n)]
            steps = ((1, 0), (0, 1))
            for a in range(p):
                up, dn = at(*steps[a]), at(-steps[a][0], -steps[a][1])
                for k in range(n):
                    first[k][a] = (up[k] - dn[k]) / (2.0 * spacing[a])
                    second[k][a][a] = (up[k] - 2.0 * x[k] + dn[k]) / spacing[a] ** 2
            pp, pm, mp, mm = at(1, 1), at(1, -1), at(-1, 1), at(-1, -1)
            for k in range(n):
                mixed = (pp[k] - pm[k] - mp[k] + mm[k]) / (4.0 * spacing[0] * spacing[1])
                second[k][0][1] = second[k][1][0] = mixed

            h = [[1 + a1 * t1 * t1, b * t1 * t2], [b * t1 * t2, 1 + a2 * t2 * t2]]
            dh = [  # dh[d][a][b] = d h_ab / d t^d
                [[2 * a1 * t1, b * t2], [b * t2, 0.0]],
                [[0.0, b * t1], [b * t1, 2 * a2 * t2]],
            ]
            hinv = _inv(h)
            hch = [[[0.5 * sum(hinv[c][m] * (dh[a][m][bb] + dh[bb][m][a] - dh[m][a][bb])
                               for m in range(p))
                     for bb in range(p)] for a in range(p)] for c in range(p)]

            g = [[0.0] * n for _ in range(n)]
            dg = [[[0.0] * n for _ in range(n)] for _ in range(n)]  # dg[l][i][j]
            for i in range(n):
                j = (i + 1) % n
                g[i][i] = 1 + gc[i] * x[j] ** 2
                dg[j][i][i] = 2 * gc[i] * x[j]
            for (i, j), d in zip(((0, 1), (1, 2)), gd):
                g[i][j] = g[j][i] = d
            ginv = _inv(g)
            gamma = [[[0.5 * sum(ginv[k][m] * (dg[i][j][m] + dg[j][i][m] - dg[m][i][j])
                                 for m in range(n))
                       for j in range(n)] for i in range(n)] for k in range(n)]

            tau = []
            for k in range(n):
                acc = 0.0
                for a in range(p):
                    for bb in range(p):
                        term = second[k][a][bb]
                        term -= sum(hch[c][a][bb] * first[k][c] for c in range(p))
                        term += sum(gamma[k][i][j] * first[i][a] * first[j][bb]
                                    for i in range(n) for j in range(n))
                        acc += hinv[a][bb] * term
                tau.append(acc)
            rows.append([t1, t2] + list(x) + tau)
    return rows


def _check_lattice(job: Job, stdout: str, stderr: str) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout)))
    header = ["t1", "t2", "x1", "x2", "x3", "residual1", "residual2", "residual3"]
    if not rows or rows[0] != header:
        return f"unexpected CSV header {rows[:1]}"
    got = [[float(v) for v in row] for row in rows[1:]]
    if "reference" not in job.spec:
        job.spec["reference"] = lattice_reference(job.spec)
    want = job.spec["reference"]
    if len(got) != len(want):
        return f"expected {len(want)} interior nodes, got {len(got)}"
    scale = max(1.0, max(abs(v) for row in want for v in row))
    worst = max(abs(g - w) for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))
    if not worst <= LATTICE_RTOL * scale:
        return f"residual CSV differs from the reference by {worst:.3e} (scale {scale:.3g})"
    return None


# --- verify_mix ----------------------------------------------------------------

# (kind, p, n) of the CYCLE_JOBS configs of one cycle.  p = 1 with n = 3 is
# left out: one such verify takes 2-3.5 s, a third of a cycle.
VERIFY_MIX = (
    ("harmonic", 1, 2), ("autonomous", 1, 2), ("non_autonomous", 1, 2),
    ("harmonic", 2, 3), ("autonomous", 2, 2), ("non_autonomous", 2, 3),
    ("harmonic", 3, 2), ("autonomous", 3, 2), ("non_autonomous", 3, 2),
)
VERIFY_SAMPLES = 4


def _verify_config(rng: random.Random, kind: str, p: int, n: int) -> dict:
    if kind == "harmonic":
        h = {"kind": "flat"}
    else:
        if p == 1:
            entry = (f"exp({_u(rng, 1.5, 2.5)!r}*t1)" if kind == "autonomous"
                     else f"1 + {_u(rng, 0.5, 1.5)!r}*t1^2")
            entries = [[entry]]
        elif p == 2:
            first = "1" if kind == "autonomous" else f"1 + {_u(rng, 0.5, 1.5)!r}*t2^2"
            entries = [[first, "0"], ["0", f"1 + {_u(rng, 0.5, 1.5)!r}*t1^2"]]
        else:
            entries = [["1", "0", "0"], ["0", "1", "0"],
                       ["0", "0", f"2 + {_u(rng, 0.5, 1.0)!r}*sin(t1)"]]
        h = {"kind": "expression", "entries": entries, "signature": [p, 0]}
    g = [["0"] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = f"1 + {_u(rng, 0.5, 1.5)!r}*x{i + 1}^2"
        if kind == "non_autonomous":
            g[i][i] += f" + {_u(rng, 0.5, 1.5)!r}*t1^2"
    g[0][1] = g[1][0] = f"{_u(rng, 0.1, 0.3)!r}"
    lagrangian = {"kind": "harmonic" if kind == "harmonic" else "electrodynamics",
                  "g_entries": g}
    if kind != "harmonic":
        lagrangian["U_entries"] = [[f"{_u(rng, 0.2, 0.4)!r}*t{a + 1}*x{i + 1}" for a in range(p)]
                                   for i in range(n)]
        lagrangian["F"] = f"{_u(rng, 0.5, 1.5)!r}*t1 + {_u(rng, 0.5, 1.5)!r}*x1"
    return {
        "dims": {"p": p, "n": n},
        "lagrangian": lagrangian,
        "temporal_metric": h,
        "sampling": {"box": [-1.0, 1.0], "count": VERIFY_SAMPLES,
                     "seed": rng.randrange(1 << 30)},
    }


def _check_verify(job: Job, stdout: str, stderr: str) -> str | None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "verify report is not JSON"
    if report.get("command") != "verify":
        return f"report is for command {report.get('command')!r}"
    if report.get("passed") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        return f"verify failed: {failing}"
    return None


# --- the workload table ----------------------------------------------------------

# job_s_tail is this percentile of the per-job times; a run does at least
# MIN_JOBS jobs so that at least ten lie beyond it.
TAIL_QUANTILE = 0.75
MIN_JOBS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    job_size: str
    make_config: object   # (rng, index in cycle) -> (config, spec)
    check_output: object  # (job, stdout, stderr) -> None or a reason

    def generate(self, seed: int, workdir: Path) -> list:
        """Write the cycle's config files into ``workdir`` and return its jobs."""
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = []
        for k in range(CYCLE_JOBS):
            config, spec = self.make_config(random.Random(f"{self.name}:{seed}:{k}"), k)
            path = workdir / f"{self.name}-{k}.json"
            jobs.append(Job(k, self.command, path, _write_config(path, config), spec))
        return jobs

    def check(self, job: Job, code, stdout: str, stderr: str) -> str | None:
        """None when the job's output is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-300:]}"
        return self.check_output(job, stdout, stderr)


WORKLOADS = {
    w.name: w for w in (
        Workload("extremal_p1", "extremal",
                 f"p=1 n=3, {EXTREMAL_STEPS} RK4 steps + EL residuals",
                 lambda rng, k: (_extremal_config(rng), {}), _check_extremal),
        Workload("lattice_p2", "residual",
                 f"p=2 n=3, {LATTICE_SHAPE[0]}x{LATTICE_SHAPE[1]} lattice",
                 lambda rng, k: _lattice_config(rng), _check_lattice),
        Workload("verify_mix", "verify",
                 f"{CYCLE_JOBS}-config mix, p in 1..3, n in 2..3, K={VERIFY_SAMPLES}",
                 lambda rng, k: (_verify_config(rng, *VERIFY_MIX[k]), {}), _check_verify),
    )
}
