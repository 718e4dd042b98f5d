"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py        # about a minute on two cores

* a short smoke run of every workload with its output checks,
* exact call counts of the traced layers on each workload, identical
  between two traced runs,
* every metric named in BENCHMARK.json is emitted, by both modes,
* reference passes run while a job runs, and a timed set-up between
  cycles leaves the modules the jobs run on in place,
* outside a full checkout the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from speedref import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import EXTREMAL_STEPS, LATTICE_SHAPE, WORKLOADS  # noqa: E402

SEED = 11


def _interior_nodes() -> int:
    count = 1
    for s in LATTICE_SHAPE:
        count *= s - 2
    return count


# Exact calls per job of a traced name; a name left out is not checked.
EXPECTED_PER_JOB = {
    "extremal_p1": {
        "cli.run": 1,
        "extremal.integrate_extremal": 1,
        "extremal.trajectory_el_residuals": 1,
        "connection.spray_data": 5 * EXTREMAL_STEPS - 1,   # 4 per RK4 step + 1 per interior sample
        "regularity.hessian_blocks": 6 * EXTREMAL_STEPS - 2,
        "report.csv_row": EXTREMAL_STEPS + 1,
        "regularity.kronecker_test": 0,
        "cartan.coefficients_at": 0,
        "curvature.torsion_table": 0,
        "curvature.curvature_table": 0,
    },
    "lattice_p2": {
        "cli.run": 1,
        "extremal.harmonic_residual": 1,
        "connection.spray_data": _interior_nodes(),
        "regularity.hessian_blocks": _interior_nodes(),
        "metric_engine.h_christoffel_values": 2 * _interior_nodes(),
        "regularity.kronecker_test": 0,
        "cartan.coefficients_at": 0,
        "curvature.curvature_table": 0,
    },
    "verify_mix": {
        "cli.run": 1,
        "verify.run_checks": 1,
        "regularity.kronecker_test": 1,
        "curvature.torsion_table": 4,    # two audit points + two antisymmetry points
        "curvature.curvature_table": 4,
        "extremal.integrate_extremal": 0,
    },
}


def _set_up(name: str, workdir: Path):
    workload = WORKLOADS[name]
    cli, jobs, _ = run.set_up(workload, SEED, workdir)
    return workload, cli, jobs


def _traced_cycle(cli, jobs):
    """Per-job call counts of one traced pass over ``jobs``, and its records."""
    tracer = Tracer(sys.modules["jetlag"])
    records, per_job = [], []
    tracer.install()
    try:
        for job in jobs:
            before = tracer.counts()
            run.run_cycle(cli, [job], records, tracer)
            after = tracer.counts()
            per_job.append({k: v - before.get(k, 0) for k, v in after.items()})
    finally:
        tracer.remove()
    return per_job, records


def _run_cli(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class BenchmarkTests(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        self.addCleanup(shutil.rmtree, self.tmp)

    def test_smoke_and_exact_counts(self):
        for name, expected in EXPECTED_PER_JOB.items():
            with self.subTest(workload=name):
                workload, cli, jobs = _set_up(name, self.tmp / name)
                jobs = jobs[:2]
                first, records = _traced_cycle(cli, jobs)
                second, more = _traced_cycle(cli, jobs)
                self.assertEqual(run.check_records(workload, records + more), [])
                self.assertEqual(first, second, "traced counts differ between two runs")
                for counts in first:
                    for traced_name, want in expected.items():
                        self.assertEqual(counts.get(traced_name, 0), want, traced_name)

    def test_tracer_restores_every_binding(self):
        _, cli, _ = _set_up("lattice_p2", self.tmp / "restore")
        connection = sys.modules["jetlag.connection"]
        extremal = sys.modules["jetlag.extremal"]
        original = connection.gcal_values
        tracer = Tracer(sys.modules["jetlag"])
        tracer.install()
        try:
            self.assertIs(extremal.gcal_values, connection.gcal_values)
            self.assertIsNot(connection.gcal_values, original)
            self.assertEqual(tracer.unpatched_bindings(), [])
        finally:
            tracer.remove()
        self.assertIs(connection.gcal_values, original)
        self.assertIs(extremal.gcal_values, original)

    def test_reference_passes_run_during_a_job(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = SpeedSampler()
        try:
            sampler.start()
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            spent, passes = sampler.stop()
            sampler.start()
            short_spent, short_passes = sampler.stop()
        finally:
            sampler.close()
        self.assertGreaterEqual(len(passes), 5)
        self.assertTrue(all(t > 0 for t in passes))
        self.assertTrue(0 < spent < 0.2)
        self.assertEqual((short_spent, len(short_passes)), (0.0, 1))  # a job shorter than a period
        self.assertIs(signal.getsignal(signal.SIGALRM), before)

    def test_timed_set_up_keeps_the_running_modules(self):
        workload, cli, jobs = _set_up("extremal_p1", self.tmp / "again")
        self.assertGreater(run.time_set_up(workload, SEED, self.tmp / "again"), 0)
        self.assertIs(sys.modules["jetlag.cli"], cli)
        records = []
        run.run_cycle(cli, jobs[:1], records)
        self.assertEqual(run.check_records(workload, records), [])

    def test_every_named_metric_is_emitted(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = _run_cli(["--workload", "lattice_p2", "--seed", str(SEED),
                                 "--seconds", "0", "--trace", str(trace)])
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})
                for metric in spec[key]:
                    self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_fails_without_sources(self):
        bare = self.tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run_cli(["--workload", "lattice_p2", "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
