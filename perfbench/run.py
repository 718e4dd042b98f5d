"""Closed-loop benchmark of the jetlag command line.

    python3 perfbench/run.py --workload extremal_p1 --seed 3 --seconds 20 --trace 0

Run from the repository root.  One client in this process issues jobs back
to back; each job is one in-process ``jetlag.cli.run([...])`` on a config
file generated from ``--seed`` (see workloads.py).  Jobs run in whole cycles
over the generated configs until ``--seconds`` have passed and at least the
workload's minimum job count is done.  Every output is checked after the
timed loop.  ``JETLAG_THREADS`` is removed from the environment so the
program's default worker count applies.  Job times are reported in ref_s,
wall seconds rescaled by the host's speed sampled during each job (see
speedref.py); the raw wall times go to the result file.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see tracer.py), which alternates untraced and traced cycles.
The metric names and units come from BENCHMARK.json.  Details -- config
hashes, environment, per-job times, trace spans -- go to
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speedref
from speedref import SpeedSampler
from tracer import Tracer
from workloads import MIN_JOBS, TAIL_QUANTILE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Set-ups timed before the first job, and after every cycle of a measuring
# run, so that setup_s sees the host's speed over the whole run.
SETUP_REPS = 5
SETUP_REPS_PER_CYCLE = 2
# A run starts no further cycle once this much time has passed, whatever its
# minimum job count, so that it ends within about two minutes even when the
# program has become several times slower.
HARD_STOP_S = 120.0


def _purge_jetlag() -> None:
    for key in [k for k in sys.modules if k == "jetlag" or k.startswith("jetlag.")]:
        del sys.modules[key]


def set_up_once(workload, seed: int, workdir: Path):
    """Import jetlag afresh, write the seed's config files and assemble each
    one.  Returns (cli module, jobs, seconds)."""
    start = time.perf_counter()
    _purge_jetlag()
    cli = importlib.import_module("jetlag.cli")
    config = importlib.import_module("jetlag.config")
    jobs = workload.generate(seed, workdir)
    for job in jobs:
        config.assemble(config.load_config(str(job.config_path)))
    return cli, jobs, time.perf_counter() - start


def set_up(workload, seed: int, workdir: Path):
    """SETUP_REPS set-ups.  Returns (cli module, jobs, set-up times)."""
    times = []
    for _ in range(SETUP_REPS):
        cli, jobs, seconds = set_up_once(workload, seed, workdir)
        times.append(seconds)
    return cli, jobs, times


def time_set_up(workload, seed: int, workdir: Path) -> float:
    """One more timed set-up; afterwards the jetlag modules the jobs run on
    are back in sys.modules, warm as they were."""
    kept = {k: m for k, m in sys.modules.items() if k == "jetlag" or k.startswith("jetlag.")}
    try:
        return set_up_once(workload, seed, workdir)[2]
    finally:
        _purge_jetlag()
        sys.modules.update(kept)


def run_job(cli, job, sampler=None):
    """One timed job: returns (seconds, exit code or None, stdout, stderr,
    reference pass times).  With a sampler, reference passes run during the
    job and their time is left out of its seconds.  A full collection first
    gives every job the same garbage-collector state, so collector pauses do
    not land on whichever job comes next."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, not a benchmark error
            code = None
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    passes = []
    if sampler is not None:
        spent, passes = sampler.stop()
        seconds -= spent
    return seconds, code, out.getvalue(), err.getvalue(), passes


def run_cycle(cli, jobs, records, tracer=None, sampler=None) -> float:
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.start_job(len(records))
        records.append((job,) + run_job(cli, job, sampler))
    return time.perf_counter() - start


def check_records(workload, records) -> list:
    """Failure messages (one per failed job); also requires every run of a
    config to give byte-identical output."""
    first_output = {}
    failures = []
    for number, (job, _, code, out, err, _) in enumerate(records):
        message = workload.check(job, code, out, err)
        if message is None:
            seen = first_output.setdefault(job.index, out)
            if seen != out:
                message = "output differs from an earlier run of the same config"
        if message is not None:
            failures.append(f"job {number} (config {job.index}): {message}")
    return failures


def tail(values, quantile: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "JETLAG_THREADS": os.environ.get("JETLAG_THREADS", "<cleared>"),
    }


def measure(cli, jobs, seconds: float, set_up_again) -> list:
    """Whole cycles of jobs until ``seconds`` and MIN_JOBS are reached, with
    ``set_up_again()`` after each cycle.  Returns the job records."""
    records = []
    sampler = SpeedSampler()
    try:
        start = time.perf_counter()
        while True:
            run_cycle(cli, jobs, records, sampler=sampler)
            set_up_again()
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(records) >= MIN_JOBS):
                return records
    finally:
        sampler.close()


def ref_seconds(records) -> list:
    """Each job's time in ref_s (see speedref.py)."""
    return [r[1] * speedref.PASS_S / statistics.fmean(r[5]) for r in records]


def trace(cli, jobs, seconds: float):
    """Alternate untraced and traced cycles until ``seconds`` have passed.
    Returns (records, per-layer values, counts of each traced cycle, spans)."""
    tracer = Tracer(sys.modules["jetlag"])
    records, plain_s, traced_s, cycles = [], [], [], []
    spans = None
    start = time.perf_counter()
    while not cycles or (time.perf_counter() - start < seconds
                         and time.perf_counter() - start < HARD_STOP_S / 2):
        plain_s.append(run_cycle(cli, jobs, records))
        tracer.install()
        try:
            tracer.reset()
            traced_s.append(run_cycle(cli, jobs, records, tracer))
        finally:
            tracer.remove()
        cycles.append({
            "calls": dict(zip(tracer.names, tracer.calls)),
            "repeats": dict(zip(tracer.names, tracer.repeats)),
            "self_s": dict(zip(tracer.names, tracer.self_s)),
        })
        if spans is None:
            spans = tracer.spans_json()
    first = cycles[0]
    values = {"trace.overhead_frac": statistics.median(traced_s) / statistics.median(plain_s) - 1.0}
    for name in first["calls"]:
        calls = first["calls"][name]
        values[f"{name}.calls"] = calls
        values[f"{name}.repeat_frac"] = first["repeats"][name] / calls if calls else 0.0
        values[f"{name}.self_s"] = statistics.median(c["self_s"][name] for c in cycles)
    return records, values, [c["calls"] for c in cycles], spans


def layer_value(values: dict, metric: str):
    """A per-layer metric; a traced name never called in the run reads 0."""
    if metric in values:
        return values[metric]
    if metric.rsplit(".", 1)[-1] in ("calls", "self_s", "repeat_frac"):
        return 0
    raise KeyError(metric)


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jetlag" / "cli.py").is_file():
        sys.stderr.write(f"jetlag sources not found under {SRC}; run from a full checkout\n")
        return 2
    os.environ.pop("JETLAG_THREADS", None)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401 -- imported before set-up so every repetition times the same work

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    cli, jobs, setup_times = set_up(workload, args.seed, workdir)

    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "job_size": workload.job_size, "environment": environment(),
        "configs": {job.config_path.name: job.config_sha256 for job in jobs},
        "setup_s_runs": setup_times,
    }
    if args.trace:
        records, values, cycle_counts, spans = trace(cli, jobs, args.seconds)
        result["counts_repeat"] = all(c == cycle_counts[0] for c in cycle_counts)
        result["traced_cycles"] = len(cycle_counts)
        (WORK / f"spans-{tag}.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        def set_up_again():
            for _ in range(SETUP_REPS_PER_CYCLE):
                setup_times.append(time_set_up(workload, args.seed, workdir))

        records = measure(cli, jobs, args.seconds, set_up_again)
    failures = check_records(workload, records)
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()

    attempted = len(records)
    failed = len(failures)
    walls = [r[1] for r in records]
    if not args.trace:
        ref_s = ref_seconds(records)
        values = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_ref_s": (attempted - failed) / sum(ref_s),
            "job_ref_s_p50": statistics.median(ref_s),
            "job_ref_s_tail": tail(ref_s, TAIL_QUANTILE),
            "peak_rss_mb": peak_rss_mb(),
        }
        result["job_ref_s_tail_percentile"] = 100 * TAIL_QUANTILE
        result["job_ref_s"] = ref_s
        result["wall_job_s_p50"] = statistics.median(walls)
        result["ref_pass_s_median"] = statistics.median(t for r in records for t in r[5])
    correct = failed == 0
    if not result.get("counts_repeat", True):
        sys.stderr.write("traced call counts differ between traced cycles\n")
    result.update({"failures": failures[:20], "job_s": walls, "values": values})
    (WORK / f"result-{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    for message in failures[:20]:
        sys.stderr.write(message + "\n")

    units = declared_metrics()[args.trace]
    try:
        metrics = {name: {"value": layer_value(values, name), "unit": unit}
                   for name, unit in units.items()}
    except KeyError as exc:
        sys.stderr.write(f"metric named in BENCHMARK.json but not measured: {exc}\n")
        return 3
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
