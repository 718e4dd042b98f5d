"""The host's speed, sampled while a job runs, to express job times in ref_s.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x over fractions of a second to minutes, as neighbouring load comes and
goes; the guest sees this neither as steal time nor in its CPU clocks.  Wall
times of the same work then spread by 20-30 % between runs.

While a job runs, a SIGALRM every ``PERIOD_S`` runs one pass of a fixed
pure-Python reference computation in this process's main thread and records
the thread CPU time the pass took.  A job's time in reference seconds is

    job_ref_s = job wall time (without the passes) * PASS_S / mean pass time

so a host that is twice as slow during the job doubles both the wall time
and the mean pass time, and job_ref_s stays put.  One ref_s is one second at
the speed at which a pass takes ``PASS_S``, about the speed of an unloaded
core of the 2-vCPU x86-64 VM the benchmark was defined on.  The pass is
measured in thread CPU time, so waiting for the GIL or for a core while the
program runs threads or processes of its own does not count as slowness.

The reference code is the benchmark's own; nothing a change to the program
does can make it faster or slower, short of making the host busier.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.01
PASS_S = 3.0e-4


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def mul(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)


def reference_pass() -> float:
    """A fixed mix of what the program spends its time on: small objects,
    method calls, float arithmetic, a math call, dict and list updates."""
    acc = _Pair(1.0, 0.0)
    table, column = {}, []
    for i in range(300):
        q = _Pair(1.0 + i * 1e-3, 0.5).mul(acc)
        acc = _Pair(q.a * 0.999, math.sin(q.b))
        table[i & 15] = acc.a
        column.append(acc.b)
    return sum(column)


class SpeedSampler:
    """Runs reference passes on a timer between ``start`` and ``stop``.
    Only one may be open at a time; ``close`` restores the previous SIGALRM
    handler."""

    def __init__(self):
        self._passes: list = []
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        reference_pass()
        self._passes.append(time.thread_time() - cpu)
        self._spent += time.perf_counter() - wall

    def start(self) -> None:
        self._passes = []
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple:
        """Disarm; returns (wall seconds spent in passes during the job, each
        pass's CPU seconds).  A job shorter than PERIOD_S gets one pass now."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        spent = self._spent
        if not self._passes:
            self._on_alarm(signal.SIGALRM, None)
        return spent, self._passes

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
