"""Host-speed reference for the benchmark's timings.

The reference box is a shared VM whose speed drifts by tens of percent
over seconds to minutes, and process CPU time drifts with it: the
slowdown is the neighbours' load on shared hardware, not lost time
slices.  So while a workload measures, this script runs beside it as a
sampler: every ``INTERVAL_S`` it times a fixed pure-Python probe
in thread CPU time (waiting for a core does not count) and keeps the
sample.  Afterwards each timed operation is converted to *reference
seconds*: its wall seconds times ``REFERENCE_S`` over the mean probe
time of the samples taken around it.  On a host at the nominal speed
the two are equal; the raw wall seconds go to the run record.  The
probe is benchmark code only, so no change to the program can move it,
and it keeps one core about a tenth busy.

The cores of the reference box also change speed apart from each other,
between a fast and a slow phase about 1.7x apart that last a fraction
of a second.  A sampler left to the scheduler wakes on whichever core is
idle, which is not the one a single-threaded compile runs on.  So the
compile workloads run one sampler pinned to each core
(:class:`CoreSpeeds`), keep their measuring thread on the first core,
and weigh the cores by where an operation's work ran.  Warm hits, a few
milliseconds each, are scaled by a short probe run in the measuring
thread itself between every few of them (:func:`probe_cpu_s`).

Run as a script it prints ``sampling``, samples until a line (or the
end) arrives on standard input, then prints its samples as one JSON list
of ``[perf_counter, probe_cpu_s]``.
``time.perf_counter`` is the system-wide monotonic clock, so the worker
can place the samples on its own timeline.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import subprocess
import sys
import time
from typing import List, Optional, Tuple

#: The probe's loop count and its CPU time on the reference box at a
#: typical speed (Python 3.11, 2-core VM): the unit of reference seconds.
PROBE_LOOPS = 12_000
REFERENCE_S = 0.006
INTERVAL_S = 0.05
#: Samples within this many seconds of an operation describe its speed
#: (an operation shorter than the interval still gets about ten).
PAD_S = 0.25
#: The in-thread probe: a quarter of the sampler's, about 1.5 ms.
SHORT_PROBE_LOOPS = 3_000


def _probe_work(loops: int) -> int:
    table = {}
    acc = 0
    for i in range(loops):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i & 63))
    return acc


def probe_cpu_s() -> float:
    """Thread CPU seconds of one short probe run in the calling thread."""
    begin = time.thread_time()
    _probe_work(SHORT_PROBE_LOOPS)
    return time.thread_time() - begin


def short_scale(before: float, after: float) -> float:
    """Reference seconds per thread-CPU second between two short probes."""
    return 2 * REFERENCE_S * SHORT_PROBE_LOOPS / PROBE_LOOPS / (before + after)


def sample_until_stdin() -> List[Tuple[float, float]]:
    print("sampling", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        begin = time.thread_time()
        _probe_work(PROBE_LOOPS)
        samples.append((time.perf_counter(), time.thread_time() - begin))
    return samples


class HostSpeed:
    """The sampler process of one measured region, optionally on one core."""

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.samples: List[Tuple[float, float]] = []
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})
        if self.process.stdout.readline().strip() != "sampling":
            self.close()
            raise RuntimeError("the host-speed sampler did not start")

    def stop(self) -> None:
        """End the sampler and collect its samples."""
        try:
            out, _ = self.process.communicate("stop\n", timeout=30)
        except subprocess.TimeoutExpired:
            self.close()
            raise RuntimeError("the host-speed sampler did not stop")
        self.samples = [tuple(sample) for sample in json.loads(out)]

    def close(self) -> None:
        """Kill the sampler if it still runs (a run that failed midway)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def scale(self, begin: float, end: float) -> float:
        """Reference seconds per wall second over ``[begin, end]``."""
        low = bisect.bisect_left(self.samples, (begin - PAD_S,))
        high = bisect.bisect_right(self.samples, (end + PAD_S,))
        if high <= low:
            raise RuntimeError("no host-speed samples around a timed operation")
        return REFERENCE_S * (high - low) / sum(cpu for _, cpu in self.samples[low:high])


class CoreSpeeds:
    """One sampler per core; the calling thread keeps the first core.

    Use as a context manager around the measured region: on exit the
    samplers stop and the thread gets its cores back.  Threads and
    processes started before entering keep every core.
    """

    def __init__(self) -> None:
        self.cores = sorted(os.sched_getaffinity(0))
        self.speeds: List[HostSpeed] = []

    def __enter__(self) -> "CoreSpeeds":
        os.sched_setaffinity(0, {self.cores[0]})
        try:
            for core in self.cores:
                self.speeds.append(HostSpeed(core))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, set(self.cores))
        try:
            if exc and exc[0] is None:
                for speed in self.speeds:
                    speed.stop()
        finally:
            for speed in self.speeds:
                speed.close()

    @property
    def samples(self) -> int:
        return sum(len(speed.samples) for speed in self.speeds)

    def scale(self, begin: float, end: float, thread_cpu_s: float) -> float:
        """Reference seconds per wall second of an operation over ``[begin, end]``.

        The measuring thread's share of the wall time (*thread_cpu_s* over
        it) ran on the first core; the rest (pool workers, or waiting) is
        spread over every core.
        """
        own = min(1.0, thread_cpu_s / max(end - begin, 1e-9))
        every = sum(speed.scale(begin, end) for speed in self.speeds) / len(self.speeds)
        return own * self.speeds[0].scale(begin, end) + (1.0 - own) * every


if __name__ == "__main__":
    json.dump(sample_until_stdin(), sys.stdout)
