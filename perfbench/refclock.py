"""Wall time read at a fixed reference CPU speed.

On a shared machine the CPU speed can swing by 1.7x in phases of a few
seconds as other tenants load the host.
Raw wall times of 30 s runs then differ by 10-20% from run to run, far more
than the changes the benchmark has to detect. So every time the benchmark
reports is converted to reference seconds.

While a `RefClock` runs, an interval timer interrupts the process every
PERIOD_S and times a fixed probe. After the run, `converter()` maps any
`time.perf_counter()` reading taken during it to reference seconds: between
two probes the reference clock advances at REFERENCE_PROBE_S over the median
time of the four probes around that gap, times the wall rate, and it stands
still while a probe runs. On a CPU that runs the probe in REFERENCE_PROBE_S
it reads wall seconds; on a CPU twice as fast it reads twice the wall time,
so a run measures the same whether it met fast or slow phases.
"""
import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.025
PROBE_LOOPS = 6_000
PROBE_ARRAY_OPS = 60
REFERENCE_PROBE_S = 1e-3


def probe():
    """Wall time of a fixed amount of interpreter and small-array work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(PROBE_ARRAY_OPS):
        a = np.sqrt(a * a + 1.0) - np.abs(a).max()
    return time.perf_counter() - t0


class RefClock:
    """Records probes while `running()`; converts readings afterwards."""

    def __init__(self):
        self.probes = []                 # (perf_counter at start, duration)

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self.probes.append((start, probe()))

    @contextmanager
    def running(self):
        """Probe at the start, every PERIOD_S, and at the end of the block."""
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()

    def converter(self):
        """A function from a perf_counter reading to reference seconds."""
        starts = [s for s, _ in self.probes]
        ends = [s + d for s, d in self.probes]
        durations = [d for _, d in self.probes]
        last = len(self.probes) - 1
        rates = [
            REFERENCE_PROBE_S / statistics.median(durations[max(i - 1, 0):i + 3])
            for i in range(last + 1)
        ]
        at_start = [0.0]                 # reference reading at each probe start
        for i in range(last):
            at_start.append(at_start[-1] + (starts[i + 1] - ends[i]) * rates[i])

        def to_ref(t):
            i = max(bisect.bisect_right(starts, t) - 1, 0)
            return at_start[i] + max(t - ends[i], 0.0) * rates[i]

        return to_ref
