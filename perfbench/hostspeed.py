"""Host-speed probes: wall time rescaled to the host's quiet speed.

The benchmark runs on a few shared cores of a host whose other tenants
slow it down in phases lasting seconds: a fixed pure-Python loop runs
about 1.7 times slower in them, and one ten-second run can spend
anything from a tenth to most of its time in them.  Wall time alone
then spreads by about 20% (IQR/median) between runs of the same code.

:class:`Sampler` runs a small fixed loop (:func:`probe`) from a
``SIGALRM`` handler every :data:`INTERVAL` seconds of the run, in the
same thread as the program, and records how long it took in thread CPU
time (so waiting for the GIL or the scheduler is not counted as host
slowness).  :meth:`Sampler.quiet_seconds` rescales a stretch of wall
time slice by slice: each slice between two probes counts as its
length times ``NOMINAL_PROBE_S / probe time``, with the probe time a
running median of its neighbours, and probe time itself is left out.
The result is the stretch's length in seconds of a host that runs the
probe in :data:`NOMINAL_PROBE_S` -- its quiet speed.  In fourteen runs
of ``stream-replay`` on a 2-vCPU Xeon VM, with a probe after every
replay step, wall time spread 0.16 IQR/median and rescaled time 0.04.

A program change that slows the program slows it at every host speed,
so it shows in the rescaled time as it would in wall time; the probe
never calls the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between probes.
INTERVAL = 0.01
#: Probes on each side in the running median of probe times.
HALF_WINDOW = 5
#: The probe time the rescaled figures are expressed at: a fixed
#: reference that sets their unit, not their spread.  It is about the
#: probe's fastest time on a 2-vCPU Xeon VM (156-164 us).
NOMINAL_PROBE_S = 160e-6


def probe() -> float:
    """Thread CPU seconds of a fixed pure-Python loop."""
    cpu = time.thread_time()
    total = 0
    for i in range(3000):
        total += i * i % 7
    return time.thread_time() - cpu


class Sampler:
    """Probes host speed from a timer signal while it is started."""

    def __init__(self) -> None:
        #: ``(wall start, wall end, thread CPU seconds)`` per probe.
        self.samples: List[Tuple[float, float, float]] = []
        self._factors: List[float] = []
        self._starts: List[float] = []

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        cpu = probe()
        self.samples.append((started, time.perf_counter(), cpu))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _settle(self) -> int:
        """Bring the per-probe factors up to the probes taken so far
        (while started, the last few see fewer neighbours after them)."""
        n = len(self.samples)
        for i in range(max(0, len(self._factors) - HALF_WINDOW), n):
            window = self.samples[max(0, i - HALF_WINDOW):
                                  min(n, i + HALF_WINDOW + 1)]
            # Quiet-speed seconds per wall second around probe i.
            factor = NOMINAL_PROBE_S / statistics.median(
                cpu for _, _, cpu in window)
            if i < len(self._factors):
                self._factors[i] = factor
            else:
                self._factors.append(factor)
                self._starts.append(self.samples[i][0])
        return n

    def quiet_seconds(self, begin: float, end: float) -> float:
        """The wall stretch ``[begin, end]`` (``perf_counter`` times) at
        the host's quiet speed, probe time left out."""
        n = self._settle()
        if not n:
            return end - begin
        total = 0.0
        # Slice k runs from the end of probe k-1 to the start of probe
        # k (slice 0 from -inf, slice n to +inf); it takes the mean
        # factor of the probes around it.
        first = max(0, bisect.bisect_right(self._starts, begin) - 1)
        for k in range(first, n + 1):
            lo = self.samples[k - 1][1] if k else float("-inf")
            hi = self.samples[k][0] if k < n else float("inf")
            if lo >= end:
                break
            overlap = min(hi, end) - max(lo, begin)
            if overlap > 0:
                around = self._factors[max(0, k - 1):k + 1]
                total += overlap * sum(around) / len(around)
        return total
