"""The host's speed, sampled while a workload runs.

The benchmark shares a few cores of a host with other tenants, and
their load slows the program by up to half, in phases of seconds to
minutes.  Every ``PERIOD_S`` a ``SIGALRM`` handler times a fixed probe
that does not touch the program: Python-level function calls with float
arithmetic, and ``statistics.variance`` (pure-Python ``Fraction``
arithmetic).  Like the program, the probe is interpreter-bound code with
many calls, so contention slows it as it slows the program; an integer
loop or a pointer chase tracked the program's slowdowns less closely.
A timed interval is then reported twice: as measured, and adjusted to
the host speed at which the probe takes ``REFERENCE_S``::

    adjusted = (measured - probe time inside) * mean(REFERENCE_S / probe)

over the samples taken inside the interval.  The probe's code never
changes with the program, so a change to the program moves the adjusted
time as it moves the measured one on a quiet host.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between samples.
PERIOD_S = 0.1

#: Calls of the float function per sample, and the data whose variance
#: each sample computes.
CALLS = 1_000
DATA = [i * 0.37 for i in range(12)]

#: Seconds of one sample (the geometric mean of its two parts) on the
#: quiet host the bounds were set on: a 2-core VM, CPython 3.11.
REFERENCE_S = 2.0e-4


def _step(x: float, y: float) -> float:
    return math.sqrt(x * x + 1.0) / (1.0 + abs(y) * 1e-9)


class HostSpeed:
    """Samples the probe every ``PERIOD_S`` between :meth:`start` and
    :meth:`stop`, in the main thread."""

    def __init__(self) -> None:
        #: Start time of each sample, and the seconds of its two parts.
        self.starts: List[float] = []
        self.parts: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        total = 0.0
        for i in range(CALLS):
            total += _step(i * 0.5, total)
        middle = clock()
        statistics.variance(DATA)
        end = clock()
        self.starts.append(start)
        self.parts.append((middle - start, end - middle))

    def adjusted(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]``, less the probe time inside it, at
        the reference host speed.  An interval with no sample inside
        takes the speed of the first sample after it, or of the last."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = self.parts[first:last]
        probe_s = sum(a + b for a, b in inside)
        if not inside:
            if not self.parts:
                raise RuntimeError("no host-speed sample taken")
            inside = [self.parts[min(first, len(self.parts) - 1)]]
        speed = sum(REFERENCE_S / math.sqrt(a * b)
                    for a, b in inside) / len(inside)
        return (end - start - probe_s) * speed
