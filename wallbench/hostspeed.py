"""Host speed, sampled by a fixed kernel on a wall-clock timer.

The host this benchmark was built on changes speed by up to 2.7x in phases
that last from under a second to tens of seconds (README, "Noise").  A
25-second run cannot average that out: identical runs of one workload
spread 13-47% in wall time.  So while the program is timed, a SIGALRM
every ``PERIOD_S`` runs a small kernel that belongs to the benchmark, not
the program, twice, and records how long the second run took.  The first
warms the caches the program left cold, so the sample does not depend on
the program's memory footprint.  The handler runs in the main thread
between the program's bytecodes, so its samples fall inside the timed
windows, spread over them in time.

A timed window's *own time* is its wall time minus the handler's time
inside it.  Its *reference time* is its own time divided by the slowdown:
the mean sample over the window, widened to ``MIN_SPAN_S`` if shorter (or,
if none fell there, the nearest on each side), over ``REF_UNIT_S``.  A change to the program moves its own time and
not the kernel's, so it shows in full.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

perf = time.perf_counter

#: one kernel unit's median time on the reference host (2 vCPUs, Xeon,
#: Python 3.11.7, numpy 2.4.6, one BLAS thread) in its usual speed mode
REF_UNIT_S = 0.0005
#: the timer's period: two units every 25 ms take 3-4% of the host
PERIOD_S = 0.025
#: a shorter window's slowdown is taken over this span around it, so it
#: rests on about ten samples; the host's speed modes last longer
MIN_SPAN_S = 0.25

_A = np.random.default_rng(0).uniform(-1.0, 1.0, size=(48, 48))


def kernel_unit() -> float:
    """Interpreter work and small numpy products, the program's own mix."""
    acc = 0.0
    d: dict[int, int] = {}
    for i in range(48):
        for j in range(40):
            key = (i + j) % 61
            d[key] = d.get(key, 0) + j
        b = _A[: 16 + i % 32, :24] @ _A[:24, :16]
        acc += float(np.abs(b).max())
    return acc + len(d)


class HostSpeed:
    """Timer-driven kernel samples; ``with host:`` turns the timer on."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each handler call started, ascending
        self.took: list[float] = []  # how long the call took
        self.unit: list[float] = []  # how long its second, timed unit took

    def _on_alarm(self, signum, frame) -> None:
        # a collection the program's garbage is due would land in the
        # sample and be taken off the program's time: leave it to the program
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf()
        kernel_unit()
        t1 = perf()
        kernel_unit()
        t2 = perf()
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.took.append(t2 - t0)
        self.unit.append(t2 - t1)

    def __enter__(self) -> HostSpeed:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)

    def own(self, t0: float, t1: float) -> float:
        """Wall time from ``t0`` to ``t1`` less the samples taken in it."""
        i, j = self._inside(t0, t1)
        return t1 - t0 - sum(self.took[i:j])

    def slowdown(self, t0: float, t1: float) -> float:
        """How many times slower than the reference the host ran from ``t0`` to ``t1``."""
        pad = max(0.0, MIN_SPAN_S - (t1 - t0)) / 2
        i, j = self._inside(t0 - pad, t1 + pad)
        if i == j:  # no sample there: the nearest on each side
            i, j = max(i - 1, 0), min(j + 1, len(self.took))
        return statistics.fmean(self.unit[i:j]) / REF_UNIT_S

    def at_ref(self, t0: float, t1: float) -> float:
        """The window's own time at the reference speed."""
        return self.own(t0, t1) / self.slowdown(t0, t1)
