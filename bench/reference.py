"""The reference computation that measures how fast the host runs right now.

On a shared VM the host's speed drifts: neighbours slow every pure-Python
computation by up to ~1.7x, for seconds to minutes at a time.
The benchmark runs this fixed stdlib-only computation between cases and
divides each time it reports by the reference's local time, then multiplies
by NOMINAL_S.  A time so corrected reads as the time the run would have taken
with the reference at NOMINAL_S; the host's drift divides out, while a change
to qcluster does not touch the reference.

The reference multiplies sparse polynomials held in dicts of ints, the kind
of work qcluster's Laurent arithmetic does.  On a shared 2-vCPU VM its time
tracked a qcluster case's time far more closely than a plain integer loop's.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# A fixed scale: roughly the reference's time on a 2-vCPU x86_64 VM with
# Python 3.11 that is not slowed, so corrected times are close to its seconds.
NOMINAL_S = 0.004
# Each case time is divided by the median of this many reference runs, the
# ones nearest to the case's midpoint.
NEIGHBOURS = 5


def probe() -> float:
    """Seconds one run of the reference computation takes.

    Garbage collection is off while it runs, so the program's heap cannot
    make the reference slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        a = {i: (i * 7919) % 1000 + 1 for i in range(60)}
        for _ in range(6):
            c = {}
            for i, x in a.items():
                for j, y in a.items():
                    c[i + j] = c.get(i + j, 0) + x * y
            a = {k: v % 1000003 for k, v in c.items() if k < 60}
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe_median(runs: int) -> float:
    return statistics.median(probe() for _ in range(runs))


class Timeline:
    """Reference runs taken during a measurement, looked up by time."""

    def __init__(self, samples):
        """samples: (midpoint on the perf_counter clock, seconds), in time order."""
        self.times = [t for t, _ in samples]
        self.seconds = [s for _, s in samples]

    def correct(self, start: float, duration: float) -> float:
        """`duration` corrected by the reference runs nearest to its midpoint."""
        mid = start + duration / 2
        i = bisect.bisect_left(self.times, mid)
        window = range(max(0, i - NEIGHBOURS), min(len(self.times), i + NEIGHBOURS))
        nearest = sorted(window, key=lambda j: abs(self.times[j] - mid))[:NEIGHBOURS]
        return duration * NOMINAL_S / statistics.median(self.seconds[j] for j in nearest)
