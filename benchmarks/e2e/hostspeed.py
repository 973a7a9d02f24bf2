"""How fast the host is, sampled while the program runs.

On a shared VM the same work takes 15-30 % longer in one minute than in
the next.  :func:`reference_loop` is a fixed piece of interpreter-bound
work; :class:`Sampler` runs it on an interval timer in the measuring
thread itself, so every timed call has samples taken *during* it, on
the core it ran on.  ``workloads.py`` divides host seconds by them.
"""

from __future__ import annotations

import heapq
import signal
import time

#: what one :func:`reference_loop` takes on the box the workload sizes
#: were chosen on (2.1 GHz Xeon, nothing else running); host seconds are
#: reported scaled to this speed
REFERENCE_LOOP_S = 0.00105
#: seconds between samples: with a ~1 ms loop, 4 % of the measured thread
INTERVAL_S = 0.025


def reference_loop(n=2_000) -> float:
    """Seconds this host takes for a fixed piece of work shaped like the
    simulator's inner loop (generators resumed off a heap, a dict updated
    per event) and using none of its code."""
    def process(k):
        t = 0.0
        while True:
            t = yield t + 1e-6 * (k & 7) + 1e-6
    calendar = []
    for k in range(64):
        p = process(k)
        heapq.heappush(calendar, (next(p), k, p))
    resumed = {}
    t0 = time.perf_counter()
    for _ in range(n):
        now, k, p = heapq.heappop(calendar)
        resumed[k] = resumed.get(k, 0) + 1
        heapq.heappush(calendar, (p.send(now), k, p))
    return time.perf_counter() - t0


class Sampler:
    """Runs :func:`reference_loop` every ``INTERVAL_S`` seconds from a
    SIGALRM handler, between two bytecodes of whatever the main thread is
    doing.  Forked children do not inherit the timer."""

    def __init__(self):
        self.samples = []       # (handler start, handler end, loop seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        loop_s = reference_loop()
        self.samples.append((t0, time.perf_counter(), loop_s))

    def start(self, periodic=True):
        """Take one sample now and, if ``periodic``, arm the timer."""
        reference_loop()                        # the first one runs cold
        self._tick(None, None)
        if periodic:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # not SIG_DFL: a tick still on its way would end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
