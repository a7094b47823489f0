"""Host pace: a fixed reference chunk, timed all through a run.

The benchmark host is a shared VM whose speed drifts: a pure-Python
loop runs up to 2x slower for stretches of seconds to minutes, with
CPU time equal to wall, so no clock separates the program from the
host.  A run therefore carries its own yardstick.  While it measures,
a timer signal interrupts the program every ``PERIOD_S`` seconds and
runs one *chunk*: ``CHUNK_OPS`` heap operations of fixed, pure-Python
reference work that shares no code with the simulator.  The chunk's
duration is the host's current pace.

:meth:`Pacer.reference_time` turns one timed section into seconds at
the reference pace: the section's wall, minus the chunks that ran
inside it, times ``REFERENCE_CHUNK_S`` over the mean chunk duration
around the section.  Raw walls are still kept and printed beside it.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

#: heap operations in one reference chunk
CHUNK_OPS = 1000

#: seconds between two chunks while the pacer runs
PERIOD_S = 0.05

#: chunks that start this close to a section also set its pace, so a
#: set-up build of a few milliseconds still has several chunks to go by
WINDOW_S = 0.25

#: one chunk's duration at the reference pace (the quietest stretch seen on a
#: 2-vCPU Xeon VM, Python 3.11).  A value in reference seconds is close
#: to the wall that host gives when nothing else loads it.
REFERENCE_CHUNK_S = 0.7e-3


class Pacer:
    """Times a reference chunk every ``PERIOD_S`` while entered.

    ``with Pacer() as pacer:`` installs a ``SIGALRM`` handler and an
    interval timer, and removes both on exit.  ``start[i]`` and
    ``duration[i]`` (host seconds, ``time.perf_counter``) describe
    chunk ``i``; starts are increasing.
    """

    def __init__(self) -> None:
        self.start: list[float] = []
        self.duration: list[float] = []
        self._heap = list(range(0, 2 * CHUNK_OPS, 2))
        self._counts = [0] * 64
        self._busy = False
        self._previous = None
        for _ in range(20):  # warm the chunk's code before it is timed
            self.chunk()

    def chunk(self) -> None:
        """The reference work: a pseudo-random heap walk over ints only,
        so that it allocates nothing the cyclic collector tracks."""
        heap, counts = self._heap, self._counts
        pop, push = heapq.heappop, heapq.heappush
        x = 12345
        for _ in range(CHUNK_OPS):
            t = pop(heap)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            counts[x & 63] += 1
            push(heap, t + (x & 1023))
        heap[:] = range(0, 2 * CHUNK_OPS, 2)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a chunk is skipped
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.chunk()
            t1 = time.perf_counter()
            self.start.append(t0)
            self.duration.append(t1 - t0)
        finally:
            self._busy = False

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_time(self, t0: float, t1: float) -> float:
        """Seconds at the reference pace for the section ``[t0, t1)``.

        The chunks that started inside the section are taken off its
        wall; the mean duration of the chunks that started within
        ``WINDOW_S`` of it is the section's pace (the nearest chunk when
        none did).  NaN when the pacer recorded no chunk at all.
        """
        if not self.start:
            return float("nan")
        i0 = bisect.bisect_left(self.start, t0)
        i1 = bisect.bisect_left(self.start, t1)
        own = t1 - t0 - sum(self.duration[i0:i1])
        lo = bisect.bisect_left(self.start, t0 - WINDOW_S)
        hi = bisect.bisect_left(self.start, t1 + WINDOW_S)
        if lo == hi:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.start)]
            lo = min(near, key=lambda i: abs(self.start[i] - t0))
            hi = lo + 1
        pace = statistics.fmean(self.duration[lo:hi])
        return own * REFERENCE_CHUNK_S / pace
