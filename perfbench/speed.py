"""Host speed, sampled while the program runs, to rescale the gated times.

The benchmark machine is shared.  Its speed swings by up to 1.8x, for
seconds to minutes at a time, and process CPU time swings with it (the
slowdown is not stolen time), so raw wall times of the same code drift by
more than any useful bound between two sets of runs.  The gated times are
therefore given at a reference speed.  While an operation runs, a SIGALRM
timer runs a fixed pure-Python chunk (``chunk``) every ``interval`` seconds
and records how long it took.  The operation's wall time, less the time of
the chunks inside it, is scaled by ``REF_CHUNK_S`` / mean chunk time.  The
chunk does not touch the program, so a change to the program moves the
rescaled time as it moves the raw one.

    probe = SpeedProbe()
    with probe.sampling():
        t0 = time.perf_counter(); work(); wall = time.perf_counter() - t0
    ref_seconds = probe.rescale(wall)
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# the chunk's time on the 2-vCPU machine the benchmark was tuned on
# (CPython 3.11); it only fixes the scale of the rescaled times
REF_CHUNK_S = 3.0e-4


def chunk() -> float:
    """Seconds taken by a fixed pure-Python integer loop.  It keeps no data,
    so its time does not depend on the program's heap or caches: chunks
    that allocate objects or walk a large table ran up to 1.9x slower
    inside the heavier workloads, which would let a change to the
    program's memory use move the rescaled time by itself."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Chunk timings taken during one or more timed windows."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.inside = 0.0            # chunk seconds that fell inside the windows
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:               # a late alarm while a chunk runs
            return
        self._busy = True
        try:
            dt = chunk()
            self.samples.append(dt)
            self.inside += dt
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Sample during the block, plus one chunk on either side of it, so
        that even a block shorter than ``interval`` has samples."""
        self.samples.append(chunk())
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(chunk())

    def rescale(self, wall: float) -> float:
        """``wall`` less the chunks run inside it, at the reference speed."""
        return (wall - self.inside) * REF_CHUNK_S / statistics.fmean(self.samples)
