"""Host-speed reference: a fixed piece of pure-Python work sampled while the program runs.

The benchmark shares a few cores of a busy host whose speed changes by tens
of percent from one fraction of a second to the next, and from one minute to
the next.  A pure-Python loop slows as much as the program does, but a loop
timed before and after a call that lasts seconds misses what happened in
between.  So `Sampler` runs `unit()` from a wall-clock timer signal, every
INTERVAL_S, in the same thread as the program (between two of its bytecodes),
and the harness reports each time metric in reference seconds: the measured
seconds, less the time spent in samples, times REF_UNIT_S over the mean unit
time sampled during them.  A change to the program moves the measured
seconds and leaves the unit time alone, so the ratio keeps the change and
cancels the host.  Raw seconds are reported beside them.

`unit()` calls nothing of the program and allocates no container objects,
so neither the program's code nor the garbage its heap leaves behind can
change the unit time.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median unit time on a 2-core Intel Xeon (Python 3.11) in a quiet phase of
# its host; it only sets the scale of reference seconds.
REF_UNIT_S = 0.0013

INTERVAL_S = 0.025

_WIDTH = 11342  # bits, as wide as the lob-4 universe masks
_FULL = (1 << _WIDTH) - 1
_A = int.from_bytes(bytes(range(256)) * (_WIDTH // 2048 + 1), "little") & _FULL
_B = _A ^ (_FULL >> 7)
_TABLE = dict.fromkeys(range(256), 0)


def unit() -> int:
    """Integer arithmetic, wide bit-mask operations and dict stores."""
    table, a, b, s = _TABLE, _A, _B, 0
    for i in range(1500):
        s = (s * 31 + i) & 0xFFFFFFFF
        table[i & 255] = s
        a = (a ^ (b >> (i & 63))) & _FULL
        if a & 1:
            s += 1
    return s ^ (a & 0xFFFF)


class Sampler:
    """Times unit() on SIGALRM every INTERVAL_S of wall time between start and stop.

    A signal that arrives while a sample runs is dropped, so a slow host
    lengthens the gaps instead of stacking samples.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        unit()
        self.samples.append(time.perf_counter() - started)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self, first: int = 0, end: int | None = None) -> tuple[float, float]:
        """REF_UNIT_S over the mean unit time of samples[first:end], and their total time.

        Without samples the scale is 1: the time stays in raw seconds.
        """
        window = self.samples[first:end]
        if not window:
            return 1.0, 0.0
        return REF_UNIT_S / statistics.fmean(window), sum(window)
