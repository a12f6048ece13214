"""Host-speed sampling, so that timings taken on a shared host compare.

On the shared 2-core VM where the benchmark was written, the CPU speed a
process gets moves by up to 1.7x within seconds as other tenants load the
host, with no steal time: identical children differed by 30% in wall time
and in CPU time alike.  Medians over the few fresh-process children that
fit in one run could not hide that, and runs of the same code spread past
the bounds.

:class:`Sampler` therefore times a fixed reference loop every
``INTERVAL_S`` from a ``SIGALRM`` handler, in the measured process and on
its core.  Timing a region with it excludes the samples and rescales each
stretch between two samples by ``REF_S`` over the loop's mean duration at
its two ends: the region's time at the reference speed.  The loop creates
no container objects, so it never triggers the cyclic garbage collector
in the middle of the program's work.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from time import perf_counter

INTERVAL_S = 0.1
PROBE_ROUNDS = 1000
# Median duration of one probe on the 2-core Intel Xeon VM where the
# benchmark was written, Python 3.11.7.  Only the scale of the rescaled
# times depends on it.
REF_S = 0.64e-3

_MASK = (1 << 64) - 1
_SLOTS = dict.fromkeys(range(1024), 0)


def probe() -> float:
    """Duration of one pass of the reference loop: integer and dict work."""
    start = perf_counter()
    x, slots = 1, _SLOTS
    for _ in range(PROBE_ROUNDS):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        k = x >> 54
        slots[k] ^= x & 0xFFFF
    return perf_counter() - start


class Sampler:
    """Probes taken every ``INTERVAL_S`` between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []
        # Cumulative raw and rescaled time outside the probes, up to the
        # start of each probe, filled in by stop().
        self._raw: list[float] = []
        self._scaled: list[float] = []

    def _sample(self, *_) -> None:
        self.starts.append(perf_counter())
        self.probes.append(probe())

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        raw = scaled = 0.0
        self._raw, self._scaled = [0.0], [0.0]
        for i in range(1, len(self.starts)):
            gap = self.starts[i] - self.starts[i - 1] - self.probes[i - 1]
            raw += gap
            scaled += gap * self._factor(i - 1)
            self._raw.append(raw)
            self._scaled.append(scaled)

    def _factor(self, i: int) -> float:
        """Reference over local speed between probe ``i`` and the next."""
        return REF_S / ((self.probes[i] + self.probes[i + 1]) / 2)

    def _at(self, t: float) -> tuple[float, float]:
        """Cumulative (raw, rescaled) time outside the probes up to ``t``."""
        i = bisect_right(self.starts, t) - 1
        if i < 0:
            raise ValueError("time before the first probe")
        gap = max(0.0, t - self.starts[i] - self.probes[i])
        if i == len(self.starts) - 1:
            if gap > 0:
                raise ValueError("time after the last probe")
            return self._raw[i], self._scaled[i]
        return self._raw[i] + gap, self._scaled[i] + gap * self._factor(i)

    def time(self, begin: float, end: float) -> tuple[float, float]:
        """Raw and rescaled time spent in ``[begin, end]`` outside the probes."""
        raw0, scaled0 = self._at(begin)
        raw1, scaled1 = self._at(end)
        return raw1 - raw0, scaled1 - scaled0
