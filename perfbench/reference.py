"""A fixed stdlib workload timed between benchmark ops, to which the
end-to-end timings are normalized.

On the host the baseline was measured on, the same code runs up to 1.8x
slower for stretches of seconds to minutes.  It is not steal time: CPU
time slows with wall time, as under contention for a shared core.  A run
of tens of seconds cannot average that out, so raw timings from runs made
a few minutes apart differ by more than any useful regression bound.

So the benchmark times a fixed chunk of Fraction-and-dict work, the kind
of pure-Python work the program does, before the first op, after the last
and between ops at most ``REF_EVERY_S`` apart.  Each op's wall and CPU
times are scaled to a host whose chunk takes ``REF_NOMINAL_S``:

    normalized = raw * REF_NOMINAL_S / (mean chunk time near the op)

A slow stretch of the host slows the op and the chunks around it alike and
cancels out; a program change that makes ops slower or faster moves the
normalized figure by the same factor, since the chunk does not use the
program.  The raw figures are printed beside the normalized ones.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

__all__ = ["ReferenceClock", "reference_chunk", "REF_NOMINAL_S"]

# A round figure near the chunk's time on the 2-vCPU Xeon host the baseline
# was measured on, at full speed (9-10 ms; 14-15 ms in its slow
# stretches).  It only sets the scale.
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.5
# Samples this close to an op, on either side, describe the host's speed
# during it.
REF_WINDOW_S = 1.0

_F0 = Fraction(0)


def reference_chunk() -> dict:
    acc: dict = {}
    for i in range(1, 4000):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, _F0) + Fraction(i % 7 + 1, i % 11 + 1)
    return acc


class ReferenceClock:
    """Samples of the reference chunk's wall and CPU time, by time taken."""

    def __init__(self):
        self.mid: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._last = float("-inf")
        reference_chunk()  # warm-up, not recorded

    def sample(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        reference_chunk()
        t1, c1 = time.perf_counter(), time.process_time()
        self.mid.append((t0 + t1) / 2)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self._last = t1

    def tick(self) -> None:
        """Take a sample unless one was taken in the last ``REF_EVERY_S``."""
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """Factors that normalize wall and CPU times measured over [t0, t1]:
        from the samples within ``REF_WINDOW_S`` of it, and always the
        nearest sample on each side."""
        lo = min(bisect_left(self.mid, t0 - REF_WINDOW_S), max(bisect_left(self.mid, t0) - 1, 0))
        hi = max(bisect_right(self.mid, t1 + REF_WINDOW_S), min(bisect_right(self.mid, t1) + 1, len(self.mid)))
        n = hi - lo
        return REF_NOMINAL_S * n / sum(self.wall[lo:hi]), REF_NOMINAL_S * n / sum(self.cpu[lo:hi])
