"""Host speed, measured by a fixed reference kernel run between ops.

On a shared host the CPU can run at speeds far apart, switching every few
seconds, for pure-Python and numpy code alike.  A raw time then measures
the host's speed state as much as the program.  The benchmark therefore
runs a fixed kernel of its own (``reference_ns``) between ops and scales
every time to the reference speed: a time ``t`` measured while the kernel
took ``k`` ns counts as ``t * REFERENCE_NS / k``.  The kernel does the
same kinds of work as the program (``Fraction`` and big-integer
arithmetic, small containers, a numpy array op) and never calls the
program, so a change to the program cannot move it.

The process is pinned to one CPU, and its children inherit the pin, so the
kernel and the ops it scales run on the same CPU.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction as F

import numpy as np

# The kernel's time (ns) at the reference speed: between its times in the
# fast (0.9 ms) and slow (1.5 ms) states of a shared 2-vCPU Intel Xeon
# (Python 3.11.7, numpy 2.4.6).
REFERENCE_NS = 1_200_000
# Half-width of the kernel's numpy array.  numpy scans slow down less than
# pure-Python code when the host is in its slow state; with the array op at
# about two fifths of the kernel's time, the ratio of op time to kernel time
# varied by 4 % (one standard deviation) over three minutes of state switches
# on that host, for Fraction analyses, cone searches, torus iterates and
# square-value searches alike, against 1.8x for the raw times; a kernel
# with a quarter of the array varied by 4-7 %, one without numpy by 4-8 %.
ARRAY_HALF_WIDTH = 120
REPEATS = 3


def pin() -> int:
    """Pin this process (and the children it starts) to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _kernel() -> int:
    x, acc, seen = F(1, 3), 0, {}
    for i in range(1, 120):
        x = x * F(i, i + 2) + F(1, i)
        acc += (i * 7919) ** 5 % 65537
        seen[i % 17] = seen.get(i % 17, 0) + 1
    a = np.arange(-ARRAY_HALF_WIDTH, ARRAY_HALF_WIDTH + 1, dtype=np.int64)
    acc += int(((a[:, None] * a[None, :] - 3) % 5 == 0).sum())
    return acc + len(seen) + x.denominator % 3


def reference_ns() -> int:
    """The kernel's time now: fastest of a few runs, so that one interrupt
    does not count."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        _kernel()
        t = time.perf_counter_ns() - t0
        best = t if best is None else min(best, t)
    return best


class Clock:
    """Kernel timings taken between ops, and the scale factor of each op."""

    def __init__(self, every_ns: int):
        self.every_ns = every_ns
        self.marks: list[tuple[int, int]] = []  # (ops done before it, kernel ns)
        self._last = 0

    def maybe_mark(self, done: int) -> None:
        now = time.perf_counter_ns()
        if not self.marks or now - self._last >= self.every_ns:
            self.mark(done)

    def mark(self, done: int) -> None:
        self.marks.append((done, reference_ns()))
        self._last = time.perf_counter_ns()

    def factors(self, n: int) -> list[float]:
        """Scale factor of op i: REFERENCE_NS over the mean of the kernel
        timings taken just before and just after it."""
        out, j = [], 0
        for i in range(n):
            while j + 1 < len(self.marks) and self.marks[j + 1][0] <= i:
                j += 1
            before = self.marks[j][1]
            after = self.marks[j + 1][1] if j + 1 < len(self.marks) else before
            out.append(2 * REFERENCE_NS / (before + after))
        return out
