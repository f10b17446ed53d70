"""The host's speed while the jobs run, from a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts by a third and more
over seconds to minutes, CPU time as much as wall time.  Between jobs the
run times a small pure-Python kernel that does not touch alexinv (Fraction
elimination and dict polynomial products, the kind of work alexinv does) and
divides each job's time by the kernel's time around it.  Multiplied by
``REFERENCE_S``, a job's time then reads in seconds at the speed at which the
kernel takes ``REFERENCE_S``: a change to alexinv moves it, a change in the
host's speed much less.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Seconds of one kernel call on the 2-core host the benchmark was added on,
# when that host ran at full speed (CPython 3.11.7).
REFERENCE_S = 0.85e-3
# Seconds between samples while jobs run.
EVERY_S = 0.05
# A job's kernel time is the mean of the samples taken from this many seconds
# before it starts to this many after it ends.
WINDOW_S = 0.5


def kernel():
    """Fixed work: the rank of a 6x7 Fraction matrix and a product of five
    bivariate binomials as dicts."""
    n = 6
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(n + 1)]
         for i in range(n)]
    rank = 0
    for c in range(n + 1):
        piv = next((r for r in range(rank, n) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        for r in range(n):
            if r != rank and m[r][c] != 0:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    p = {(0, 0): 1}
    for e in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)):
        q = {}
        for k, v in p.items():
            for kk, vv in (((0, 0), -1), (e, 1)):
                key = (k[0] + kk[0], k[1] + kk[1])
                q[key] = q.get(key, 0) + v * vv
        p = {k: v for k, v in q.items() if v}
    return rank, len(p)


class Speedometer:
    """Kernel timings, one call each, with the time they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.seconds.append(t1 - t0)

    def tick(self):
        """Sample if none was taken in the last EVERY_S seconds."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean kernel time of the samples within WINDOW_S of the span from
        ``start`` to ``end``, and at least of the last sample before it and
        the first after it; the caller samples before its first span and
        after its last."""
        lo = min(bisect.bisect_left(self.at, start - WINDOW_S),
                 bisect.bisect_right(self.at, start) - 1)
        hi = max(bisect.bisect_right(self.at, end + WINDOW_S),
                 bisect.bisect_left(self.at, end) + 1)
        return statistics.fmean(self.seconds[lo:hi])
