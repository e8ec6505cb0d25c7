"""The host's speed, read from a reference loop that the benchmark owns.

On a shared host the same solve runs up to about a third slower for tens of
seconds at a time, so a whole run can land in a slow spell.  Medians inside
a run remove the jitter between solves but not such a spell.  The benchmark
therefore times a short breadth-first search over a fixed 24x24 grid,
written here and not in pathpack, between its timed calls (about every
50 ms, and once more before and after every timed stretch).  A call that
took t seconds while the reference took r seconds around it is reported as
t * (NOMINAL_S / r) ** exponent: seconds at the reference speed, with the
workload's exponent (workloads.SCALE_EXPONENT).  No change to pathpack can
change the reference, because it runs none of pathpack's code.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import deque

SIDE = 24
# The reference's median time on the 2-vCPU host where the baseline in
# README.md was taken; it only sets the scale of the reported seconds.
NOMINAL_S = 0.2e-3
EVERY_S = 0.05    # least time between two reference samples
WINDOW_S = 0.5    # samples this close to a timed interval describe it
TIMED = 3         # timed searches per sample, after one untimed warm-up

clock = time.perf_counter


def _grid(side: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(side * side)]
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                adj[v].append(v + 1)
                adj[v + 1].append(v)
            if r + 1 < side:
                adj[v].append(v + side)
                adj[v + side].append(v)
    return adj


GRID = _grid(SIDE)


def reference() -> int:
    """Breadth-first search of GRID from vertex 0; returns the eccentricity."""
    dist = {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in GRID[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return max(dist.values())


class Speed:
    """Reference samples over a run: when each was taken and how long the
    reference took."""

    def __init__(self, exponent: float = 1.0):
        self.exponent = exponent
        self.stamps: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        reference()  # the solves before it may have evicted GRID from cache
        times = []
        for _ in range(TIMED):
            t0 = clock()
            reference()
            times.append(clock() - t0)
        self.stamps.append(clock())
        self.times.append(statistics.median(times))

    def tick(self) -> None:
        """Take a sample if the last one is EVERY_S old."""
        if not self.stamps or clock() - self.stamps[-1] >= EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Median reference time around [t0, t1] over NOMINAL_S: above 1 when
        the host ran slow.  Uses the samples within WINDOW_S of the interval,
        and at least the nearest one on each side."""
        stamps = self.stamps
        lo = min(bisect.bisect_left(stamps, t0 - WINDOW_S),
                 max(0, bisect.bisect_left(stamps, t0) - 1))
        hi = max(bisect.bisect_right(stamps, t1 + WINDOW_S),
                 min(len(stamps), bisect.bisect_right(stamps, t1) + 1))
        return statistics.median(self.times[lo:hi]) / NOMINAL_S

    def scaled(self, t0: float, t1: float) -> float:
        """The duration of [t0, t1] in seconds at the reference speed."""
        return (t1 - t0) / self.factor(t0, t1) ** self.exponent
