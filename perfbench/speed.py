"""Machine speed, from a fixed pure-Python loop, for scaling measured times.

A shared host changes this machine's speed by up to +-20% for tens of
seconds at a time.  The loop below slows with the program: over 10 s
windows of a 150 s run on a 2-vCPU VM, the medians of three builtin
requests (numpy-heavy plane search, Z[T] chain, matrix chain) varied with a
coefficient of variation of 0.14-0.17, and their ratio to the loop's time in
the same windows varied by 0.03-0.04.  So the benchmark runs the loop
between requests and reports every time at the speed of a reference
machine, on which one iteration of the loop takes REF_NS_PER_ITER.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_NS_PER_ITER = 100.0
SAMPLE_ITERS = 50_000  # one sample: about 6 ms on the VM above
NEIGHBOURS = 5  # samples around a request that give its local speed


def calibrate(iters: int = 1_000_000) -> float:
    """Seconds taken by a fixed pure-Python loop of `iters` iterations."""
    t = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def ns_per_iter() -> float:
    return calibrate(SAMPLE_ITERS) / SAMPLE_ITERS * 1e9


class Speed:
    """Calibration samples taken through a timed phase, in time order."""

    def __init__(self):
        self.at = []  # perf_counter time of each sample's midpoint
        self.ns = []  # its ns per iteration

    def sample(self):
        t = time.perf_counter()
        ns = ns_per_iter()
        self.at.append(t + ns * SAMPLE_ITERS / 2e9)
        self.ns.append(ns)

    def factor(self, t: float | None = None) -> float:
        """Reference time per measured time: from the NEIGHBOURS samples
        nearest to time t, or from every sample when t is None."""
        window = self.ns
        if t is not None:
            k = bisect.bisect(self.at, t)
            lo = max(0, min(k - NEIGHBOURS // 2, len(self.ns) - NEIGHBOURS))
            window = self.ns[lo:lo + NEIGHBOURS]
        return REF_NS_PER_ITER / statistics.median(window)
