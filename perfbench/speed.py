"""Normalized timing: a fixed reference kernel sampled on the program's core.

The host's speed drifts in phases of several seconds, so raw seconds of
one run do not repeat within a tenth. A timer signal interrupts the program
every ``PERIOD`` seconds and runs a fixed kernel from this file on the same
thread; the kernel's duration measures the host's current speed. Each timed
interval is then reported as

    program seconds * reference kernel seconds / mean kernel seconds in the interval

where program seconds exclude the time spent in the kernel. The kernel has
four parts, one for each kind of work the workloads do: small-array numpy
calls, pure interpreter bytecode, an array broadcast larger than the L1
cache and first writes to freshly mapped pages. All four run in every
sample; a workload is normalized by the parts that match its own work.
"""

from __future__ import annotations

import mmap
import signal
import statistics
import time
import tracemalloc

import numpy as np

PERIOD = 0.05

_rng = np.random.default_rng(20180919)
_SMALL = _rng.standard_normal((20, 20))
_BIG = _rng.standard_normal((50, 50))
# preallocated, so the kernel never asks the allocator for large blocks:
# whether those are mapped fresh depends on what the program freed before
_CUBE = np.empty((50, 50, 50))
# page faults come from an explicit anonymous mapping, made afresh on every
# run, so they do not depend on the allocator's state either
_FRESH_BYTES = 1 << 20


def _small_numpy():
    X = _SMALL.copy()
    for _ in range(100):
        X = np.clip(X - 0.01 * (X - 0.05 * (_SMALL @ X)), -3.0, 3.0)
        float(np.linalg.norm(X))


def _bytecode():
    s = 0
    for i in range(15000):
        s += i * i % 7


def _broadcast():
    np.subtract(_BIG[:, None, :], _BIG[None, :, :], out=_CUBE)
    np.square(_CUBE, out=_CUBE)
    float(_CUBE.sum(axis=2).max())


def _fresh_pages():
    with mmap.mmap(-1, _FRESH_BYTES) as fresh:
        fresh[:: mmap.PAGESIZE] = b"\1" * (_FRESH_BYTES // mmap.PAGESIZE)


PARTS = {
    "small_numpy": _small_numpy,
    "bytecode": _bytecode,
    "broadcast": _broadcast,
    "fresh_pages": _fresh_pages,
}

# median seconds of each part on the reference machine (2-core KVM guest,
# Python 3.11.7, numpy 2.4.6); they only set the scale of normalized seconds
REFERENCE_S = {"small_numpy": 0.0012, "bytecode": 0.0011, "broadcast": 0.0004, "fresh_pages": 0.0007}


class Mark:
    """A reading of the program clock and the kernel part totals at one instant."""

    __slots__ = ("clock", "part_s", "samples")

    def __init__(self, clock, part_s, samples):
        self.clock = clock
        self.part_s = part_s
        self.samples = samples


class SpeedSampler:
    """Runs the kernel from a ``SIGALRM`` timer while it is started and
    normalizes by the parts named in ``used``."""

    def __init__(self, used):
        self.used = [list(PARTS).index(name) for name in used]
        self.reference_s = sum(REFERENCE_S[name] for name in used)
        self.paused = 0.0  # wall seconds spent inside the handler
        self.part_s = [0.0] * len(PARTS)
        self.samples = 0
        self.durations = []  # per sample, of the used parts

    def _tick(self, signum, frame):
        # a kernel's arrays must not count as the traced call's memory
        if tracemalloc.is_tracing():
            return
        t0 = time.perf_counter()
        durations = []
        for part in PARTS.values():
            t = time.perf_counter()
            part()
            durations.append(time.perf_counter() - t)
        for i, d in enumerate(durations):
            self.part_s[i] += d
        self.samples += 1
        self.durations.append(sum(durations[i] for i in self.used))
        self.paused += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def clock(self) -> float:
        """Wall seconds minus the seconds spent in the kernel."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def mark(self) -> Mark:
        while True:
            samples = self.samples
            mark = Mark(self.clock(), tuple(self.part_s), samples)
            if samples == self.samples:
                return mark

    def part_means(self, m0: Mark, m1: Mark) -> dict:
        """Mean seconds of each kernel part between two marks."""
        count = max(m1.samples - m0.samples, 1)
        return {name: (m1.part_s[i] - m0.part_s[i]) / count for i, name in enumerate(PARTS)}

    def kernel_mean(self, m0: Mark, m1: Mark) -> float:
        """Mean seconds of the used parts between two marks (the run's median if none)."""
        count = m1.samples - m0.samples
        if count:
            return sum(m1.part_s[i] - m0.part_s[i] for i in self.used) / count
        return statistics.median(self.durations) if self.durations else self.reference_s

    def normalize(self, seconds: float, m0: Mark, m1: Mark) -> float:
        return seconds * self.reference_s / self.kernel_mean(m0, m1)
