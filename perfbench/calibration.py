"""Host-speed calibration for times measured on a shared machine.

On a shared 2-vCPU host the same placement work ran up to twice as fast
from one minute to the next, in wall time and CPU time alike. A fixed
calibration block slows down and speeds up with the placement work (r =
0.9 over 6-s windows of M and L episodes), so times divided by the speed
the blocks measured around them vary far less from run to run.

A run samples one block after each timed piece of work, and an interval
timer adds one every BLOCK_EVERY_S inside long pieces. `HostSpeed.now` is
a clock that stops while a block runs, so the blocks cost the measured
work nothing, and `HostSpeed.scale` turns seconds measured on that clock
into seconds at the nominal host speed, at which one block takes
NOMINAL_S. One block varies by ~9 % on its own, so the scale takes the
median of the blocks within NEAR_S of the interval.

The block mixes the program's kinds of work: small NumPy operations in a
Python loop (as in hpwl, rasterize_area and smooth_wl_and_grad) and
dictionary and heap updates over a working set of ~100k entries (as in
cluster_std_cells and parse_bookshelf). It uses nothing from `macroplace`,
so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.06
BLOCK_EVERY_S = 1.0
NEAR_S = 1.0

_RNG = np.random.default_rng(0)
_POINTS = _RNG.uniform(0.0, 100.0, size=(1200, 2))
_PAIRS = _RNG.integers(0, 500, size=(3000, 2)).tolist()
_KEYS = _RNG.integers(0, 200_000, size=120_000).tolist()


def _numpy_loop() -> float:
    grid = np.zeros((64, 64))
    total = 0.0
    for lo in range(0, len(_POINTS), 4):
        seg = _POINTS[lo:lo + 4]
        total += (seg[:, 0].max() - seg[:, 0].min()) + (seg[:, 1].max() - seg[:, 1].min())
        col, row = int(seg[0, 0] * 0.6), int(seg[0, 1] * 0.6)
        grid[row:row + 3, col:col + 3] += np.outer(seg[:3, 0], seg[:3, 1])
        total += float(np.log(np.exp((seg[:, 0] - seg[:, 0].max()) / 5.0).sum()))
    return total + float(grid.sum())


def _dict_heap_loop() -> float:
    adj: dict[int, dict[int, float]] = {}
    heap: list[tuple[float, int, int]] = []
    for a, b in _PAIRS:
        row = adj.setdefault(a, {})
        row[b] = row.get(b, 0.0) + 1.0
        heapq.heappush(heap, (-row[b] / (a + b + 1), a, b))
    total = 0.0
    while heap:
        total += heapq.heappop(heap)[0]
    return total


def _large_dict() -> int:
    counts: dict[int, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    return sum(counts.values())


def block() -> float:
    """Seconds one calibration block takes now. The collector is off, so
    the time does not depend on how many objects the process holds."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            _numpy_loop()
            _dict_heap_loop()
        _large_dict()
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


class HostSpeed:
    """Calibration blocks on a timer, and a clock that excludes them.

    Use as a context manager around the timed part of a run; the timer
    runs only inside it. Not reentrant.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock time, block seconds)
        self._paused = 0.0
        self._in_block = False
        self._old_handler = None

    def now(self) -> float:
        """perf_counter minus the time spent in calibration blocks."""
        while True:
            paused = self._paused
            value = time.perf_counter() - paused
            if paused == self._paused:
                return value

    def sample(self, *_signal_args) -> None:
        if self._in_block:
            return
        self._in_block = True
        try:
            at = self.now()
            seconds = block()
            self.samples.append((at, seconds))
            self._paused += seconds
        finally:
            self._in_block = False

    def __enter__(self):
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, BLOCK_EVERY_S, BLOCK_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured on `now` between `start` and `end`
        to seconds at nominal host speed."""
        near = [s for at, s in self.samples if start - NEAR_S <= at <= end + NEAR_S]
        return NOMINAL_S / statistics.median(near or [s for _, s in self.samples])
