"""Host speed, measured by a fixed pure-Python kernel timed next to the work.

The benchmark runs on a shared host whose speed swings by up to about
2x, in stretches of seconds to minutes: the same fixed loop takes 13 ms
in one second and 19 ms in the next.  CPU time swings with wall time
(it is contention, not lost time slices), so neither medians over
passes nor the fastest pass of a run remove it; two sets of ten 40 s
runs spread by up to 0.3 of their median.

A fixed kernel timed between operations tracks the swing.  On a 2-vCPU
Xeon (2.1 GHz), over 150 s in 5 s windows, the windowed median latency
of package operations (an ``equidist_report``, a ``tensor_decompose``, a
``sample_st_batch``) had quartile spreads of 0.24-0.41; their ratio to
the kernel time measured next to them had 0.02-0.07.  The match is
closest for interpreter-bound work.  Numpy arithmetic on mid-sized
arrays (moment-sweep's integrand calls) slows less than the kernel, so
scaling over-corrects it (README.md gives the figures).  Mixing numpy
work into the kernel fitted moment-sweep better and exact-algebra worse,
so the kernel stays pure Python.

So every time the benchmark reports is scaled to one reference speed:
``raw * REFERENCE_S / kernel_s``, with ``kernel_s`` the kernel time at the
checkpoints that bracket the measured interval.  A change to the package
moves the raw time and leaves the kernel alone, so it shows in full.
The raw times are kept in the run record next to the scaled ones.
"""

from __future__ import annotations

import time

# The kernel's time at the host's fast level (the 2-vCPU Xeon above);
# a scaled time is what the raw time would have been at that speed.
REFERENCE_S = 2.0e-4
# Kernel runs per checkpoint; the fastest counts, so an interrupt that
# lands in one run does not.
REPEATS = 3
# Work between two checkpoints, at most (an operation is never split).
CHECKPOINT_EVERY_S = 0.04


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic, dict and list traffic, calls."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(1500):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + i
        total += (i * i) % 11
    values = sorted(counts.values())
    return total + sum(values[::3]) + len(str(total))


def measure() -> float:
    """Seconds of one kernel run, the fastest of REPEATS."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedLog:
    """Kernel checkpoints along a pass, and the work intervals between them.

    Interval i runs from the end of checkpoint i to the start of
    checkpoint i+1; its scale factor is REFERENCE_S over the mean kernel
    time of those two checkpoints.  The pass takes a checkpoint first,
    before each operation once CHECKPOINT_EVERY_S of work has passed,
    and last.
    """

    def __init__(self):
        self.points: list[tuple[float, float, float]] = []  # (start, end, kernel_s)
        self.checkpoint()

    def checkpoint(self) -> None:
        t0 = time.perf_counter()
        kernel_s = measure()
        self.points.append((t0, time.perf_counter(), kernel_s))

    def maybe_checkpoint(self) -> int:
        """Checkpoint if due; return the index of the interval now starting."""
        if time.perf_counter() - self.points[-1][1] >= CHECKPOINT_EVERY_S:
            self.checkpoint()
        return len(self.points) - 1

    def factor(self, interval: int) -> float:
        before, after = self.points[interval][2], self.points[interval + 1][2]
        return REFERENCE_S / ((before + after) / 2)

    def totals(self) -> tuple[float, float]:
        """(raw, scaled) seconds of work over all intervals, checkpoints excluded."""
        raw = scaled = 0.0
        for i in range(len(self.points) - 1):
            span = self.points[i + 1][0] - self.points[i][1]
            raw += span
            scaled += span * self.factor(i)
        return raw, scaled

    def kernel_times(self) -> list[float]:
        return [p[2] for p in self.points]

    def checkpoint_s(self) -> float:
        return sum(end - start for start, end, _ in self.points)
