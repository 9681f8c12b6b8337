"""Correct operation times for the load other tenants put on a shared CPU.

On a small shared machine the same operation can take twice as long for
seconds to minutes at a time, because of work outside this process (process
CPU time rises with wall time, so it is not descheduling). Medians of raw
wall times over a 20-second run then differ by 20-40% between runs.

A fixed kernel, written here and independent of icufunnel, runs right
before and right after each timed operation. Its code mixes interpreter
work and small numpy calls as the package does, so it slows down with the
operation. An operation's reported time is its wall time scaled by
REFERENCE_S over the mean of the two kernel times around it: the time it
would take at the kernel's unloaded speed. The scale cancels out when two
versions of icufunnel are compared on one machine; the raw wall times are
reported next to the corrected ones.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 1500
# the kernel's time on an unloaded core of the 2-vCPU Xeon machine the
# benchmark was tuned on (its 10th percentile there was 9.2 ms)
REFERENCE_S = 0.010


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    y = np.array([9.0e4, 49.0, 1.0, 1.0e4, 0.0, 1.0])
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        S, A, I, D, psi = y[0], y[1], y[2], y[4], y[5]
        force = (0.37 * psi * A + 0.43 * psi * I) * S / (1.0e5 - D)
        d = (-force, 0.98 * force - 0.1 * A, 0.02 * force - 0.1 * I, 0.1 * A,
             0.015 * I, 0.5 * (0.3 - psi))
        y = y + 1e-6 * np.asarray(d)
        acc += float(np.max(np.abs(y)))
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:  # keeps the loop's result live
        raise RuntimeError("calibration kernel produced no result")
    return elapsed


class Calibration:
    """The kernel runs of one benchmark run, and times scaled by them."""

    def __init__(self) -> None:
        self.kernels: list[float] = []

    def kernel(self) -> float:
        t = kernel_s()
        self.kernels.append(t)
        return t

    def timed(self) -> Timed:
        """``with cal.timed() as t: work()``, then read ``t.seconds``."""
        return Timed(self)


class Timed:
    """Wall time of a block, and that time at the kernel's reference speed."""

    def __init__(self, cal: Calibration) -> None:
        self.cal = cal

    def __enter__(self) -> Timed:
        self.before = self.cal.kernel()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.t0
        after = self.cal.kernel()
        self.seconds = self.wall_s * REFERENCE_S / (0.5 * (self.before + after))
