"""Machine-speed calibration of measured times.

On a shared host the same certificate can take twice as long for tens of
seconds while neighbours load the cores and caches. A fixed piece of exact
rational work, the calibration kernel, runs before and after every measured
step. A step's seconds are scaled by ``REFERENCE_S`` over the mean of the two
calibrations around it. The result is the step's time on a machine where the
kernel takes exactly ``REFERENCE_S``, so a slow phase of the host moves the
kernel and the step alike and cancels, while a change in the program does not
touch the kernel and shows in full.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List

REFERENCE_S = 0.1  # the kernel's time on an unloaded host (2 vCPUs, CPython 3.11)
POINTS = 3000
STEPS = 12


def kernel() -> Fraction:
    """Iterate a tent map of slope 9/5 on a grid of rationals, exactly: the
    same kind of work as the library's branch refinement, and the same in
    every version of the library."""
    slope, half = Fraction(9, 5), Fraction(1, 2)
    xs = [Fraction(i, POINTS) for i in range(POINTS + 1)]
    for _ in range(STEPS):
        xs = [slope * x if x <= half else slope * (1 - x) for x in xs]
    return max(xs)


def _time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Clock:
    """Calibrations around measured steps, and the scale of each step."""

    def __init__(self) -> None:
        self.calibrations: List[float] = [_time_kernel()]

    def scale(self) -> float:
        """Call right after a measured step: the factor that turns its
        seconds into reference seconds."""
        before = self.calibrations[-1]
        after = _time_kernel()
        self.calibrations.append(after)
        return REFERENCE_S / ((before + after) / 2)

    def restart(self) -> None:
        """Call before a step that does not directly follow the last one."""
        self.calibrations.append(_time_kernel())
