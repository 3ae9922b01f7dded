"""Host-speed calibration of the benchmark's timings.

On a shared machine the speed of one CPU swings by 30 % or more, in
spells from under a second to minutes, with other tenants' load.  Every
timing of the benchmark is therefore taken between two calibration
blocks, and scaled by the speed those blocks show:

    scaled = wall * REF_MS / (mean calibration call time around it)

Set-ups and imports, which are repeated and may last seconds, are
scaled as one phase: the median wall time by the mean of every block
taken in the phase.

The calibration kernel is exact ``fractions.Fraction`` arithmetic, the
same kind of work the package does, written here and calling nothing in
the package, so a change to the package cannot move it.  ``REF_MS`` is
the kernel's mean time on the machine where the benchmark was defined
(a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11), so a scaled timing
reads as milliseconds on that machine at its usual speed.

This module imports nothing from the package, so it can time the
package's import too.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_MS = 1.7
# calls per calibration block
CALLS = 4


def _kernel() -> Fraction:
    """About 1.5 ms of Fraction arithmetic with growing operands."""
    a, b = Fraction(1), Fraction(0)
    for k in range(1, 120):
        a = a * Fraction(k, k + 3) + Fraction(2 * k + 1, 7)
        if k % 5:
            b = (b + a) / 3
        else:
            b = Fraction(a.numerator % 97, a.denominator % 89 + 1)
    return b


def block(calls: int = CALLS) -> list:
    """Times in ms of ``calls`` kernel runs, with the cyclic garbage
    collector paused so the package's heap does not slow them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(calls):
            t0 = time.perf_counter()
            _kernel()
            out.append((time.perf_counter() - t0) * 1000)
        return out
    finally:
        if enabled:
            gc.enable()


def scale(wall_s: float, before: list, after: list) -> float:
    """``wall_s`` scaled to the reference speed, by the calibration
    blocks taken right before and right after it."""
    return wall_s * REF_MS / statistics.fmean(before + after)


def repeated(fn, more):
    """Call ``fn`` while ``more(walls)`` holds, given the wall times so
    far, with a calibration block before the first call and after each.
    Returns the last result, the wall times, and their median scaled by
    the mean speed of all the blocks: a call of a second or more spans
    speed changes that the two blocks at its ends would misread."""
    samples, walls = block(), []
    while more(walls):
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
        samples += block()
    return out, walls, (statistics.median(walls) * REF_MS
                        / statistics.fmean(samples))
