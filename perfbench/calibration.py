"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs up to 1.7 times faster or slower from
one minute to the next, as other tenants come and go.  The benchmark times
a fixed kernel of its own next to every request and reports each timing
scaled by (REFERENCE_S / kernel time around it) ** EXPONENT, i.e. in
seconds at the speed the host had when the kernel took REFERENCE_S.  The
kernel walks a small tree of tuples with Fraction leaves, the way csalin's
evaluator walks expressions, and never calls csalin, so a change to csalin
cannot move it.

csalin's times do not swing as far as the kernel's.  Across the host's
speed changes, log(csalin time) moved 0.61-0.68 times as far as
log(kernel time) for worked example 1, a rational-beta classification and
a fresh ``import csalin`` alike (2-vCPU Xeon at 2.1 GHz, Python 3.11).
Hence EXPONENT = 2/3 rather than 1, which would over-correct.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from fractions import Fraction

# kernel time on the host where the benchmark was written, in its usual state
REFERENCE_S = 0.007
EXPONENT = 2 / 3


def _tree(depth: int, k: int):
    if depth == 0:
        return ("c", Fraction(k % 7 + 1, k % 5 + 2)) if k % 2 \
            else ("v", "xyz"[k % 3])
    if k % 4 == 3:
        return ("cos", _tree(depth - 1, 3 * k + 1))
    return ("add" if k % 2 else "mul",
            _tree(depth - 1, 2 * k + 1), _tree(depth - 1, 2 * k + 2))


TREES = [_tree(6, k) for k in range(4)]


def _ev(e, b):
    op = e[0]
    if op == "c":
        return float(e[1])
    if op == "v":
        return b[e[1]]
    if op == "add":
        return _ev(e[1], b) + _ev(e[2], b)
    if op == "mul":
        return _ev(e[1], b) * _ev(e[2], b)
    return math.cos(_ev(e[1], b))


def kernel_seconds(reps: int = 60) -> float:
    """Time one pass of the kernel, with the cyclic collector paused so
    that the size of the caller's heap does not enter the timing."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for r in range(reps):
            b = {"x": 0.3 + 1e-3 * r, "y": 0.7, "z": -0.2}
            for t in TREES:
                _ev(t, b)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def factors(kernel_times: list, n: int) -> list:
    """Scale factor for each of n timings, where kernel_times[i] was taken
    just before timing i and kernel_times[n] just after the last one."""
    # the median of the three kernel timings on either side of timing i
    return [(REFERENCE_S / statistics.median(kernel_times[max(0, i - 2):
                                                          i + 4])) ** EXPONENT
            for i in range(n)]
