"""Machine-speed calibration for the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes; a fixed pure-Python loop can take 0.26 s
in one second and 0.42 s a few seconds later. Process CPU time drifts the same
way, so the slowdown is contention, not time taken away from the process.

Every timed piece of work is therefore bracketed by runs of a fixed kernel
(small and big-integer `Fraction` arithmetic, dict updates, string formatting:
the operations the analysis spends its time in), and its time is scaled by
`REFERENCE_S / kernel time`. The result is the time the work would take on a
machine where the kernel takes exactly `REFERENCE_S`. On a 2-vCPU shared VM
this cut the run-to-run variation of a full sweep from 4-8% to about 2%.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1e-3   # the kernel's time at reference speed


def kernel():
    acc = Fraction(0)
    counts = {}
    text = ""
    for i in range(1, 80):
        acc += Fraction(i, i + 3) * Fraction(3, 7)
        counts[i % 17] = counts.get(i % 17, 0) + i
        text = f"{i}:{acc.numerator % 1000}"
    big = Fraction(5, 6) ** 150 + Fraction(4, 7) ** 130
    return len(json.dumps(counts)) + len(text) + big.denominator % 7


def kernel_seconds():
    """Time of one kernel run. The collector is off meanwhile, so garbage left
    behind by the program is not collected on the kernel's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds, *kernel_times):
    """`seconds` at reference speed, given kernel times measured next to the
    work. The fastest of them is used, so a kernel run hit by an interrupt
    does not shrink the result."""
    return seconds * REFERENCE_S / min(kernel_times)
