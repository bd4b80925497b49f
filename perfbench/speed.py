"""Machine speed, measured with a fixed piece of pure-Python work.

On a shared virtual machine the speed can drift by tens of percent over tens
of seconds: on the two-vCPU one the benchmark was defined on, a single
`catalog check MII` took anywhere from 2.7 to 5.1 s in fresh processes, with
process CPU time tracking wall time.  ``reference_work`` shares no code
with the program and slows with the machine, so every time the benchmark
reports is scaled by the reference times taken around it: the reported
figures are those of a machine on which the reference work takes
REF_NOMINAL_S.  Scaling cuts the run-to-run spread of the figures about
threefold but not to nothing, since the program and the reference do not
slow by exactly the same factor.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.0015

# After an op of t seconds, take REF_MIN + t / REF_EVERY_S reference samples:
# a short op is scaled by the medians of 2 * REF_MIN samples, and a long op,
# during which the speed drifts more, by more of them.
REF_MIN = 3
REF_EVERY_S = 0.25


def reference_work() -> float:
    """Seconds taken by a fixed mix of Fraction and dict work (about 1.5 ms)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def samples_after(op_seconds: float) -> list[float]:
    return [reference_work() for _ in range(REF_MIN + int(op_seconds / REF_EVERY_S))]


def factor(refs: list[float]) -> float:
    """Multiply a time measured alongside these reference times by this."""
    return REF_NOMINAL_S / statistics.median(refs)


def bracket_factor(before: list[float], after: list[float]) -> float:
    """Factor for a time measured between two sets of reference times."""
    return REF_NOMINAL_S / ((statistics.median(before) + statistics.median(after)) / 2)
