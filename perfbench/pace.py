"""Machine-speed reference: wall times rescaled to the reference machine's pace.

The benchmark runs on shared hosts whose speed drifts by up to 1.7x over
seconds to minutes, with CPU time drifting with wall time (contention on
shared cores and caches, not preemption).  Averaging over a run does not
remove a drift that lasts longer than the run, so every timed job is paired
with a fixed reference kernel timed right before it.  The kernel is code of
the benchmark's own, never the program's: a change to the program moves the
job times and leaves the kernel alone, while a slower machine moves both.

A job of ``d`` ns whose neighbouring kernel samples have median ``k`` ns is
reported as ``d * REFERENCE_KERNEL_NS / k``: its duration on the reference
machine at the pace where the kernel takes ``REFERENCE_KERNEL_NS``.  Raw wall
times are printed beside the rescaled ones in every report.
"""

from __future__ import annotations

import statistics
import time

#: the kernel's duration on the reference machine (2-vCPU x86 VM) in a
#: quiet period; it sets the scale of every rescaled time
REFERENCE_KERNEL_NS = 3_000_000
#: kernel samples taken on each side of a job to estimate its pace
WINDOW = 2


def kernel() -> int:
    """A fixed loop of small-integer arithmetic: pure interpreter work that
    allocates nothing long-lived and calls no library.  Of the kernels tried
    (rational arithmetic, dict traffic, eigendecompositions, scattered memory
    reads and mixes of them), this one tracked the pace of whole passes of
    every workload most closely."""
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def sample() -> int:
    """One timed run of the kernel, in ns."""
    t = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t


def factors(samples: list[int], n: int) -> list[float]:
    """Rescale factor of each of ``n`` timed spans, where ``samples[k]`` was
    taken just before span k and ``samples[n]`` just after the last one."""
    assert len(samples) == n + 1
    return [REFERENCE_KERNEL_NS / statistics.median(samples[max(0, k - WINDOW + 1):k + WINDOW + 1])
            for k in range(n)]
