"""Host-speed kernel: fixed work that measures how fast the host runs now.

    python3 bench/hostspeed.py      # PROCESS_PASSES passes in a fresh interpreter

A shared host's speed drifts by tens of percent over tens of seconds, so
the median wall time of one run depends on when it ran. The benchmark
times this kernel between iterations, and the gated ``latency_rel`` of
an iteration is its wall time over the mean of the kernel times just
before and just after it: a change to the program moves the numerator
only, while a change of host speed moves both.

The kernel is interpreted Python and small numpy operations, the mix the
program spends its time in. It uses nothing from ``rfad``. Workloads
whose time goes to the program in-process time one pass in-process;
workloads whose time goes to ``rfad`` processes time this file run as a
fresh interpreter (start, ``import numpy``, ``PROCESS_PASSES`` passes),
which is what such a process does besides the program's own work.
"""

from __future__ import annotations

import time

import numpy as np

PROCESS_PASSES = 8
_ARRAYS = [np.linspace(-1.0, 1.0, 700) ** k for k in range(1, 9)]


def kernel_s() -> float:
    """Wall time of one pass of the kernel (about 25 ms on a 2 GHz core)."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for k in range(40_000):
        acc += k * k % 7
        table[k & 255] = acc
    total = 0.0
    for k in range(400):
        a = _ARRAYS[k & 7]
        total += float(np.median(a[:200])) + float(np.sum(a * 1.5 + 2.0))
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in range(PROCESS_PASSES):
        kernel_s()
