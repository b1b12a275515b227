"""The host's speed, read off a fixed reference kernel next to every job.

On a shared machine the same job can take half again as long from one second
to the next.  On the machine the benchmark was tuned on (a 2-vCPU virtual
machine) the interpreter runs at a fast or a slow speed in spells of about a
second, and one job timed over and over in a 40 s loop spread by 0.52 of its
median (IQR); a run cannot average that away.  The benchmark therefore times
a fixed pure-Python kernel, which no change to ``sulmin`` touches, before the
first job and after every job, and scales each job's time by ``REFERENCE_S``
over the mean of the two readings around it: the job reads as on a host that
runs the kernel in ``REFERENCE_S``, about the fast speed of that machine.  In
the same loop the scaled times of the job spread by 0.10.  Set-up time is
timed in other processes than the kernel and is reported as measured.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import List

KERNEL_STEPS = 4000
READINGS = 3
REFERENCE_S = 0.001


def kernel_seconds() -> float:
    """Fastest of ``READINGS`` timings of the reference kernel: dictionary
    updates under tuple keys and small-integer arithmetic, the interpreter
    work the jobs consist of.  The garbage collector is off meanwhile, so the
    objects the program keeps alive cannot slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(READINGS):
            t0 = perf_counter()
            table = {}
            for i in range(KERNEL_STEPS):
                key = (i % 97, i % 89)
                table[key] = table.get(key, 0) + i * i % 7
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(samples: List[float], kernel: List[float]) -> List[float]:
    """Job times ``samples`` at the reference speed; ``kernel`` holds one
    reading before the first job and one after each job."""
    return [t * 2 * REFERENCE_S / (kernel[k] + kernel[k + 1]) for k, t in enumerate(samples)]
