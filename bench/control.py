"""The control kernel: a fixed pure-Python computation timed next to every
timed operation and every set-up, so that swings in host speed can be
divided out of the benchmark's times.

On a shared host, other tenants slow a core by up to a factor of two for
seconds or minutes at a time.  The kernel slows with it: its time, measured
just before and just after an operation, tracks the operation's own
slowdown.  The benchmark reports each time scaled to a host on which one
kernel call takes ``REF_S``:

    scaled = wall * REF_S / kernel_time

A change to the library leaves the kernel alone (it uses no library code and
not even numpy), so the scaled times move with the library's speed only.
README.md gives the measurements behind this.
"""

from __future__ import annotations

import cmath
import math
import time

#: Nominal time of one kernel call: about its time on an unloaded core of a
#: 2.1 GHz Xeon virtual machine under CPython 3.11.  Scaled times are wall
#: times on a host as fast as that.
REF_S = 17e-6

_TAU = (1.0 + 0.9j, 0.3 + 0.2j, 0.1 + 1.1j)


def kernel() -> complex:
    """A 7 x 7 theta-like sum in pure Python; about REF_S per call."""
    t1, t2, t4 = _TAU
    acc = 0j
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            acc += cmath.exp(1j * math.pi * (n1 * n1 * t1 + 2 * n1 * n2 * t2 + n2 * n2 * t4))
    return acc


def seconds(reps: int) -> float:
    """Wall time of one kernel call, averaged over ``reps`` calls."""
    t0 = time.perf_counter()
    for _ in range(reps):
        kernel()
    return (time.perf_counter() - t0) / reps
