"""A fixed piece of pure-Python work that gauges the machine's current speed.

The CPU speed a process gets on a shared host moves by up to 2x, both
within a second and in phases of minutes, and it moves a Python loop's wall
time and CPU time alike.  The harness times this work again and again while
it measures, spread over the measured stretch, and scales the stretch's
seconds by ``NOMINAL_S / <mean time of this work in it>``: the end-to-end
figures then read as if the machine ran at the speed at which this work
takes ``NOMINAL_S``.  The work imports nothing from ``unicolor``, so a
change to the program cannot change it.  It runs with the garbage collector
off and frees each object it makes at once, so what the program's heap
holds does not change its time either.
"""

from __future__ import annotations

import gc
from time import perf_counter

# About the median time of ``work()`` on the 2-core reference machine.
NOMINAL_S = 0.008
WORK_ITERATIONS = 40_000


def work() -> int:
    """Dict lookups and updates, small tuples and integer arithmetic, the
    operations the simulator's inner loops are made of."""
    counts = dict.fromkeys(range(400), 0)
    total = 0
    for i in range(WORK_ITERATIONS):
        key = i % 400
        pair = (key, i)
        counts[key] = counts[key] + pair[1]
        total ^= pair[0] * 7919
    return total


def seconds() -> float:
    """Wall time of one ``work()`` call, with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
