"""A fixed piece of pure-Python work that gauges the host's current speed.

The host's CPU speed changes by up to 2x between seconds and between runs,
and it changes this work's time as much as the program's.  Timings divided
by it are steady where wall-clock timings are not.
"""

from __future__ import annotations

import time

BLOCK_REPEATS = 40  # a block takes about as long as one import of crsdiag.cli


def reference_work():
    """Big-integer arithmetic and dict and list traffic; a few tenths of a ms."""
    table = {}
    acc = 1
    for i in range(1000):
        acc = (acc * 6364136223846793005 + i) % (1 << 127)
        table[acc & 255] = table.get(acc & 255, 0) + 1
    return sorted(table.items()), str(acc)


def reference_block():
    """Seconds taken by BLOCK_REPEATS runs of reference_work."""
    start = time.perf_counter()
    for _ in range(BLOCK_REPEATS):
        reference_work()
    return time.perf_counter() - start
