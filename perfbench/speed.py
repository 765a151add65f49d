"""The host's current speed, read from a fixed block of reference work.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 2x over seconds to minutes, as other tenants come and go.  Core-bound
Python work, such as the permutation loop at small n, takes that change in
full, in every op and in whole runs.  To take it out, the worker of a scaled
workload takes a reading (``reference_s``) right before each op and once
after the last, and run.py divides each op's wall time by the mean of the
two readings that bracket it, then multiplies by ``NOMINAL_S``.  A scaled
time is therefore the op's wall time at the reference speed.  Every set-up
time is scaled the same way, by readings taken right after the set-up.

The block uses numpy only, never ``metricdep``, so no change to the program
can move it.  It is shaped like the small-n permutation loop: a Python loop
of Philox draws and small gathers.  It stays a few MiB in size, so that it
does not raise the peak RSS of any workload.  Workloads whose ops are
dominated by large, memory-bound matrices (n = 2000 and more) are not
scaled: their wall times were steadier than this block's readings, and
neither this block nor an n = 2000 gather block followed their speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure near a reading on the 2-core tuning host, in seconds.
NOMINAL_S = 0.025

# Arrays and gather buffers are made once, so a reading never allocates more
# than a permutation and does not depend on the allocator's state.
_N100 = np.random.Generator(np.random.Philox(key=[1, 0])).standard_normal((100, 100))
_N300 = np.random.Generator(np.random.Philox(key=[1, 1])).standard_normal((300, 300))
_BUFFERS = {a.shape: (np.empty_like(a), np.empty_like(a)) for a in (_N100, _N300)}

# A reading is the median of this many timings of the block.
BLOCKS_PER_READING = 3


def _gather_sum(a, p):
    rows, both = _BUFFERS[a.shape]
    np.take(a, p, axis=0, out=rows)
    np.take(rows, p, axis=1, out=both)
    return float(both.sum())


def block_s():
    """Wall time of a fixed block of small permutation work: a Python loop of
    Philox draws and 100x100 gathers, then gathers of a 300x300 matrix."""
    start = time.perf_counter()
    total = 0.0
    for b in range(300):
        total += _gather_sum(_N100, np.random.Generator(np.random.Philox(key=[2, b])).permutation(100))
    for b in range(8):
        total += _gather_sum(_N300, np.random.Generator(np.random.Philox(key=[3, b])).permutation(300))
    if not np.isfinite(total):
        raise ArithmeticError("reference block produced a non-finite sum")
    return time.perf_counter() - start


def reference_s():
    """One reading of the host's speed: the median time of a few blocks."""
    return statistics.median(block_s() for _ in range(BLOCKS_PER_READING))
