"""Host speed, measured next to the work, to take host drift out of timings.

On a shared virtual machine the same instance can take twice as long when a
neighbour loads the other hardware thread, with CPU time equal to wall time.
A *slice* is a fixed piece of pure-Python work much like midfix's own
(tuples, dicts, strings, calls, a sort); it does not call midfix, so a
change to midfix cannot move it.  The benchmark times one slice before every
instance and scales the instance's time by REFERENCE_SLICE_S over the
median of the slices around it: timings are reported in seconds of a host
on which a slice takes REFERENCE_SLICE_S.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# A slice took 0.35-0.8 ms on a shared 2-vCPU virtual machine (Python 3.11.7),
# depending on what ran beside it.
REFERENCE_SLICE_S = 0.0005
SLICE_STEPS = 400
_NAMES = tuple(f"n{i}" for i in range(17))


def host_slice() -> float:
    """Seconds for one slice, with the collector off so that the size of
    midfix's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(SLICE_STEPS):
            key = (i % 13, _NAMES[i % 17])
            table[key] = table.get(key, ()) + (i,)
        sorted(table.items(), key=str)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(slices: list) -> float:
    """Scale from this host's seconds to reference seconds."""
    return REFERENCE_SLICE_S / statistics.median(slices)
