"""Peak traced allocation of one call, for tests that memory stays bounded."""

from __future__ import annotations

import gc
import tracemalloc


def traced_peak(func, *args):
    """``func(*args)``, and the bytes allocated at its peak as ``tracemalloc`` sees them.

    Tracing starts after a collection, so garbage of an earlier call, freed
    mid-run, cannot lower the peak. Warm first-call caches and lazy imports
    before comparing two peaks.
    """
    gc.collect()
    tracemalloc.start()
    try:
        return func(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
