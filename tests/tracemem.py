"""Peak traced memory of one call, for the tests that bound memory.

numpy reports its array buffers to ``tracemalloc``, so the peak counts every
array the call allocates, including the ones it returns.  Standard library
only.
"""

import tracemalloc


def traced_peak(fn, *args, **kw):
    """(fn(*args, **kw), peak bytes allocated above the start while it ran)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn(*args, **kw)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
