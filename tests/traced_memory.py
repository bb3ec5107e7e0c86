"""The peak memory that a call allocates, as ``tracemalloc`` traces it."""

import tracemalloc


def traced_peak(call, *args):
    """``(call(*args), peak)``: the call's result and the most bytes that
    ``tracemalloc`` saw allocated at once while it ran."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
