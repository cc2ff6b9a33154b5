"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """fn()'s result and the peak bytes that tracemalloc saw allocated while it ran; tracing stops however fn exits."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
