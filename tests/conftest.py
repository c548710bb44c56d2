"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(call, warm_up, unit_bytes):
    warm_up()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / unit_bytes


@pytest.fixture
def traced_peak():
    """traced_peak(call, warm_up, unit_bytes): the peak memory tracemalloc
    sees while call() runs, in units of unit_bytes (an array's size).
    warm_up(), a small call run untraced first, keeps the modules numpy
    imports on first use (numpy.random, numpy.ma) out of the peak."""
    return _traced_peak
