"""Shared test setup: one deterministic hypothesis profile for the suite,
and the `traced_peak` helper of the memory tests.

Every property test draws the same examples on every run (`derandomize`),
has no per-example deadline, and writes no `.hypothesis/` example database.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def _traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traced while fn ran).  Only what fn
    allocates counts: its inputs were made before, and its output is in the
    peak.  A memory bound, not a timing."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture
def traced_peak():
    """The helper `traced_peak(fn)` -> (fn(), its traced peak in bytes)."""
    return _traced_peak
