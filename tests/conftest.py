"""Shared test setup: one deterministic hypothesis profile for the suite.

Every property test draws the same examples on every run (`derandomize`),
has no per-example deadline, and writes no `.hypothesis/` example database.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
