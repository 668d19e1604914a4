"""Shared test configuration.

Property tests run under a derandomised hypothesis profile: examples come
from a fixed seed and no example database is read or written, so every run
of the suite draws the same cases.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("repeatable")
