"""Hypothesis settings shared by the property tests.

Examples are derived from each test's name instead of a random seed, so every
run draws the same inputs, and there is no per-example deadline, so a slow
machine cannot turn a passing example into a failure.
"""

from hypothesis import settings

settings.register_profile("swapframe", derandomize=True, deadline=None)
settings.load_profile("swapframe")
