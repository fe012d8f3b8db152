"""Shared test setup: Hypothesis settings and the import path of child interpreters.

Examples are derived from each test's name instead of a random seed, so every
run draws the same inputs, and there is no per-example deadline, so a slow
machine cannot turn a passing example into a failure.
"""

import os
from pathlib import Path

from hypothesis import settings

# Child interpreters that tests start import swapframe from this checkout too,
# as pytest's own ``pythonpath`` setting makes the tests themselves do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("swapframe", derandomize=True, deadline=None)
settings.load_profile("swapframe")
