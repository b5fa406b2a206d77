"""Hypothesis profiles for the test suite.

The default profile draws the same examples on every run (``derandomize``),
so a Tier-1 run can be replayed and its time is bounded by what the suite
asks for.  ``HYPOTHESIS_PROFILE=explore`` draws fresh random examples, for
looking for new failures; each test keeps its own ``max_examples`` and
``deadline`` under both profiles.
"""

import os

from hypothesis import settings

settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
