"""Hypothesis profiles for the test suite.

The default profile draws the same examples on every run (``derandomize``),
so a Tier-1 run can be replayed and its time is bounded by what the suite
asks for.  ``HYPOTHESIS_PROFILE=explore`` draws fresh random examples, for
looking for new failures; each test keeps its own ``max_examples`` and
``deadline`` under both profiles.

Derandomized draws still depend on what is imported.  Hypothesis adds the
literals of every local module in ``sys.modules`` (test files excepted) to a
pool of constants that it draws from, under ``derandomize`` too.  Two sources
make the pool differ between runs:

* which ``rankinlab`` modules are loaded.  A full run loads all of them while
  it collects (``test_cli`` imports ``rankinlab.cli``), a one-file run only
  what that file imports.  So this file imports ``rankinlab.cli``, which
  loads every ``rankinlab`` module, before a profile is loaded: a one-file
  run draws from the pool of the full run.
* ``tools/reach.py`` loads certbench's workloads and tracer while
  ``test_reach`` runs, so every file after it in a full run also draws from
  certbench's literals, and a one-file run of such a file does not.  That is
  left as it is: taking certbench out of the pool would change the examples
  of every file after ``test_reach``.
"""

import os

from hypothesis import settings

import rankinlab.cli  # noqa: F401  (loads every rankinlab module: see above)

settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
