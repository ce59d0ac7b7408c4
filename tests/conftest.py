"""Hypothesis profiles for the property tests.

On a CI host Hypothesis loads its "ci" profile, which sets
derandomize=True: every run replays the same examples, whatever
--hypothesis-seed says.  The "explore" profile draws them from the seed
instead, so a CI run can try new examples and a failure it finds can be
replayed with the seed it printed:

    python -m pytest -q --hypothesis-profile=explore --hypothesis-seed=N tests/test_scoring.py

Registering a profile changes no default.
"""

from hypothesis import settings

settings.register_profile("explore", derandomize=False)
