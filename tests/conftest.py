"""Hypothesis profiles for the test suite.

``ci`` derandomizes every property test, so the examples a CI run draws are
the ones a local ``pytest --hypothesis-profile=ci`` draws: a failure there
reproduces here.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
