"""Hypothesis profiles for the test suite.

`pytest --hypothesis-profile=ci` draws the same examples on every run, so a
property test that fails in CI fails the same way when rerun locally.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
