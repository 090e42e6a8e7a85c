"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` draws the same examples
on every run, so a failure seen in CI reproduces locally; the default
profile draws fresh examples.  Both keep each test's ``max_examples``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
