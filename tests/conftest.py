"""Hypothesis profiles and shared fixtures.  ``HYPOTHESIS_PROFILE=ci`` draws
the same examples on every run, so a failure seen in CI reproduces locally;
the default profile draws fresh examples.  Both keep each test's
``max_examples``."""

import os

import pytest
from hypothesis import settings

from drinfeldlab import adelic, phimodule

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def family_bounds(monkeypatch):
    """The deg_bound of every _iterate_family call, in call order."""
    bounds = []
    build = phimodule._iterate_family

    def counting_family(gamma, deg_bound):
        bounds.append(deg_bound)
        return build(gamma, deg_bound)

    monkeypatch.setattr(phimodule, "_iterate_family", counting_family)
    monkeypatch.setattr(adelic, "_iterate_family", counting_family)
    return bounds
