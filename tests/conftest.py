"""Hypothesis profiles: ``--hypothesis-profile=ci`` derandomizes the
property tests, so a failure found in CI repeats on every run and prints
the blob that reproduces it.  Local runs keep the default random search."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
