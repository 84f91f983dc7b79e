"""Hypothesis profiles: ``--hypothesis-profile=ci`` derandomizes the
property tests, so a failure found in CI repeats on every run and prints
the blob that reproduces it.  ``--hypothesis-profile=thorough`` does the
same with 5000 examples a test, for a deeper search after a change to a
reader or to the map search.  Local runs keep the default random search."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("thorough", derandomize=True, print_blob=True,
                          max_examples=5000)
