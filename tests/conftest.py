"""Hypothesis profiles: ``--hypothesis-profile=ci`` derandomizes the
property tests, so a failure found in CI repeats on every run and prints
the blob that reproduces it.  ``--hypothesis-profile=thorough`` does the
same with 5000 examples a test, for a deeper search after a change to a
reader or to the map search.  Local runs keep the default random search.

Under ``python -W error`` the one warning filtered out is the
``DeprecationWarning`` that ``mypy_extensions.TypedDict`` raises when
``libcst`` is imported.  Hypothesis imports ``libcst`` to explain a
failing property, and that warning, turned into an error there, would
print a pytest INTERNALERROR in place of the falsifying example."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("thorough", derandomize=True, print_blob=True,
                          max_examples=5000)


def pytest_configure(config):
    # A filter of pytest's own, since pytest sets the warning filters
    # anew around every test and hook.
    config.addinivalue_line(
        "filterwarnings",
        r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning"
        r":libcst\.metadata\.type_inference_provider\Z")
