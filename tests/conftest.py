"""Shared set-up for the test suite.

On a failing property test, hypothesis imports its patch writer, and with
``libcst`` installed that import raises ``mypy_extensions``' deprecation
warning, which ``-W error`` turns into an internal error of the pytest
session in place of the failure report.  Importing the writer once here,
with only that category ignored, leaves ``-W error`` in force for
everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
