"""Hypothesis settings for the whole suite.

Under ``CI`` (set by GitHub Actions) the ``ci`` profile derandomizes the
property tests, so a run can be repeated exactly, and prints the blob that
reproduces a failing example.  Local runs keep exploring new examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
