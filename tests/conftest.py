"""Hypothesis profiles.  ``--hypothesis-profile=ci`` draws the same
examples on every run, so a CI result depends on the commit alone, and
prints the blob that reproduces a failure; local runs keep drawing new
examples."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
