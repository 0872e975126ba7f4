"""Hypothesis profiles: ``--hypothesis-profile=ci`` gives derandomized tests a larger budget."""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000, derandomize=True, deadline=None)
