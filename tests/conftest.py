"""Shared test settings.

Hypothesis runs derandomized, so every run draws the same examples, and
without a deadline, so a slow machine cannot fail a property test."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
