"""Shared test settings: one derandomized hypothesis profile, so property
tests draw the same examples on every run and every machine."""

from hypothesis import settings

settings.register_profile(
    "replay", derandomize=True, deadline=None, max_examples=150, database=None
)
settings.load_profile("replay")
