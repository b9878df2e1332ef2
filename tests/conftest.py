"""Shared pytest setup: one hypothesis profile, so every machine runs the
same examples and slow examples never fail on timing."""

from hypothesis import settings

settings.register_profile("lsdioph", derandomize=True, deadline=None)
settings.load_profile("lsdioph")
