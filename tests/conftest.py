"""Shared pytest set-up.

Property tests draw the same examples in every checkout and on every run:
hypothesis derives them from each test's name (``derandomize``) and keeps
no example database, so a failure found once is found again, and a pass
does not depend on what earlier runs left behind.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
