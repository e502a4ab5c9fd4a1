"""Suite-wide settings: every property test draws the same examples on every run.

``derandomize`` seeds each test's examples from the test itself, and with no
example database a failure found once cannot change what a later run draws.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
