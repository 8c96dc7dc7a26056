"""One Hypothesis profile for the whole suite, so tier-1 gives the same
verdict on every run: every property test draws derandomized examples,
keeps no example database and has no deadline.  A test's own ``@settings``
sets only its example count."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
