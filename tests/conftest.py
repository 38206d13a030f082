"""Suite-wide settings.

Property tests run under a derandomized hypothesis profile: the same
examples every run, and no per-example deadline, so a slow or busy
machine can neither change what is tested nor fail a test on timing.
"""

from hypothesis import settings

settings.register_profile("codel", derandomize=True, deadline=None)
settings.load_profile("codel")
