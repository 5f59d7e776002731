"""Settings shared by the tier-1 tests."""

from hypothesis import settings

# CI runs select this profile (pytest --hypothesis-profile=ci), so that each
# run explores the same examples; local runs keep random exploration
settings.register_profile("ci", derandomize=True)
