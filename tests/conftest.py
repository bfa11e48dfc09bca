"""Hypothesis settings shared by every test module: no deadline, a
fixed derandomized example sequence and no example database, so each
run draws the same examples.  Each test sets its own max_examples."""

from hypothesis import settings

settings.register_profile("padiclab", deadline=None, derandomize=True, database=None)
settings.load_profile("padiclab")
