"""conftest.py's hypothesis profile reaches the test modules: a
settings object that names only max_examples is derandomized, keeps no
example database and has no deadline."""

from hypothesis import settings


def test_settings_inherit_the_profile():
    s = settings(max_examples=7)
    assert (s.max_examples, s.derandomize, s.database, s.deadline) == (7, True, None, None)
