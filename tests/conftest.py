"""Hypothesis profiles for the test suite.

A test whose `@settings` leaves out `max_examples` takes its budget from
the loaded profile: hypothesis's default of 100 examples, or a longer one
chosen on the command line, for example

    python -m pytest tests/test_parastat.py --hypothesis-profile=long -k drawn_defects

A test that names `max_examples` keeps its own budget under any profile.
"""

from hypothesis import settings

settings.register_profile("long", max_examples=2000)
