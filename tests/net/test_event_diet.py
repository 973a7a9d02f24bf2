"""The network models against the calendar hand-offs they used to make.

The ``event_diet`` wall lives in ``tests/walls/event_diet.py``; its
tests are collected here, beside the layer they guard.
"""

from tests.walls.event_diet import (  # noqa: F401
    test_every_observable_is_where_it_was,
    test_scripts_exercise_what_they_claim)
