"""System-thread wake-ups against the calendar events they used to be.

The ``direct_signals`` wall lives in ``tests/walls/direct_signals.py``;
its tests are collected here, beside the layer they guard.
"""

from tests.walls.direct_signals import (  # noqa: F401
    test_cells_exercise_what_they_claim, test_every_observable_is_where_it_was,
    test_the_one_tie_that_moved)
