"""The ATM fabric against the calendar it used to keep per hop.

The ``hop_arithmetic`` wall lives in ``tests/walls/hop_arithmetic.py``;
its tests are collected here, beside the layer they guard.
"""

from tests.walls.hop_arithmetic import (  # noqa: F401
    test_every_burst_lands_where_it_did, test_one_channel_is_the_drain_process,
    test_scripts_exercise_what_they_claim)
