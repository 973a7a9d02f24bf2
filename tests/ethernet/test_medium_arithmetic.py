"""The Ethernet segment against the drain processes it used to run.

The ``medium_arithmetic`` wall lives in
``tests/walls/medium_arithmetic.py``; its tests are collected here,
beside the layer they guard.
"""

from tests.walls.medium_arithmetic import (  # noqa: F401
    test_every_frame_lands_where_it_did,
    test_one_segment_is_the_drain_processes,
    test_scripts_exercise_what_they_claim)
