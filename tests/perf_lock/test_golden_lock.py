"""The determinism wall: same seed => bit-identical behavior.

The seven perf-lock scenarios are walls in ``tests/walls/perf_lock.py``
(one wall per scenario, golden ``tests/walls/<name>_parent.json``);
their tests are collected here, beside the event budget.
"""

from tests.walls.perf_lock import (  # noqa: F401
    test_behavior_matches_golden, test_every_scenario_has_a_golden)
