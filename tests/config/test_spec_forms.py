"""The scenario reader against the per-table readers it replaced.

The ``spec_forms`` wall lives in ``tests/walls/spec_forms.py``; its
tests are collected here, beside the layer they guard.
"""

from tests.walls.spec_forms import (  # noqa: F401
    test_every_matrix_cell_keeps_its_run_id_and_digest,
    test_every_scenario_reads_to_its_parent_form)
