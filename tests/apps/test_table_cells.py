"""Every paper-size Table 1-3 cell against the parent of the band cache.

The ``table_cells`` wall lives in ``tests/walls/table_cells.py``; its
tests are collected here, beside the applications whose cells it pins.
"""

from tests.walls.table_cells import (  # noqa: F401
    test_every_cell_keeps_its_makespan_result_and_band_sizes,
    test_the_median_error_against_the_paper_is_unchanged)
