"""The paper tables' wall: every Table 1-3 cell at paper size ends where
it did.

``table_cells_parent.json`` holds what commit ``4d62491`` — the last one
that ran the JPEG codec over every band of every Table 2 cell — produced
for each (table, variant, platform, node count) cell the ``paper_tables``
benchmark workload runs, at the paper's problem sizes and seed 1995:
the makespan (an exact float), whether the application's result was
correct and, for a JPEG cell, the ``nbytes`` of each band's compressed
image, in the order the compressors sent them.  It also holds the
median of ``|simulated - paper| / paper`` over all the cells, in
percent.

Provenance: captured at ``4d62491`` with ``python -m tests.walls
capture table_cells``; the code that codes each distinct band of the
benchmark image once per process reproduces it byte for byte.
"""

import statistics
from functools import lru_cache

from repro.apps.jpeg import CompressedImage
from repro.bench import paper_data
from repro.bench.tables import cell_spec
from repro.config import run_scenario

from .harness import Wall, assert_same

SEED = 1995

#: (table, app driver stem, paper-size parameters)
TABLES = (("table1", "matmul", {"n": 128}),
          ("table2", "jpeg", {}),
          ("table3", "fft", {"m": 512, "n_sets": 8}))


def cells():
    """``(name, table, app, variant, platform, n, params)`` per cell, in
    the order ``paper_tables`` runs them."""
    for table, app, params in TABLES:
        for platform, counts in paper_data.TABLE_NODES[table].items():
            for n in counts:
                for variant in ("p4", "ncs"):
                    yield (f"{table}.{variant}.{platform}.{n}", table,
                           app, variant, platform, n, params)


@lru_cache(maxsize=1)
def capture() -> dict:
    """Run every cell (once per process: the tests share the capture).
    A JPEG cell's band sizes are the ``CompressedImage.nbytes`` its run
    read: once per band, where the compressor sends it."""
    sent = []
    plain = CompressedImage.nbytes

    def nbytes(comp):
        sent.append(plain.fget(comp))
        return sent[-1]
    out, errors = {}, []
    CompressedImage.nbytes = property(nbytes)
    try:
        for name, table, app, variant, platform, n, params in cells():
            sent.clear()
            result = run_scenario(cell_spec(f"{app}-{variant}", platform, n,
                                            seed=SEED, **params)).value
            out[name] = {"makespan_s": result.makespan_s,
                         "correct": bool(result.correct)}
            if app == "jpeg":
                out[name]["band_nbytes"] = list(sent)
            paper_s = getattr(paper_data, f"{table}_{variant}".upper())[
                platform, n]
            errors.append(abs(result.makespan_s - paper_s) / paper_s * 100.0)
    finally:
        CompressedImage.nbytes = plain
    return {"cells": out, "paper_err_pct": statistics.median(errors)}


WALL = Wall("table_cells", "4d62491", capture, dump={"indent": 1})


# -------------------------------------------------------------------- tests
def test_every_cell_keeps_its_makespan_result_and_band_sizes():
    parent, got = WALL.parent()["cells"], capture()["cells"]
    assert list(got) == list(parent)
    for name, row in got.items():
        assert_same(row, parent[name], coarse=("makespan_s", "correct"),
                    where=name)


def test_the_median_error_against_the_paper_is_unchanged():
    assert capture()["paper_err_pct"] == WALL.parent()["paper_err_pct"]
