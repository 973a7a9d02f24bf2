"""The paper's claims, one module per table or figure.

The Tables 1-3 claims run no cell of their own: they read every
paper-size cell from the ``table_cells`` wall's capture, which runs each
cell once per process at seed 1995 (the makespans do not depend on the
seed of the matmul and FFT inputs)."""

from types import SimpleNamespace

from repro.bench import paper_data as paper
from repro.bench.report import TableRow
from tests.walls.table_cells import capture


def cells(table):
    """Every ``(platform, n_nodes)`` cell of ``table``, in the paper's
    order."""
    return [(p, n) for p in ("ethernet", "nynet")
            for n in paper.TABLE_NODES[table][p]]


def cell_pair(table, platform, n_nodes):
    """``(p4, ncs)``: the captured ``makespan_s`` and ``correct`` of one
    cell."""
    got = capture()["cells"]
    return tuple(SimpleNamespace(**got[f"{table}.{v}.{platform}.{n_nodes}"])
                 for v in ("p4", "ncs"))


def table_rows(table):
    """``(platform, n_nodes) -> TableRow`` over every cell of ``table``."""
    return {(p, n): TableRow(p, n, *(r.makespan_s
                                     for r in cell_pair(table, p, n)))
            for p, n in cells(table)}
