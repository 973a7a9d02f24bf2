"""Table 1 — distributed matrix multiplication, p4 vs NCS_MTS/p4.

Every cell of the paper's Table 1 (both platforms, every node count)
against the reproduction contract:

* application results are numerically correct,
* single-node rows match the paper closely (they calibrate the model),
* NCS_MTS/p4 is never slower than p4 on multi-node runs,
* the Ethernet-vs-NYNET ordering holds.

``python -m repro.bench 1`` prints the table.
"""

import pytest

from repro.bench import paper_data as paper

from . import cell_pair, cells, table_rows

CELLS = cells("table1")


@pytest.mark.parametrize("platform,n_nodes", CELLS,
                         ids=[f"{p}-{n}n" for p, n in CELLS])
def test_table1_cell(platform, n_nodes):
    rp, rn = cell_pair("table1", platform, n_nodes)
    assert rp.correct and rn.correct
    # calibration contract: the single-node rows anchor the model
    if n_nodes == 1:
        assert rp.makespan_s == pytest.approx(
            paper.TABLE1_P4[(platform, 1)], rel=0.10)
    # the paper's headline: threads never hurt, and help with >1 node
    if n_nodes > 1:
        assert rn.makespan_s <= rp.makespan_s
    # stay within a loose factor of the published absolute numbers
    assert rp.makespan_s == pytest.approx(
        paper.TABLE1_P4[(platform, n_nodes)], rel=0.45)


def test_table1_orderings():
    by_key = table_rows("table1")
    # NYNET is faster than Ethernet at every node count (paper's claim:
    # "faster machines and ATM network operates at a faster speed")
    for n in (1, 2, 4):
        assert by_key[("nynet", n)].p4_s < by_key[("ethernet", n)].p4_s
        assert by_key[("nynet", n)].ncs_s < by_key[("ethernet", n)].ncs_s
    # execution time decreases with nodes on both platforms & variants
    for p in ("ethernet", "nynet"):
        ns = paper.TABLE_NODES["table1"][p]
        for a, b in zip(ns, ns[1:]):
            assert by_key[(p, b)].p4_s < by_key[(p, a)].p4_s
            assert by_key[(p, b)].ncs_s < by_key[(p, a)].ncs_s
