"""Table 2 — the distributed JPEG pipeline, p4 vs NCS_MTS/p4.

The paper's strongest result: the five-stage pipeline is communication-
dominated, so two threads per node hide a large fraction of the
transfer time.  The contract checked here:

* pipeline output is a faithful reconstruction (PSNR > 30 dB),
* NCS beats p4 *clearly* at every cell (the paper's 16-62% band; we
  require >= 8%),
* NCS times decrease with node count (paper's NCS column shape),
* NYNET beats Ethernet cell for cell.

Known deviation (see EXPERIMENTS.md): the paper's *p4* column grows
with node count; no self-consistent cost model reproduces that growth,
and our p4 column decreases instead.  ``python -m repro.bench 2``
prints the table.
"""

import pytest

from repro.bench import paper_data as paper

from . import cell_pair, cells, table_rows

CELLS = cells("table2")


@pytest.mark.parametrize("platform,n_nodes", CELLS,
                         ids=[f"{p}-{n}n" for p, n in CELLS])
def test_table2_cell(platform, n_nodes):
    rp, rn = cell_pair("table2", platform, n_nodes)
    assert rp.correct and rn.correct
    improvement = (rp.makespan_s - rn.makespan_s) / rp.makespan_s
    assert improvement > 0.08, (
        f"NCS should clearly beat p4 on the JPEG pipeline, got "
        f"{improvement:.1%}")
    # the smallest configuration calibrates the model
    if n_nodes == 2:
        assert rp.makespan_s == pytest.approx(
            paper.TABLE2_P4[(platform, 2)], rel=0.25)


def test_table2_orderings():
    by_key = table_rows("table2")
    # paper's NCS column: more nodes, less time
    for p, ns in paper.TABLE_NODES["table2"].items():
        for a, b in zip(ns, ns[1:]):
            assert by_key[(p, b)].ncs_s < by_key[(p, a)].ncs_s
    # NYNET beats Ethernet cell for cell
    for n in (2, 4):
        assert by_key[("nynet", n)].ncs_s < by_key[("ethernet", n)].ncs_s
