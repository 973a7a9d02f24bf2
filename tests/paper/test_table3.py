"""Table 3 — the DIF FFT (M=512, 8 sample sets), p4 vs NCS_MTS/p4.

Contract:

* every distributed FFT output equals ``numpy.fft.fft`` exactly,
* single-node rows match the paper closely (calibration anchors),
* execution time decreases with node count and NYNET beats Ethernet,
* the two variants stay within a few percent of each other (the paper's
  own FFT improvements are its smallest, 5.7-11.3%; see EXPERIMENTS.md
  for why our faster small-message transport compresses them further —
  and ``test_ablations.py`` for the latency sweep that restores them).

``python -m repro.bench 3`` prints the table.
"""

import pytest

from repro.bench import paper_data as paper

from . import cell_pair, cells, table_rows

CELLS = cells("table3")


@pytest.mark.parametrize("platform,n_nodes", CELLS,
                         ids=[f"{p}-{n}n" for p, n in CELLS])
def test_table3_cell(platform, n_nodes):
    rp, rn = cell_pair("table3", platform, n_nodes)
    assert rp.correct and rn.correct
    if n_nodes == 1:
        assert rp.makespan_s == pytest.approx(
            paper.TABLE3_P4[(platform, 1)], rel=0.05)
    # variants track each other closely at our transport latencies
    assert rn.makespan_s == pytest.approx(rp.makespan_s, rel=0.08)


def test_table3_orderings():
    by_key = table_rows("table3")
    for p, ns in paper.TABLE_NODES["table3"].items():
        for a, b in zip(ns, ns[1:]):
            assert by_key[(p, b)].p4_s < by_key[(p, a)].p4_s
    for n in (1, 2, 4):
        assert by_key[("nynet", n)].p4_s < by_key[("ethernet", n)].p4_s
