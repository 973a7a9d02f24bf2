"""Fig 3 — the communication datapath: 5 vs 3 memory-bus accesses/word.

Checks the model numbers (entry costs, per-word accesses, one-way CPU
time for a message) and then measures the end-to-end effect by sending
the same message over NSM (socket datapath) and HSM (NCS datapath).
"""

import pytest

from repro.bench.figures import _one_way, fig3_datapath
from repro.core.mps import (
    NCS_DATAPATH, SOCKET_DATAPATH, ServiceMode, ZERO_COPY_DATAPATH,
)
from repro.hosts import SUN_IPX


@pytest.mark.parametrize("nbytes", [64 * 1024, 1000])
def test_fig3_model_numbers(nbytes):
    data = fig3_datapath(nbytes)
    # a pure model: no simulation state involved
    assert fig3_datapath(nbytes) == data
    # the paper's numbers: 5 accesses on the socket path, 3 on NCS's
    assert data[SOCKET_DATAPATH.name]["total_accesses_per_word"] == 5
    assert data[NCS_DATAPATH.name]["total_accesses_per_word"] == 3
    assert data["access_ratio_socket_vs_ncs"] == pytest.approx(5 / 3)
    # a trap is cheaper than a syscall (§4.2)
    assert (data[NCS_DATAPATH.name]["entry_cost_s"]
            < data[SOCKET_DATAPATH.name]["entry_cost_s"])
    # and the NCS path's CPU time is accordingly lower
    assert (data[NCS_DATAPATH.name]["one_way_cpu_s"]
            < 0.6 * data[SOCKET_DATAPATH.name]["one_way_cpu_s"])
    # ablation floor: zero-copy only pays the trap
    assert (data[ZERO_COPY_DATAPATH.name]["one_way_cpu_s"]
            == pytest.approx(SUN_IPX.os.trap_time))


def test_fig3_end_to_end_latency():
    """Same 64 KB NCS message over each tier: the HSM (3-access + Fig 2
    pipeline + no TCP) must beat NSM (5-access + TCP) decisively."""
    nsm = _one_way(ServiceMode.NSM, 64 * 1024)
    hsm = _one_way(ServiceMode.HSM, 64 * 1024)
    assert hsm < 0.5 * nsm
