"""Collective scaling: host trees vs SBA-200 NIC offload.

The claims behind the EXPERIMENTS.md collective-scaling ledger and the
``KPIS_collectives.json`` baseline.  Each cell runs the ``collective``
driver (barrier -> bcast -> reduce rounds) and reads simulated makespan
plus host events (MTS context switches — the cost the NIC offload
exists to avoid).  Host-tree collectives pay O(n) MPS control messages
*per process wake-up chain*; the NIC engines resolve the same
operations inside adapter firmware with a single multicast per
completion, so both columns should widen with cluster size.
"""

from functools import lru_cache

import pytest

from repro.config import ScenarioSpec, run_scenario


@lru_cache(maxsize=None)
def _run_cell(n_hosts, mode, collectives, rounds=2):
    spec = ScenarioSpec.from_dict({
        "name": f"bench-coll-{collectives}",
        "cluster": {"topology": "atm-lan", "n_hosts": n_hosts, "seed": 7},
        "runtime": {"mode": mode, "collectives": collectives},
        "app": {"driver": "collective",
                "params": {"rounds": rounds, "nbytes": 1024}},
    })
    res = run_scenario(spec)
    assert res.value["bcast_ok"] and res.value["reduce_ok"]
    snap = res.cluster.metrics.snapshot()
    host_events = sum(snap.get("mts.context_switches", {}).values())
    return {"makespan_s": res.value["makespan_s"],
            "host_events": host_events}


@pytest.mark.parametrize("mode", ["nsm", "hsm"])
def test_collective_scaling(mode):
    """Sweep cluster size for both strategies in one service mode."""
    for n in (16, 64):
        host, nic = _run_cell(n, mode, "host"), _run_cell(n, mode, "nic")
        assert nic["makespan_s"] < host["makespan_s"]
        assert nic["host_events"] < host["host_events"] / 2


def test_nic_advantage_grows_with_scale():
    """The offload's host-event saving must *widen* as clusters grow:
    host trees wake O(n) threads per collective, the NIC path a
    constant few per process."""
    saved = {n: _run_cell(n, "nsm", "host")["host_events"]
             - _run_cell(n, "nsm", "nic")["host_events"]
             for n in (16, 64)}
    assert saved[64] > saved[16]
