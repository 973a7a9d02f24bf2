"""The paper's opening thesis, measured: across a WAN "the only viable
approach to reduce the impact of propagation delay is to ... overlap
[computations] with communications" (§3, citing Kleinrock).

Runs the Table 1 matmul with the host upstate and the nodes downstate,
so every transfer crosses the OC-3 -> OC-48 -> DS-3 path with ~2 ms of
propagation, and compares the thread-overlap gain against the same job
on the single-site LAN: the WAN gain must be at least as large.
"""

from repro.apps.matmul import run_matmul_ncs, run_matmul_p4
from repro.bench.tables import run_cell
from repro.core import NcsRuntime
from repro.net import nynet_testbed
from repro.p4 import P4Runtime


def _wan_cluster():
    # host at the upstate site, both worker nodes downstate
    return nynet_testbed(1, 2)


def test_wan_overlap_gain():
    rp_lan = run_cell("matmul-p4", "nynet", 2, n=128)
    rn_lan = run_cell("matmul-ncs", "nynet", 2, n=128)
    rp_wan = run_matmul_p4(P4Runtime(_wan_cluster()), n=128)
    rn_wan = run_matmul_ncs(NcsRuntime(_wan_cluster()), n=128)
    assert all(r.correct for r in (rp_lan, rn_lan, rp_wan, rn_wan))
    gain_lan = (rp_lan.makespan_s - rn_lan.makespan_s) / rp_lan.makespan_s
    gain_wan = (rp_wan.makespan_s - rn_wan.makespan_s) / rp_wan.makespan_s
    # the WAN run is slower in absolute terms...
    assert rp_wan.makespan_s > rp_lan.makespan_s
    # ...and threads recover at least as much of it
    assert gain_wan >= gain_lan - 0.002


def test_wan_first_byte_dominated_by_propagation():
    """A small control message across the testbed spends most of its
    life in flight, not in serialization."""
    cluster = nynet_testbed(1, 1)
    sim = cluster.sim
    vc = cluster.hsm_vc(0, 1)
    prop = sum(ch.spec.prop_delay_s for ch in vc.hops)

    def sender():
        yield from cluster.stack(0).atm_api.send(vc, None, 512)

    def receiver():
        yield cluster.stack(1).atm_api.recv(vc)
        return sim.now

    sim.process(sender())
    p = sim.process(receiver())
    sim.run(max_events=500_000)
    assert prop / p.value > 0.5  # >50% of the end-to-end time is flight
