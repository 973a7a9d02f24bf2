"""Ablations of the design decisions DESIGN.md §5 calls out.

1. **Threads per node** — the overlap mechanism: sweep 1/2/4 threads on
   the matmul.
2. **Burst vs cell-accurate ATM simulation** — identical delivery, very
   different event counts.
3. **Per-message latency sweep** — demonstrates where the paper's
   improvement band reappears: as p4's per-message overhead grows toward
   mid-90s magnitudes, the NCS advantage widens (threads hide latency).
4. **Shared vs switched medium** — Ethernet collisions ablation.
5. **Where the JPEG gains come from** — the improvement at two node
   counts.
"""

import pytest

from repro.apps.common import platform_nynet
from repro.apps.matmul import run_matmul_ncs, run_matmul_p4
from repro.bench.tables import run_cell
from repro.core import NcsRuntime
from repro.net import build_atm_cluster, build_ethernet_cluster
from repro.p4 import P4Params, P4Runtime

from . import cell_pair


def test_ablation_threads_per_node():
    """More threads, more overlap — until per-thread message overheads
    dominate."""
    times = {}
    for threads in (1, 2, 4):
        r = run_cell("matmul-ncs", "nynet", 2, n=128,
                     threads_per_node=threads)
        assert r.correct
        times[threads] = r.makespan_s
    # 2 threads (the paper's choice) must beat 1 thread
    assert times[2] < times[1]


def test_ablation_cell_accurate_vs_burst():
    """train_cells=1 (every cell an event) and the default burst mode
    deliver identical bytes; burst mode is the documented approximation."""
    results = {}
    for label, train in (("burst", 256), ("cell-accurate", 1)):
        cluster = build_atm_cluster(2, train_cells=train)
        sim = cluster.sim
        vc = cluster.hsm_vc(0, 1)
        api0, api1 = cluster.stack(0).atm_api, cluster.stack(1).atm_api

        def sender():
            yield from api0.send(vc, None, 32 * 1024)

        def receiver():
            msg = yield api1.recv(vc)
            return (msg.nbytes, sim.now)

        sim.process(sender())
        p = sim.process(receiver())
        sim.run(max_events=10_000_000)
        results[label] = p.value
    assert results["burst"][0] == results["cell-accurate"][0] == 32 * 1024
    assert results["burst"][1] == pytest.approx(
        results["cell-accurate"][1], rel=0.5)


def test_ablation_latency_sweep_restores_matmul_gap():
    """EXPERIMENTS.md's central analysis: the paper's improvement bands
    presuppose per-message/per-byte costs far above our calibrated
    stack's.  Inflating p4's marshalling cost widens the gap between p4
    and NCS — threads hide transfer time, single-threaded p4 eats it."""
    gaps = {}
    for per_byte_us in (0.3, 2.0, 6.0):
        params = P4Params(
            marshal_send_per_byte_s=per_byte_us * 1e-6,
            marshal_recv_per_byte_s=per_byte_us * 1e-6)
        p4 = P4Runtime(platform_nynet(3), params)
        ncs = NcsRuntime(platform_nynet(3), p4_params=params)
        rp = run_matmul_p4(p4, n=128)
        rn = run_matmul_ncs(ncs, n=128)
        assert rp.correct and rn.correct
        gaps[per_byte_us] = (rp.makespan_s - rn.makespan_s) \
            / rp.makespan_s * 100
    # NCS never loses, and the gap widens monotonically with latency
    costs = sorted(gaps)
    assert all(gaps[c] > -0.5 for c in costs)
    assert gaps[costs[-1]] > gaps[costs[0]]


def test_ablation_ethernet_collisions():
    """Collision modeling slows the shared segment under load but never
    loses data (CSMA/CD retries)."""
    results = {}
    for collisions in (False, True):
        cluster = build_ethernet_cluster(3, collisions=collisions)
        sim = cluster.sim
        got = []
        nic2 = cluster.host(2).interface("ethernet")
        nic2.set_receive_handler(lambda f: got.append(sim.now))
        nic0 = cluster.host(0).interface("ethernet")
        nic1 = cluster.host(1).interface("ethernet")
        for _ in range(50):
            nic0.enqueue("n2", None, 1000)
            nic1.enqueue("n2", None, 1000)
        sim.run(max_events=1_000_000)
        results[collisions] = (len(got), got[-1])
    assert results[False][0] == results[True][0] == 100
    assert results[True][1] >= results[False][1]


def test_ablation_jpeg_overlap_source():
    """Where do the JPEG pipeline's gains come from?  Compare the full
    NCS run against p4 at two node counts (Table 2's NYNET cells): the
    improvement holds across scales because the hidden time (band
    transfers) scales with the work."""
    for n in (2, 4):
        rp, rn = cell_pair("table2", "nynet", n)
        imp = (rp.makespan_s - rn.makespan_s) / rp.makespan_s
        assert imp > 0.08
