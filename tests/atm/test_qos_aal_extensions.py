"""Tests for the ATM-level QoS extension, per-VC PCR shaping, and for
the one AAL every VC carries."""

import pytest

from repro.atm import AAL5
from repro.net import build_atm_cluster

from ..counts import count


def transfer_goodput(cluster, vc, nbytes):
    sim = cluster.sim
    api_s = cluster.stack(0).atm_api
    api_d = cluster.stack(1).atm_api

    def sender():
        yield from api_s.send(vc, None, nbytes)

    def receiver():
        got = 0
        while got < nbytes:
            msg = yield api_d.recv(vc)
            got += msg.nbytes
        return sim.now

    t0 = cluster.sim.now
    sim.process(sender())
    p = sim.process(receiver())
    sim.run(max_events=5_000_000)
    return nbytes * 8 / (p.value - t0)


class TestPcrShaping:
    def test_pcr_caps_goodput(self):
        """A VC with a 10k cells/s contract carries at most ~3.8 Mbps of
        payload (48 B per cell), regardless of the 140 Mbps line."""
        cluster = build_atm_cluster(2)
        sig = cluster.signaling
        pcr = 10_000.0
        vc = sig.create_pvc("n0", "n1", pcr_cells_s=pcr)
        goodput = transfer_goodput(cluster, vc, 128 * 1024)
        ceiling = pcr * 48 * 8
        assert goodput <= ceiling * 1.02
        assert goodput > 0.5 * ceiling

    def test_best_effort_vc_unaffected(self):
        cluster = build_atm_cluster(2)
        vc = cluster.hsm_vc(0, 1)
        assert vc.pcr_cells_s is None
        goodput = transfer_goodput(cluster, vc, 128 * 1024)
        assert goodput > 30e6   # SAR/DMA-bound, far above any PCR cap

    def test_shaped_and_unshaped_share_fabric(self):
        """The shaped VC's pacing must not slow an unshaped VC from the
        same host (pacing holds the channel per burst, so use a small
        train to interleave)."""
        cluster = build_atm_cluster(3, train_cells=32)
        sig = cluster.signaling
        slow_vc = sig.create_pvc("n0", "n1", pcr_cells_s=5_000.0)
        fast_vc = cluster.hsm_vc(0, 2)
        sim = cluster.sim
        done = {}

        def sender(vc, nbytes, tag):
            yield from cluster.stack(0).atm_api.send(vc, None, nbytes)

        def receiver(pid, vc, nbytes, tag):
            api = cluster.stack(pid).atm_api
            got = 0
            while got < nbytes:
                msg = yield api.recv(vc)
                got += msg.nbytes
            done[tag] = sim.now

        sim.process(sender(slow_vc, 64 * 1024, "slow"))
        sim.process(sender(fast_vc, 64 * 1024, "fast"))
        sim.process(receiver(1, slow_vc, 64 * 1024, "slow"))
        sim.process(receiver(2, fast_vc, 64 * 1024, "fast"))
        sim.run(max_events=5_000_000)
        assert done["fast"] < done["slow"] / 3


class TestEveryVcIsAal5:
    def test_a_pdu_costs_its_aal5_cells(self):
        """No VC picks its AAL: an ad-hoc PVC and an on-demand circuit
        both put a PDU on the wire in the cells AAL5 sizes it at."""
        cluster = build_atm_cluster(2)
        sim = cluster.sim

        def send(vc):
            yield from cluster.stack(0).atm_api.send(vc, None, 9000)

        for vc in (cluster.signaling.create_pvc("n0", "n1"),
                   cluster.hsm_vc(0, 1)):
            before = count(sim.metrics, "atm.cells_sent", host="n0")
            sim.process(send(vc))
            sim.run(max_events=200_000)
            sent = count(sim.metrics, "atm.cells_sent", host="n0") - before
            assert sent == AAL5.pdu_cells(9000) == 188
