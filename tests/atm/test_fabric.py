"""Integration tests: adapters, switches, links, signaling, ATM API."""

import pytest

from repro.atm import (
    AtmApi, AtmFabric, AtmSwitch, LinkSpec, Sba200Adapter,
    SignalingController, TAXI_140,
)
from repro.hosts import Host
from repro.sim import RngRegistry, Simulator

from ..counts import count


def build_lan(n_hosts=2, train_cells=256, switch_kw=None, link_spec=TAXI_140,
              rngs=None):
    """n hosts star-wired to one switch over TAXI."""
    sim = Simulator()
    fabric = AtmFabric(sim)
    switch = fabric.add_switch(AtmSwitch(sim, "sw0", **(switch_kw or {})))
    hosts, apis = [], []
    for i in range(n_hosts):
        host = Host(sim, f"h{i}")
        adapter = Sba200Adapter(sim, host.name, train_cells=train_cells)
        host.attach_interface("atm", adapter)
        fabric.add_adapter(adapter)
        rng = rngs.stream(f"link.h{i}") if rngs else None
        fabric.connect(adapter, switch, link_spec, rng_a=rng, rng_b=rng)
        hosts.append(host)
        apis.append(AtmApi(host))
    sig = SignalingController(fabric)
    return sim, fabric, sig, hosts, apis


class TestSignaling:
    def test_pvc_path_through_switch(self):
        sim, fabric, sig, hosts, apis = build_lan()
        vc = sig.create_pvc("h0", "h1")
        assert len(vc.hops) == 2
        assert vc.n_switches == 1
        assert vc.src_vci >= 32

    def test_vc_to_self_rejected(self):
        sim, fabric, sig, hosts, apis = build_lan()
        with pytest.raises(ValueError):
            sig.create_pvc("h0", "h0")

    def test_vcis_unique_per_channel(self):
        sim, fabric, sig, hosts, apis = build_lan(3)
        vc1 = sig.create_pvc("h0", "h1")
        vc2 = sig.create_pvc("h0", "h2")
        assert vc1.src_vci != vc2.src_vci

    def test_teardown_unprograms_switch(self):
        sim, fabric, sig, hosts, apis = build_lan()
        vc = sig.create_pvc("h0", "h1")
        switch = fabric.switches["sw0"]
        sig.teardown(vc)
        with pytest.raises(KeyError):
            switch.lookup(vc.hops[0], vc.hop_vcis[0])


class TestEndToEnd:
    def test_message_arrives_intact(self):
        sim, fabric, sig, hosts, apis = build_lan()
        vc = sig.create_pvc("h0", "h1")
        payload = {"matrix": list(range(10))}
        def sender():
            yield from apis[0].send(vc, payload, 4096)
        def receiver():
            msg = yield apis[1].recv(vc)
            return msg
        sim.process(sender())
        p = sim.process(receiver())
        sim.run()
        assert p.value.payload == payload
        assert p.value.nbytes == 4096

    def test_transfer_time_scales_with_size(self):
        def time_for(nbytes):
            sim, fabric, sig, hosts, apis = build_lan()
            vc = sig.create_pvc("h0", "h1")
            def sender():
                yield from apis[0].send(vc, None, nbytes)
            def receiver():
                yield apis[1].recv(vc)
                return sim.now
            sim.process(sender())
            p = sim.process(receiver())
            sim.run()
            return p.value
        t_small, t_big = time_for(1024), time_for(64 * 1024)
        assert t_big > t_small
        # 64x the bytes should be < 100x and > 5x the time
        assert 5 < t_big / t_small < 100

    def test_bandwidth_bounded_by_taxi_and_sar(self):
        """A large transfer's goodput must stay below the TAXI line rate."""
        sim, fabric, sig, hosts, apis = build_lan()
        vc = sig.create_pvc("h0", "h1")
        nbytes = 512 * 1024
        def sender():
            yield from apis[0].send(vc, None, nbytes)
        def receiver():
            got = 0
            while got < nbytes:
                msg = yield apis[1].recv(vc)
                got += msg.nbytes
            return sim.now
        sim.process(sender())
        p = sim.process(receiver())
        sim.run()
        goodput = nbytes * 8 / p.value
        assert goodput < 140e6
        assert goodput > 30e6  # but in the right ballpark for SBA-200

    def test_multi_pdu_message_reassembled_once(self):
        """Messages above the AAL5 PDU cap are framed into several PDUs
        but delivered as one message."""
        sim, fabric, sig, hosts, apis = build_lan()
        vc = sig.create_pvc("h0", "h1")
        nbytes = 200 * 1024  # > 65000 -> 4 PDUs
        assert len(apis[0].pdu_sizes(nbytes)) == 4
        def sender():
            yield from apis[0].send(vc, "tail-payload", nbytes)
        def receiver():
            msg = yield apis[1].recv(vc)
            return msg
        sim.process(sender())
        p = sim.process(receiver())
        sim.run()
        assert p.value.nbytes == nbytes
        assert p.value.payload == "tail-payload"

    def test_two_vcs_do_not_cross_talk(self):
        sim, fabric, sig, hosts, apis = build_lan(3)
        vc01 = sig.create_pvc("h0", "h1")
        vc02 = sig.create_pvc("h0", "h2")
        def sender():
            yield from apis[0].send(vc01, "for-h1", 100)
            yield from apis[0].send(vc02, "for-h2", 100)
        def receiver(api, vc):
            msg = yield api.recv(vc)
            return msg.payload
        sim.process(sender())
        p1 = sim.process(receiver(apis[1], vc01))
        p2 = sim.process(receiver(apis[2], vc02))
        sim.run()
        assert p1.value == "for-h1"
        assert p2.value == "for-h2"

    def test_send_on_foreign_vc_rejected(self):
        sim, fabric, sig, hosts, apis = build_lan()
        vc = sig.create_pvc("h0", "h1")
        def bad():
            yield from apis[1].send(vc, None, 10)
        p = sim.process(bad())
        sim.run()
        assert not p.ok

    def test_cell_accurate_and_burst_modes_agree_on_delivery(self):
        """train_cells=1 (every cell its own event) and the default burst
        mode must deliver the same bytes; timing may differ only slightly."""
        results = {}
        for mode, train in (("cells", 1), ("burst", 4096)):
            sim, fabric, sig, hosts, apis = build_lan(train_cells=train)
            vc = sig.create_pvc("h0", "h1")
            def sender():
                yield from apis[0].send(vc, None, 8192)
            def receiver():
                msg = yield apis[1].recv(vc)
                return (msg.nbytes, sim.now)
            sim.process(sender())
            p = sim.process(receiver())
            sim.run()
            results[mode] = p.value
        assert results["cells"][0] == results["burst"][0] == 8192
        # cut-through (per-cell) should not be slower than whole-burst
        assert results["cells"][1] == pytest.approx(results["burst"][1],
                                                    rel=0.5)


class TestErrors:
    def test_corrupted_pdu_dropped_and_reported(self):
        rngs = RngRegistry(seed=7)
        spec = LinkSpec("lossy", 140e6, 5e-6, ber=2e-5)
        sim, fabric, sig, hosts, apis = build_lan(link_spec=spec, rngs=rngs)
        vc = sig.create_pvc("h0", "h1")
        failures = []
        hosts[1].interface("atm").rx_error_handler = \
            lambda vc, msg_id: failures.append(msg_id)
        def sender():
            for _ in range(40):
                yield from apis[0].send(vc, None, 4096)
        delivered = []
        def receiver():
            while True:
                msg = yield apis[1].recv(vc)
                delivered.append(msg.msg_id)
        sim.process(sender())
        sim.process(receiver())
        sim.run(max_events=200000)
        assert failures, "expected at least one corrupted PDU at this BER"
        assert len(delivered) + len(failures) == 40
        assert set(delivered).isdisjoint(failures)

    def test_switch_buffer_overflow_drops(self):
        sim, fabric, sig, hosts, apis = build_lan(
            3, switch_kw={"output_buffer_cells": 64}, train_cells=64)
        # two senders converge on h2's downlink -> output queue overflows
        vc0 = sig.create_pvc("h0", "h2")
        vc1 = sig.create_pvc("h1", "h2")
        def sender(api, vc):
            for _ in range(10):
                yield from api.send(vc, None, 30000)
        sim.process(sender(apis[0], vc0))
        sim.process(sender(apis[1], vc1))
        sim.run(max_events=500000)
        assert count(sim.metrics, "atm.bursts_dropped", switch="sw0") > 0

    def test_a_delivery_that_raises_is_not_swallowed(self):
        """A burst crosses a link on one timer (the channel's landing
        call), not inside a throw-away process that would die silently
        with the exception: a failing error handler stops the run,
        annotated with the call and the simulated instant."""
        sim, fabric, sig, hosts, apis = build_lan()
        vc = sig.create_pvc("h0", "h1")
        hosts[1].interface("atm").fail()    # every PDU reassembles corrupted

        def broken_handler(vc, msg_id):
            raise LookupError(f"no handler state for message {msg_id}")
        hosts[1].interface("atm").rx_error_handler = broken_handler

        def sender():
            yield from apis[0].send(vc, None, 4096)
        sim.process(sender())
        with pytest.raises(LookupError, match="no handler state") as err:
            sim.run(max_events=10000)
        notes = "".join(err.value.__notes__)
        assert "in simulated call 'Channel._land'" in notes
        assert f"t={sim.now:.9g}" in notes and sim.now > 0

