"""Edge cases for VC signaling, switches and the fabric graph."""

import pytest

from repro.atm import (
    AtmFabric, AtmSwitch, Sba200Adapter, SignalingController, TAXI_140,
    LinkSpec, OC3,
)
from repro.hosts import Host
from repro.sim import Simulator

from ..counts import count


def two_switch_fabric():
    """h0 -- sw0 -- sw1 -- h1 (a multi-switch LAN path)."""
    sim = Simulator()
    fabric = AtmFabric(sim)
    sw0 = fabric.add_switch(AtmSwitch(sim, "sw0"))
    sw1 = fabric.add_switch(AtmSwitch(sim, "sw1"))
    fabric.connect(sw0, sw1, OC3)
    adapters = []
    for i, sw in ((0, sw0), (1, sw1)):
        host = Host(sim, f"h{i}")
        ad = Sba200Adapter(sim, host.name)
        host.attach_interface("atm", ad)
        fabric.add_adapter(ad)
        fabric.connect(ad, sw, TAXI_140)
        adapters.append(ad)
    return sim, fabric, SignalingController(fabric), adapters


class TestMultiSwitchSignaling:
    def test_pvc_programs_both_switches(self):
        sim, fabric, sig, adapters = two_switch_fabric()
        vc = sig.create_pvc("h0", "h1")
        assert len(vc.hops) == 3
        assert vc.n_switches == 2
        # every switch on the path can route the hop-local VCI
        sw0, sw1 = fabric.switches["sw0"], fabric.switches["sw1"]
        assert sw0.lookup(vc.hops[0], vc.hop_vcis[0]).out_vci == vc.hop_vcis[1]
        assert sw1.lookup(vc.hops[1], vc.hop_vcis[1]).out_vci == vc.hop_vcis[2]

    def test_burst_traverses_two_switches(self):
        sim, fabric, sig, (a0, a1) = two_switch_fabric()
        vc = sig.create_pvc("h0", "h1")
        got = []
        a1.rx_handler = lambda vc, payload, nbytes, msg_id: got.append(
            (payload, nbytes))
        a0.send_pdu(vc, 4096, msg_id=a0.alloc_msg_id(), payload="across")
        sim.run(max_events=100_000)
        assert got == [("across", 4096)]
        for name in ("sw0", "sw1"):
            assert count(sim.metrics, "atm.bursts_forwarded", switch=name) >= 1

    def test_teardown_then_send_drops_at_switch(self):
        sim, fabric, sig, (a0, a1) = two_switch_fabric()
        vc = sig.create_pvc("h0", "h1")
        sig.teardown(vc)
        got = []
        a1.rx_handler = lambda *a: got.append(a)
        a0.send_pdu(vc, 1024, msg_id=a0.alloc_msg_id(), payload="ghost")
        sim.run(max_events=100_000)
        assert got == []
        assert fabric.switches["sw0"].bursts_unroutable >= 1

    def test_duplicate_switch_name_rejected(self):
        sim = Simulator()
        fabric = AtmFabric(sim)
        fabric.add_switch(AtmSwitch(sim, "x"))
        with pytest.raises(ValueError):
            fabric.add_switch(AtmSwitch(sim, "x"))

    def test_duplicate_adapter_rejected(self):
        sim = Simulator()
        fabric = AtmFabric(sim)
        host = Host(sim, "h")
        fabric.add_adapter(Sba200Adapter(sim, "h"))
        with pytest.raises(ValueError):
            fabric.add_adapter(Sba200Adapter(sim, "h"))

    def test_switch_program_conflict_rejected(self):
        sim, fabric, sig, _ = two_switch_fabric()
        vc = sig.create_pvc("h0", "h1")
        sw0 = fabric.switches["sw0"]
        with pytest.raises(ValueError, match="already mapped"):
            sw0.program(vc.hops[0], vc.hop_vcis[0], vc.hops[1], 999)


class TestSwitchValidation:
    def test_latency_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AtmSwitch(sim, "bad", switching_latency_s=-1)
        with pytest.raises(ValueError):
            AtmSwitch(sim, "bad", output_buffer_cells=0)

    def test_linkspec_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", 0)
        with pytest.raises(ValueError):
            LinkSpec("bad", 1e6, prop_delay_s=-1)
        with pytest.raises(ValueError):
            LinkSpec("bad", 1e6, ber=1.0)

    def test_linkspec_with_helpers(self):
        spec = TAXI_140.with_delay(1e-3).with_ber(1e-9)
        assert spec.prop_delay_s == 1e-3
        assert spec.ber == 1e-9
        assert spec.bandwidth_bps == TAXI_140.bandwidth_bps
