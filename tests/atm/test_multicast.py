"""Switch-level cell multicast: group-table programming, spanning-tree
replication, and point-to-multipoint delivery end to end."""

import pytest

from repro.atm import MulticastChannel

from ..counts import count
from .test_fabric import build_lan


def _switch_links(fabric, sw):
    """The duplex links attached to a switch, in insertion order.

    ``link.fwd`` runs host -> switch (an *input* channel) and
    ``link.rev`` switch -> host (an *output* channel) because
    ``build_lan`` connects ``(adapter, switch)`` in that order."""
    return [edge.link for edge in fabric.routes[sw.name].values()]


class TestGroupTable:
    def test_needs_at_least_one_leg(self):
        sim, fabric, sig, hosts, apis = build_lan(2)
        sw = fabric.switches["sw0"]
        links = _switch_links(fabric, sw)
        with pytest.raises(ValueError, match="leg"):
            sw.program_multicast(links[0].fwd, 40, [])

    def test_rejects_duplicate_output_channel(self):
        sim, fabric, sig, hosts, apis = build_lan(3)
        sw = fabric.switches["sw0"]
        links = _switch_links(fabric, sw)
        with pytest.raises(ValueError, match="duplicate"):
            sw.program_multicast(links[0].fwd, 40,
                                 [(links[1].rev, 41), (links[1].rev, 42)])

    def test_rejects_vci_already_unicast(self):
        sim, fabric, sig, hosts, apis = build_lan(3)
        vc = sig.create_pvc("h0", "h1")
        sw = fabric.switches["sw0"]
        links = _switch_links(fabric, sw)
        with pytest.raises(ValueError, match="already mapped"):
            sw.program_multicast(vc.hops[0], vc.hop_vcis[0],
                                 [(links[2].rev, 99)])

    def test_unprogram_is_idempotent(self):
        sim, fabric, sig, hosts, apis = build_lan(3)
        mc = sig.create_multicast("h0", ["h1", "h2"])
        sw = fabric.switches["sw0"]
        sw.unprogram_multicast(mc.hops[0], mc.src_vci)
        sw.unprogram_multicast(mc.hops[0], mc.src_vci)  # no raise


class TestCreateMulticast:
    def test_tree_shape_on_star(self):
        sim, fabric, sig, hosts, apis = build_lan(4)
        mc = sig.create_multicast("h0", ["h1", "h2", "h3"])
        assert isinstance(mc, MulticastChannel)
        assert mc.src_vci >= 32
        assert {a.host_name for a in mc.leaves} == {"h1", "h2", "h3"}
        # star: one uplink + one downlink per leaf
        assert len(mc.hops) == 4

    def test_rejects_empty_and_self_destinations(self):
        sim, fabric, sig, hosts, apis = build_lan(3)
        with pytest.raises(ValueError):
            sig.create_multicast("h0", [])
        with pytest.raises(ValueError):
            sig.create_multicast("h0", ["h0", "h1"])

    def test_vcis_disjoint_from_unicast(self):
        sim, fabric, sig, hosts, apis = build_lan(3)
        vc = sig.create_pvc("h0", "h1")
        mc = sig.create_multicast("h0", ["h1", "h2"])
        assert mc.src_vci != vc.src_vci


class TestDelivery:
    def test_single_send_reaches_every_leaf(self):
        sim, fabric, sig, hosts, apis = build_lan(4)
        mc = sig.create_multicast("h0", ["h1", "h2", "h3"])
        got = {}

        def sender():
            yield from apis[0].send(mc, {"round": 1}, 4096)

        def receiver(i):
            msg = yield apis[i].recv(mc)
            got[i] = msg.payload

        sim.process(sender())
        for i in (1, 2, 3):
            sim.process(receiver(i))
        sim.run()
        assert got == {1: {"round": 1}, 2: {"round": 1}, 3: {"round": 1}}
        # the source transmitted the PDU exactly once; the switch did
        # the fan-out (FORE-style output-port replication)
        assert count(sim.metrics, "atm.pdus_sent", host="h0") == 1
        assert count(sim.metrics, "atm.mcast_replicas", switch="sw0") == 3

    def test_subset_group_excludes_nonmembers(self):
        sim, fabric, sig, hosts, apis = build_lan(4)
        mc = sig.create_multicast("h0", ["h1", "h3"])
        got = {}

        def sender():
            yield from apis[0].send(mc, "hello", 1024)

        def receiver(i):
            msg = yield apis[i].recv(mc)
            got[i] = msg.payload

        sim.process(sender())
        for i in (1, 3):
            sim.process(receiver(i))
        sim.run()
        assert got == {1: "hello", 3: "hello"}
        # h2's adapter saw no cells for this group
        assert count(sim.metrics, "atm.pdus_received", host="h2") == 0

    def test_two_groups_do_not_interfere(self):
        sim, fabric, sig, hosts, apis = build_lan(4)
        mc_a = sig.create_multicast("h0", ["h1", "h2"])
        mc_b = sig.create_multicast("h3", ["h1", "h2"])
        got = {1: [], 2: []}

        def send(api, mc, payload):
            yield from api.send(mc, payload, 512)

        # receive per-VC queues: drain each group's queue explicitly
        def recv_on(i, mc, out):
            msg = yield apis[i].recv(mc)
            out.append(msg.payload)

        sim.process(send(apis[0], mc_a, "A"))
        sim.process(send(apis[3], mc_b, "B"))
        for i in (1, 2):
            sim.process(recv_on(i, mc_a, got[i]))
            sim.process(recv_on(i, mc_b, got[i]))
        sim.run()
        assert sorted(got[1]) == ["A", "B"]
        assert sorted(got[2]) == ["A", "B"]
