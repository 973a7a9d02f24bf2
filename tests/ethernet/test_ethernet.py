"""Unit tests for the shared Ethernet model."""

import pytest

from repro.ethernet import (
    ETHERNET_MIN_FRAME, ETHERNET_MTU, EthernetFrame, EthernetLan, EthernetNic,
)
from repro.sim import Simulator

from ..counts import count


def make_lan(n=2, **kw):
    sim = Simulator()
    lan = EthernetLan(sim, **kw)
    nics = [EthernetNic(sim, lan, f"nic{i}") for i in range(n)]
    return sim, lan, nics


class TestFrame:
    def test_mtu_enforced(self):
        with pytest.raises(ValueError):
            EthernetFrame("a", "b", None, ETHERNET_MTU + 1)

    def test_min_frame_padding(self):
        f = EthernetFrame("a", "b", None, 1)
        assert f.frame_bytes == ETHERNET_MIN_FRAME

    def test_wire_bytes_includes_preamble(self):
        f = EthernetFrame("a", "b", None, 1000)
        assert f.wire_bytes == 14 + 1000 + 4 + 8

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            EthernetFrame("a", "b", None, -1)


class TestDelivery:
    def test_frame_arrives_with_tx_plus_prop_delay(self):
        sim, lan, (a, b) = make_lan(prop_delay_s=10e-6)
        got = []
        b.set_receive_handler(lambda f: got.append((sim.now, f.payload)))
        a.enqueue("nic1", "hello", 1000)
        sim.run()
        expected = (14 + 1000 + 4 + 8) * 8 / 10e6 + 10e-6
        assert got[0][1] == "hello"
        assert got[0][0] == pytest.approx(expected)

    def test_unknown_destination_rejected_at_enqueue(self):
        sim, lan, (a, b) = make_lan()
        with pytest.raises(KeyError):
            a.enqueue("nowhere", None, 100)

    def test_duplicate_address_rejected(self):
        sim = Simulator()
        lan = EthernetLan(sim)
        EthernetNic(sim, lan, "x")
        with pytest.raises(ValueError):
            EthernetNic(sim, lan, "x")

    def test_counters(self):
        sim, lan, (a, b) = make_lan()
        b.set_receive_handler(lambda f: None)
        for _ in range(3):
            a.enqueue("nic1", None, 500)
        sim.run()
        assert a.frames_sent == 3
        assert b.frames_received == 3
        assert count(sim.metrics, "ethernet.frames_delivered") == 3


class TestSharedMediumSerialization:
    def test_two_senders_serialize(self):
        """Two stations sending simultaneously must take twice as long as
        one — the shared-medium property behind Table 2's p4 scaling."""
        sim, lan, (a, b, c) = make_lan(3)
        arrivals = []
        c.set_receive_handler(lambda f: arrivals.append(sim.now))
        a.enqueue("nic2", None, 1500)
        b.enqueue("nic2", None, 1500)
        sim.run()
        tx = (14 + 1500 + 4 + 8) * 8 / 10e6
        assert arrivals[0] == pytest.approx(tx + 10e-6)
        # second frame waits for first tx + inter-frame gap
        assert arrivals[1] == pytest.approx(tx + lan.ifg_time + tx + 10e-6)

    def test_throughput_is_bandwidth_bound(self):
        sim, lan, (a, b) = make_lan()
        done = []
        b.set_receive_handler(lambda f: done.append(sim.now))
        nframes, payload = 100, 1500
        for _ in range(nframes):
            a.enqueue("nic1", None, payload)
        sim.run()
        goodput = nframes * payload * 8 / done[-1]
        assert goodput < 10e6
        assert goodput > 0.9 * 10e6  # large frames are efficient


class TestCollisions:
    def test_collision_model_adds_delay_and_counts(self):
        def run(collisions):
            sim, lan, (a, b, c) = make_lan(3, collisions=collisions)
            done = []
            c.set_receive_handler(lambda f: done.append(sim.now))
            for _ in range(10):
                a.enqueue("nic2", None, 1000)
                b.enqueue("nic2", None, 1000)
            sim.run()
            return count(sim.metrics, "ethernet.collision_events"), done[-1]
        collisions_no, t_no = run(False)
        collisions_yes, t_yes = run(True)
        assert collisions_no == 0
        assert collisions_yes > 0
        assert t_yes >= t_no

    def test_collision_model_still_delivers_everything(self):
        sim, lan, (a, b, c) = make_lan(3, collisions=True)
        got = []
        c.set_receive_handler(lambda f: got.append(f.seq))
        for _ in range(20):
            a.enqueue("nic2", None, 200)
            b.enqueue("nic2", None, 200)
        sim.run()
        assert len(got) == 40

    def test_deterministic_across_runs(self):
        def run():
            sim, lan, (a, b, c) = make_lan(3, collisions=True)
            times = []
            c.set_receive_handler(lambda f: times.append(sim.now))
            for _ in range(5):
                a.enqueue("nic2", None, 700)
                b.enqueue("nic2", None, 700)
            sim.run()
            return times
        assert run() == run()
