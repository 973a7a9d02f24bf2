"""Tests for IP/TCP/sockets over both Ethernet and ATM clusters."""

import itertools

import pytest

from repro.net import build_atm_cluster, build_ethernet_cluster
from repro.protocols import IpLayer, TcpParams
from repro.sim import Simulator

from ..counts import count, tcp_count


def socket_transfer(cluster, src, dst, nbytes, payload="data"):
    """Send one message src->dst, return (payload, nbytes, finish_time)."""
    sim = cluster.sim
    ssock, dsock = cluster.stack(src).socket, cluster.stack(dst).socket
    conn_tx = cluster.stack(src).tcp.connection(cluster.host(dst).name)
    conn_rx = cluster.stack(dst).tcp.connection(cluster.host(src).name)
    def sender():
        yield from ssock.send(conn_tx, payload, nbytes)
    def receiver():
        got, n = yield from dsock.recv(conn_rx)
        return got, n, sim.now
    sim.process(sender())
    p = sim.process(receiver())
    sim.run(max_events=2_000_000)
    assert p.triggered, "transfer deadlocked"
    return p.value


class TestTcpOverEthernet:
    def test_small_message_roundtrip(self):
        cluster = build_ethernet_cluster(2)
        payload, n, t = socket_transfer(cluster, 0, 1, 100, {"x": 1})
        assert payload == {"x": 1} and n == 100
        assert 0 < t < 0.1

    def test_zero_byte_message(self):
        cluster = build_ethernet_cluster(2)
        payload, n, _ = socket_transfer(cluster, 0, 1, 0, "sync")
        assert payload == "sync" and n == 0

    def test_large_message_segments(self):
        cluster = build_ethernet_cluster(2)
        payload, n, t = socket_transfer(cluster, 0, 1, 64 * 1024)
        assert n == 64 * 1024
        # 64 KiB over MSS 1460 -> >= 45 data segments
        assert tcp_count(cluster, 0, "tcp.segments_sent") >= 45
        # must take at least the raw serialization time at 10 Mbps
        assert t > 64 * 1024 * 8 / 10e6

    def test_throughput_below_line_rate(self):
        cluster = build_ethernet_cluster(2)
        nbytes = 256 * 1024
        _, _, t = socket_transfer(cluster, 0, 1, nbytes)
        assert nbytes * 8 / t < 10e6

    def test_window_limits_inflight(self):
        params = TcpParams(window_bytes=4096)
        cluster = build_ethernet_cluster(2, tcp_params=params)
        _, n, _ = socket_transfer(cluster, 0, 1, 32 * 1024)
        assert n == 32 * 1024  # still completes, just slower

    def test_smaller_window_is_slower(self):
        t_by_window = {}
        for wnd in (4096, 24576):
            cluster = build_ethernet_cluster(
                2, tcp_params=TcpParams(window_bytes=wnd))
            _, _, t = socket_transfer(cluster, 0, 1, 128 * 1024)
            t_by_window[wnd] = t
        assert t_by_window[4096] > t_by_window[24576]

    def test_many_messages_in_order(self):
        cluster = build_ethernet_cluster(2)
        sim = cluster.sim
        ssock, dsock = cluster.stack(0).socket, cluster.stack(1).socket
        tx = cluster.stack(0).tcp.connection("n1")
        rx = cluster.stack(1).tcp.connection("n0")
        def sender():
            for i in range(10):
                yield from ssock.send(tx, f"msg{i}", 2000)
        def receiver():
            out = []
            for _ in range(10):
                payload, _ = yield from dsock.recv(rx)
                out.append(payload)
            return out
        sim.process(sender())
        p = sim.process(receiver())
        sim.run(max_events=2_000_000)
        assert p.value == [f"msg{i}" for i in range(10)]

    def test_duplex_simultaneous_transfers(self):
        cluster = build_ethernet_cluster(2)
        sim = cluster.sim
        done = {}
        def node(me, peer, tag):
            sock = cluster.stack(me).socket
            tx = cluster.stack(me).tcp.connection(f"n{peer}")
            rx = cluster.stack(me).tcp.connection(f"n{peer}")
            yield from sock.send(tx, f"from{me}", 8000)
            payload, _ = yield from sock.recv(rx)
            done[tag] = payload
        sim.process(node(0, 1, "a"))
        sim.process(node(1, 0, "b"))
        sim.run(max_events=2_000_000)
        assert done == {"a": "from1", "b": "from0"}

    def test_send_before_established_raises(self):
        cluster = build_ethernet_cluster(2, preconnect=False)
        conn = cluster.stack(0).tcp.connection("n1")
        def bad():
            yield from conn.send_message("x", 10)
        p = cluster.sim.process(bad())
        cluster.sim.run()
        assert not p.ok

    def test_handshake_establishes_both_sides(self):
        cluster = build_ethernet_cluster(2, preconnect=False)
        sim = cluster.sim
        sock = cluster.stack(0).socket
        def proc():
            conn = yield from sock.connect("n1")
            return conn.established
        assert sim.run_process(proc()) is True
        assert cluster.stack(1).tcp.connection("n0").established


class TestTcpOverAtm:
    def test_roundtrip_over_classical_ip(self):
        cluster = build_atm_cluster(2)
        payload, n, t = socket_transfer(cluster, 0, 1, 64 * 1024, "atm!")
        assert payload == "atm!" and n == 64 * 1024

    def test_atm_tcp_much_faster_than_ethernet_tcp(self):
        """The NYNET columns of every paper table beat the Ethernet
        columns; the transport model must reproduce that ordering."""
        nbytes = 128 * 1024
        _, _, t_eth = socket_transfer(build_ethernet_cluster(2), 0, 1, nbytes)
        _, _, t_atm = socket_transfer(build_atm_cluster(2), 0, 1, nbytes)
        assert t_atm < t_eth / 2

    def test_larger_mtu_means_fewer_segments(self):
        eth = build_ethernet_cluster(2)
        atm = build_atm_cluster(2)
        socket_transfer(eth, 0, 1, 64 * 1024)
        socket_transfer(atm, 0, 1, 64 * 1024)
        segs_eth = tcp_count(eth, 0, "tcp.segments_sent")
        segs_atm = tcp_count(atm, 0, "tcp.segments_sent")
        assert segs_atm < segs_eth / 4  # 9180 vs 1500 MTU

    def test_retransmission_recovers_from_cell_loss(self):
        from repro.atm import LinkSpec
        lossy = LinkSpec("lossy-taxi", 140e6, 5e-6, ber=1e-6)
        cluster = build_atm_cluster(2, link_spec=lossy, seed=11)
        payload, n, _ = socket_transfer(cluster, 0, 1, 256 * 1024, "survives")
        assert payload == "survives" and n == 256 * 1024
        assert tcp_count(cluster, 0, "tcp.retransmissions") > 0, \
            "BER should have forced retransmission"


class TestIpFragmentation:
    """A datagram over the MTU leaves in fragments and is delivered once,
    whole, however its fragments arrive.  TCP keeps its segments under
    the MTU (``IpLayer.mss``), so a test protocol sends here."""

    def test_fragmentation_reassembly_over_mtu(self):
        cluster = build_ethernet_cluster(2)
        got = []
        cluster.stack(1).ip.register_protocol("probe", got.append)
        cluster.stack(0).ip.send("n1", "probe", "big", 4000)  # > 1500 MTU
        cluster.sim.run()
        assert [(p.src, p.proto, p.payload, p.payload_bytes)
                for p in got] == [("n0", "probe", "big", 4000)]
        assert count(cluster.metrics, "ip.fragments_sent", host="n0") == 3
        assert count(cluster.metrics, "ip.packets_received", host="n1") == 1

    @pytest.mark.parametrize("order", sorted(
        set(itertools.permutations(range(3))) - {(0, 1, 2)}))
    def test_fragments_out_of_order_reassemble_once(self, order):
        sim = Simulator()
        wire = []

        class Link:
            mtu = 1500

            def send(self, dst_host, packet):
                wire.append(packet)

        sender, receiver = IpLayer(sim, "a", Link()), IpLayer(sim, "b", Link())
        got = []
        receiver.register_protocol("probe", got.append)
        sender.send("b", "probe", "big", 4000)
        assert [f.frag_offset for f in wire] == [0, 1480, 2960]
        for i, k in enumerate(order):
            receiver.receive(wire[k])
            assert len(got) == (1 if i == len(order) - 1 else 0)
        assert (got[0].payload, got[0].payload_bytes) == ("big", 4000)
        assert not got[0].more_frags and got[0].frag_offset == 0
