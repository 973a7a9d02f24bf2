"""Property-based tests: TCP delivers arbitrary message sequences
intact, in order, exactly once — including over lossy ATM paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm import LinkSpec
from repro.net import build_atm_cluster, build_ethernet_cluster
from repro.protocols import TcpParams

from ..counts import tcp_count


def pump_messages(cluster, sizes, payload_tag="m"):
    sim = cluster.sim
    ssock, dsock = cluster.stack(0).socket, cluster.stack(1).socket
    tx = cluster.stack(0).tcp.connection("n1")
    rx = cluster.stack(1).tcp.connection("n0")

    def sender():
        for i, size in enumerate(sizes):
            yield from ssock.send(tx, (payload_tag, i), size)

    def receiver():
        out = []
        for _ in sizes:
            payload, nbytes = yield from dsock.recv(rx)
            out.append((payload, nbytes))
        return out

    sim.process(sender())
    p = sim.process(receiver())
    sim.run(max_events=20_000_000)
    assert p.triggered, "transfer did not complete"
    return p.value


class TestTcpStreamProperties:
    @given(st.lists(st.integers(0, 20_000), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_sizes_in_order(self, sizes):
        cluster = build_ethernet_cluster(2)
        got = pump_messages(cluster, sizes)
        assert [nbytes for _, nbytes in got] == sizes
        assert [payload[1] for payload, _ in got] == list(range(len(sizes)))

    @given(st.lists(st.integers(1, 30_000), min_size=1, max_size=6),
           st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_lossy_atm_path_still_exact(self, sizes, seed):
        lossy = LinkSpec("lossy", 140e6, 5e-6, ber=3e-7)
        cluster = build_atm_cluster(2, link_spec=lossy, seed=seed,
                                    tcp_params=TcpParams(
                                        rto_initial_s=0.05))
        got = pump_messages(cluster, sizes)
        assert [nbytes for _, nbytes in got] == sizes

    @given(st.integers(1, 4).map(lambda k: 1 << (k + 9)))
    @settings(max_examples=10, deadline=None)
    def test_window_size_changes_time_not_data(self, window):
        sizes = [10_000, 5_000]
        cluster = build_ethernet_cluster(
            2, tcp_params=TcpParams(window_bytes=window))
        got = pump_messages(cluster, sizes)
        assert [n for _, n in got] == sizes


class TestTcpEdgeCases:
    def test_interleaved_bidirectional_streams(self):
        cluster = build_ethernet_cluster(2)
        sim = cluster.sim
        results = {}

        def node(me, peer, count):
            sock = cluster.stack(me).socket
            tx = cluster.stack(me).tcp.connection(f"n{peer}")
            rx = cluster.stack(me).tcp.connection(f"n{peer}")
            sent, got = 0, []
            for i in range(count):
                yield from sock.send(tx, (me, i), 3000)
                payload, _ = yield from sock.recv(rx)
                got.append(payload)
            results[me] = got

        sim.process(node(0, 1, 5))
        sim.process(node(1, 0, 5))
        sim.run(max_events=5_000_000)
        assert results[0] == [(1, i) for i in range(5)]
        assert results[1] == [(0, i) for i in range(5)]

    def test_many_small_messages_throughput_sane(self):
        cluster = build_ethernet_cluster(2)
        sizes = [100] * 50
        got = pump_messages(cluster, sizes)
        assert len(got) == 50

    def test_retransmit_storm_bounded(self):
        """Even at a punishing BER the retransmission count stays finite
        and the stream completes (no livelock)."""
        lossy = LinkSpec("very-lossy", 140e6, 5e-6, ber=2e-6)
        cluster = build_atm_cluster(
            2, link_spec=lossy, seed=99,
            tcp_params=TcpParams(rto_initial_s=0.02))
        got = pump_messages(cluster, [60_000])
        assert got[0][1] == 60_000
        assert 0 < tcp_count(cluster, 0, "tcp.retransmissions") < 200
