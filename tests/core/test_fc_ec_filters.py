"""Tests for flow control, error control, QoS profiles and MP filters."""

import pytest

from repro.atm import LinkSpec
from repro.core import NcsRuntime
from repro.core.mps import (
    MpiFilter, P4Filter, PvmFilter, QosContract, RateFlowControl,
    ServiceMode, WindowFlowControl, flow_control_for, make_error_control,
    make_flow_control,
)
from repro.net import build_atm_cluster, build_ethernet_cluster

from ..counts import count


class TestFlowControlFactory:
    def test_default_is_none(self):
        assert make_flow_control(None).name == "none"
        assert make_flow_control("none").name == "none"

    def test_named_strategies(self):
        assert make_flow_control("window").name == "window"
        assert make_flow_control("rate", rate_bytes_s=1e6).name == "rate"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_flow_control("bogus")

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowFlowControl(window_bytes=0)
        with pytest.raises(ValueError):
            RateFlowControl(rate_bytes_s=0)

    def test_qos_contract_mapping(self):
        assert flow_control_for(None).name == "none"
        assert flow_control_for(QosContract(rate_bytes_s=1e6)).name == "rate"
        assert flow_control_for(QosContract(window_bytes=4096)).name == "window"

    def test_contract_validation(self):
        with pytest.raises(ValueError):
            QosContract(rate_bytes_s=1e6, window_bytes=1024)


class TestWindowFlowControl:
    def test_window_throttles_but_delivers_all(self):
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster, flow="window",
                        flow_kwargs={"window_bytes": 8 * 1024})
        n_msgs, msg_bytes = 8, 8 * 1024
        def sender(ctx, rtid):
            for i in range(n_msgs):
                yield ctx.send(rtid, 1, i, msg_bytes)
        def receiver(ctx):
            out = []
            for _ in range(n_msgs):
                msg = yield ctx.recv()
                out.append(msg.data)
            return out
        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender, (rtid,))
        rt.run(max_events=3_000_000)
        assert rt.thread_result(1, rtid) == list(range(n_msgs))

    def test_window_limits_outstanding_bytes(self):
        fcs = []
        orig_bind = WindowFlowControl.bind
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster, flow="window",
                        flow_kwargs={"window_bytes": 4096})
        fc = rt.nodes[0].mps.fc
        peak = {"v": 0}
        orig_acquire = fc.acquire
        def spy(dest, nbytes):
            res = orig_acquire(dest, nbytes)
            peak["v"] = max(peak["v"], fc.outstanding(dest))
            return res
        fc.acquire = spy
        def sender(ctx, rtid):
            for i in range(6):
                yield ctx.send(rtid, 1, i, 2048)
        def receiver(ctx):
            for _ in range(6):
                yield ctx.recv()
        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender, (rtid,))
        rt.run(max_events=3_000_000)
        assert peak["v"] <= 4096

    def test_slow_consumer_backpressures_sender(self):
        """With a window, a sleeping receiver stalls the sender; without,
        the sender finishes immediately."""
        def sender_done_time(flow, kwargs):
            cluster = build_ethernet_cluster(2)
            rt = NcsRuntime(cluster, flow=flow, flow_kwargs=kwargs)
            done = {}
            def sender(ctx, rtid):
                for i in range(4):
                    yield ctx.send(rtid, 1, i, 16 * 1024)
                done["t"] = ctx.now
            def receiver(ctx):
                for _ in range(4):
                    yield ctx.sleep(1.0)
                    yield ctx.recv()
            rtid = rt.t_create(1, receiver)
            rt.t_create(0, sender, (rtid,))
            rt.run(max_events=3_000_000)
            return done["t"]
        t_window = sender_done_time("window", {"window_bytes": 16 * 1024})
        t_none = sender_done_time(None, {})
        assert t_none < 1.5
        assert t_window > 2.5  # had to wait for credits


class TestRateFlowControl:
    def test_rate_paces_messages(self):
        """At 1 MB/s, ten 100 KB messages need >= ~0.9 s of pacing."""
        cluster = build_atm_cluster(2)
        rt = NcsRuntime(cluster, mode=ServiceMode.HSM, flow="rate",
                        flow_kwargs={"rate_bytes_s": 1e6,
                                     "bucket_bytes": 100_000})
        arrivals = []
        def sender(ctx, rtid):
            for i in range(10):
                yield ctx.send(rtid, 1, i, 100_000)
        def receiver(ctx):
            for _ in range(10):
                yield ctx.recv()
                arrivals.append(ctx.now)
        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender, (rtid,))
        makespan = rt.run(max_events=3_000_000)
        assert makespan >= 0.85
        # inter-arrival gaps should be roughly the pacing interval
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert max(gaps) < 0.3

    def test_vod_profile_paces_to_contract(self):
        """The Fig 5 story: rate FC shapes a VOD stream to its traffic
        contract — inter-arrival gaps sit at the contracted period with
        bounded jitter, while an unpaced stream blasts much faster."""
        def gaps_for(flow, kwargs):
            cluster = build_atm_cluster(2)
            rt = NcsRuntime(cluster, mode=ServiceMode.HSM, flow=flow,
                            flow_kwargs=kwargs)
            arrivals = []
            def src(ctx, rtid):
                for i in range(20):
                    yield ctx.send(rtid, 1, i, 32_768)
            def sink(ctx):
                for _ in range(20):
                    yield ctx.recv()
                    arrivals.append(ctx.now)
            rtid = rt.t_create(1, sink)
            rt.t_create(0, src, (rtid,))
            rt.run(max_events=3_000_000)
            return [b - a for a, b in zip(arrivals, arrivals[1:])]
        period = 32_768 / 2e6  # contracted frame period: ~16.4 ms
        paced = gaps_for("rate", {"rate_bytes_s": 2e6,
                                  "bucket_bytes": 32_768})
        unpaced = gaps_for(None, {})
        mean_paced = sum(paced) / len(paced)
        assert mean_paced == pytest.approx(period, rel=0.15)
        assert max(paced) - min(paced) < 0.3 * period  # bounded jitter
        assert sum(unpaced) / len(unpaced) < 0.5 * period


class TestErrorControl:
    def test_factory(self):
        assert make_error_control(None).name == "none"
        assert make_error_control("ack").name == "ack"
        with pytest.raises(ValueError):
            make_error_control("bogus")

    def test_lossy_hsm_recovers_with_ack_ec(self):
        """Over a lossy ATM fabric, HSM + ack/retransmit EC must still
        deliver every message exactly once."""
        lossy = LinkSpec("lossy-taxi", 140e6, 5e-6, ber=5e-7)
        cluster = build_atm_cluster(2, link_spec=lossy, seed=23)
        rt = NcsRuntime(cluster, mode=ServiceMode.HSM, error="ack",
                        error_kwargs={"timeout_s": 0.02})
        n = 30
        def sender(ctx, rtid):
            for i in range(n):
                yield ctx.send(rtid, 1, i, 20_000)
        def receiver(ctx):
            got = []
            for _ in range(n):
                msg = yield ctx.recv()
                got.append(msg.data)
            return got
        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender, (rtid,))
        rt.run(max_events=5_000_000)
        got = rt.thread_result(1, rtid)
        assert sorted(got) == list(range(n))
        assert len(got) == n  # exactly once (dedup worked)
        assert count(cluster.metrics, "ec.retransmissions", pid=0) > 0, \
            "BER should have forced retries"

    def test_lossless_fabric_no_retransmissions(self):
        cluster = build_atm_cluster(2)
        rt = NcsRuntime(cluster, mode=ServiceMode.HSM, error="ack")
        def sender(ctx, rtid):
            for i in range(5):
                yield ctx.send(rtid, 1, i, 10_000)
        def receiver(ctx):
            for _ in range(5):
                yield ctx.recv()
        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender, (rtid,))
        rt.run(max_events=3_000_000)
        assert count(cluster.metrics, "ec.retransmissions", pid=0) == 0


class TestFilters:
    def test_p4_filter_roundtrip(self):
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster)
        def sender(ctx):
            p4 = P4Filter(ctx)
            assert p4.get_my_id() == 0
            yield p4.send(42, 1, "via-p4-filter", 256)
        def receiver(ctx):
            p4 = P4Filter(ctx)
            msg = yield p4.recv(type_=42)
            return P4Filter.unpack(msg)
        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender)
        rt.run(max_events=2_000_000)
        type_, from_, data, size = rt.thread_result(1, rtid)
        assert (type_, from_, data, size) == (42, 0, "via-p4-filter", 256)

    def test_pvm_filter_tid_packing(self):
        assert PvmFilter.unpack_tid(PvmFilter.pack(3, 7)) == (3, 7)
        pid, ttid = PvmFilter.unpack_tid(PvmFilter.pack(2, 0xFFFF))
        assert pid == 2 and ttid == -1

    def test_pvm_filter_roundtrip(self):
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster)
        def sender(ctx, peer_task):
            pvm = PvmFilter(ctx)
            yield pvm.psend(peer_task, 11, [1.0, 2.0], 512)
        def receiver(ctx):
            pvm = PvmFilter(ctx)
            msg = yield pvm.precv(msgtag=11)
            return msg.data
        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender, (PvmFilter.pack(1, rtid),))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, rtid) == [1.0, 2.0]

    def test_mpi_filter_send_recv_status(self):
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster)
        from repro.core.mps import MpiStatus
        def rank0(ctx):
            mpi = MpiFilter(ctx, comm_size=2)
            assert mpi.comm_rank() == 0
            yield mpi.send([9, 9], 2048, dest=1, tag=3)
        def rank1(ctx):
            mpi = MpiFilter(ctx, comm_size=2)
            msg = yield mpi.recv(source=0, tag=3)
            st = MpiStatus(msg)
            return (msg.data, st.source, st.tag, st.count)
        rtid = rt.t_create(1, rank1)
        rt.t_create(0, rank0)
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, rtid) == ([9, 9], 0, 3, 2048)

    def test_mpi_bcast_helper(self):
        cluster = build_ethernet_cluster(3)
        rt = NcsRuntime(cluster)
        def rank(ctx):
            mpi = MpiFilter(ctx, comm_size=3)
            data = yield from mpi.bcast_from_root(0, "G" if ctx.my_pid == 0
                                                  else None, 1024)
            return data
        tids = [rt.t_create(p, rank) for p in range(3)]
        rt.run(max_events=2_000_000)
        assert [rt.thread_result(p, tids[p]) for p in range(3)] == ["G"] * 3

    def test_mpi_rank_bounds_checked(self):
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster)
        def bad(ctx):
            mpi = MpiFilter(ctx, comm_size=2)
            yield mpi.send("x", 10, dest=5)
        rt.t_create(0, bad)
        with pytest.raises(ValueError):
            rt.run(max_events=200_000)
