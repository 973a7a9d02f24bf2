"""Unit tests for the Fig 2 buffer pipeline and Fig 3 datapath models."""

import pytest

from repro.core.mps import NCS_DATAPATH, SOCKET_DATAPATH, ZERO_COPY_DATAPATH
from repro.core.mps.buffers import BufferPipeline
from repro.hosts import CpuModel, KernelBufferPool, OsCosts, SUN_IPX
from repro.net import build_atm_cluster


class TestDatapathModel:
    def test_paper_access_counts(self):
        assert SOCKET_DATAPATH.total_accesses_per_word == 5
        assert NCS_DATAPATH.total_accesses_per_word == 3
        assert ZERO_COPY_DATAPATH.total_accesses_per_word == 1

    def test_comm_accesses_exclude_app_write(self):
        assert SOCKET_DATAPATH.comm_accesses_per_word == 4
        assert NCS_DATAPATH.comm_accesses_per_word == 2

    def test_entry_costs(self):
        os = OsCosts()
        assert SOCKET_DATAPATH.entry_cost(os) == os.syscall_time
        assert NCS_DATAPATH.entry_cost(os) == os.trap_time

    def test_one_way_cpu_scales_linearly(self):
        cpu, os = CpuModel(), OsCosts()
        t1 = NCS_DATAPATH.one_way_cpu_time(cpu, os, 10_000)
        t2 = NCS_DATAPATH.one_way_cpu_time(cpu, os, 20_000)
        # entry cost is fixed, copy doubles
        assert (t2 - os.trap_time) == pytest.approx(2 * (t1 - os.trap_time))

    def test_socket_vs_ncs_cost_ordering(self):
        cpu, os = SUN_IPX.cpu, SUN_IPX.os
        for nbytes in (100, 10_000, 1_000_000):
            assert (NCS_DATAPATH.one_way_cpu_time(cpu, os, nbytes)
                    < SOCKET_DATAPATH.one_way_cpu_time(cpu, os, nbytes))


def make_pipeline(k=2, buffer_bytes=16 * 1024):
    cluster = build_atm_cluster(2)
    host = cluster.host(0)
    pipeline = BufferPipeline(
        host, cluster.stack(0).atm_api.adapter,
        pool=KernelBufferPool(count=k, buffer_bytes=buffer_bytes))
    return cluster, pipeline


class TestBufferPipeline:
    def _send(self, cluster, pipeline, nbytes, payload="x"):
        sim = cluster.sim
        vc = cluster.hsm_vc(0, 1)
        meta = {}

        def sender():
            yield from pipeline.pipelined_send(vc, payload, nbytes)
            meta["caller_free"] = sim.now
            yield pipeline.drained()

        def receiver():
            got = 0
            while True:
                msg = yield cluster.stack(1).atm_api.recv(vc)
                meta.setdefault("payload", msg.payload)
                got += msg.nbytes
                if got >= nbytes:
                    break
            meta["delivered"] = sim.now

        sim.process(sender())
        sim.process(receiver())
        sim.run(max_events=5_000_000)
        return meta

    def test_payload_delivered_intact(self):
        cluster, pipeline = make_pipeline()
        meta = self._send(cluster, pipeline, 40_000, payload={"a": 1})
        assert meta["payload"] == {"a": 1}
        assert "delivered" in meta

    def test_two_buffers_beat_one(self):
        c1, p1 = make_pipeline(k=1)
        c2, p2 = make_pipeline(k=2)
        m1 = self._send(c1, p1, 128 * 1024)
        m2 = self._send(c2, p2, 128 * 1024)
        assert m2["caller_free"] < m1["caller_free"]
        assert m2["delivered"] < m1["delivered"]

    def test_zero_byte_message(self):
        cluster, pipeline = make_pipeline()
        meta = self._send(cluster, pipeline, 0, payload="empty")
        assert meta["payload"] == "empty"

    def test_chunking_respects_buffer_size(self):
        pool = KernelBufferPool(count=2, buffer_bytes=1000)
        assert pool.chunks(2500) == [1000, 1000, 500]

    def test_in_flight_never_exceeds_buffer_count(self):
        cluster, pipeline = make_pipeline(k=2, buffer_bytes=4096)
        self._send(cluster, pipeline, 256 * 1024)
        assert pipeline.max_chunks_in_flight <= 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_max_in_flight_bounded_by_pool_k(self, k):
        """The pipelining depth can never exceed the number of kernel
        buffers: a chunk only counts as in flight while it owns one."""
        cluster, pipeline = make_pipeline(k=k, buffer_bytes=4096)
        self._send(cluster, pipeline, 64 * 1024)
        assert 1 <= pipeline.max_chunks_in_flight <= pipeline.pool.count
        assert pipeline.chunks_in_flight == 0

    def test_all_submitted_fires_once_when_fault_kills_chunk(self):
        """A chunk dying mid-drain (adapter fault) must not lose the
        message's completion: ``drained()`` still fires exactly once,
        every buffer is released, and the pipeline keeps working."""
        cluster, pipeline = make_pipeline(k=2, buffer_bytes=4096)
        sim = cluster.sim
        vc = cluster.hsm_vc(0, 1)
        real_send = pipeline.adapter.send_pdu
        calls = {"n": 0}

        def flaky_send(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected: adapter dropped the chunk")
            return real_send(*args, **kwargs)

        pipeline.adapter.send_pdu = flaky_send
        fired = []

        def sender():
            yield from pipeline.pipelined_send(vc, "m", 16 * 1024)
            ev = pipeline.drained()
            ev.add_callback(lambda e: fired.append(sim.now))
            yield ev

        sim.process(sender())
        sim.run(max_events=5_000_000)
        assert len(fired) == 1
        assert pipeline.chunks_in_flight == 0
        assert pipeline.chunk_errors == 1
        assert isinstance(pipeline.last_chunk_error, RuntimeError)

        # the persistent drain survived the fault: a follow-up send on
        # the same pipeline still submits fully
        pipeline.adapter.send_pdu = real_send
        fired2 = []

        def sender2():
            yield from pipeline.pipelined_send(vc, "m2", 8192)
            ev = pipeline.drained()
            ev.add_callback(lambda e: fired2.append(True))
            yield ev

        sim.process(sender2())
        sim.run(max_events=5_000_000)
        assert fired2 == [True]
        assert pipeline.chunks_in_flight == 0

    def test_concurrent_sends_share_buffers(self):
        """Two messages through one pipeline: both arrive, buffers are
        never over-committed."""
        cluster, pipeline = make_pipeline(k=2)
        sim = cluster.sim
        vc = cluster.hsm_vc(0, 1)
        got = []

        def sender(tag):
            yield from pipeline.pipelined_send(vc, tag, 64 * 1024)

        def receiver():
            seen_bytes = 0
            while seen_bytes < 2 * 64 * 1024:
                msg = yield cluster.stack(1).atm_api.recv(vc)
                seen_bytes += msg.nbytes
                if msg.payload is not None:
                    got.append(msg.payload)

        sim.process(sender("m1"))
        sim.process(sender("m2"))
        sim.process(receiver())
        sim.run(max_events=5_000_000)
        assert sorted(got) == ["m1", "m2"]
        assert pipeline.max_chunks_in_flight <= 2
