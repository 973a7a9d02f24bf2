"""Fig 8 integration: the complete NCS component wiring, end to end.

Exercises the full path of one message through every Fig 8 component:
compute thread -> NCS_send -> send system thread -> flow-control gate ->
transport (buffers/traps for HSM; p4/TCP for Approach 1) -> wire ->
adapter reassembly -> transport pump -> receive system thread (match +
kernel->user copy) -> compute thread — with tracing on, so the test can
assert each stage actually happened where it should.
"""

import pytest

from repro.core import NcsRuntime
from repro.core.mps import ServiceMode
from repro.core.mts import ThreadState
from repro.net import build_atm_cluster, build_ethernet_cluster
from repro.sim import Activity

from ..counts import count, tcp_count


class TestFig8EndToEnd:
    def test_message_passes_every_component(self):
        cluster = build_atm_cluster(2, trace=True)
        rt = NcsRuntime(cluster, mode=ServiceMode.HSM, flow="window",
                        error="ack")
        checkpoints = {}

        def sender(ctx, rtid):
            yield ctx.compute(0.001, "pre")
            yield ctx.send(rtid, 1, "payload", 48 * 1024)
            checkpoints["send_returned"] = ctx.now

        def receiver(ctx):
            msg = yield ctx.recv()
            checkpoints["recv_returned"] = ctx.now
            return msg.data

        rtid = rt.t_create(1, receiver, name="app-recv")
        rt.t_create(0, sender, (rtid,), name="app-send")
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, rtid) == "payload"

        # system threads existed and ran on both sides
        for pid in (0, 1):
            names = {t.name: t for t in rt.nodes[pid].scheduler.threads.values()}
            for sys_name in ("sys-send", "sys-recv", "sys-fc", "sys-ec"):
                assert sys_name in names
                assert names[sys_name].is_system

        # the tracer saw the sender's copy into kernel buffers (Fig 2
        # fill) and the receiver's kernel->user copy (Fig 3b)
        tr = cluster.tracer
        tr.close_all()
        send_tl = tr.timelines.get("n0")
        recv_tl = tr.timelines.get("n1")
        send_labels = {iv.label for iv in send_tl.intervals}
        recv_labels = {iv.label for iv in recv_tl.intervals}
        assert any("fill-buffer" in l for l in send_labels)
        assert any("recv-copy" in l for l in recv_labels)
        assert any("trap" in l for l in send_labels)

        # adapter counters show the PDUs that crossed the wire
        m = cluster.metrics
        assert count(m, "atm.pdus_sent", host="n0") >= 3   # 48 KiB / 16 KiB
        assert count(m, "atm.pdus_received", host="n1") >= 1

        # error control saw the ack round-trip and holds nothing pending
        assert not rt.nodes[0].mps.ec.has_pending()

        # the send returned before the receiver consumed the message
        assert checkpoints["send_returned"] <= checkpoints["recv_returned"]

    def test_approach1_path_uses_p4_and_tcp(self):
        cluster = build_ethernet_cluster(2, trace=True)
        rt = NcsRuntime(cluster, mode=ServiceMode.P4)

        def sender(ctx, rtid):
            yield ctx.send(rtid, 1, "via-p4", 8 * 1024)

        def receiver(ctx):
            msg = yield ctx.recv()
            return msg.data

        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender, (rtid,))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, rtid) == "via-p4"
        # TCP segments actually flowed
        # 8 KiB over ~1.4 KiB MSS
        assert tcp_count(cluster, 0, "tcp.segments_sent") >= 6
        # p4 marshalling appeared in the sender's trace
        cluster.tracer.close_all()
        labels = {iv.label for iv in cluster.tracer.timelines["n0"].intervals}
        assert any("p4:send" in l for l in labels)

    def test_failed_thread_leaves_system_threads_consistent(self):
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster)

        def crasher(ctx):
            yield ctx.compute(0.001)
            raise RuntimeError("app exploded")

        def survivor(ctx, partner_pid_tid):
            yield ctx.send(partner_pid_tid, 1, "hello", 64)
            return "survived"

        victim = rt.t_create(1, crasher)
        keeper = rt.t_create(1, lambda ctx: (yield ctx.recv()) and None,
                             name="keeper")
        sv = rt.t_create(0, survivor, (keeper,))
        with pytest.raises(RuntimeError, match="app exploded"):
            rt.run(max_events=2_000_000)
        # the crash is contained: the other threads finished their work
        assert rt.nodes[0].scheduler.thread(sv).state is ThreadState.FINISHED
        assert rt.nodes[1].scheduler.thread(victim).state is ThreadState.FAILED


class TestCrossTransportEquivalence:
    @pytest.mark.parametrize("mode", [ServiceMode.P4, ServiceMode.NSM,
                                      ServiceMode.HSM])
    def test_same_program_same_answer_every_transport(self, mode):
        """The Fig 6 filters promise: the application does not change
        when the tier does."""
        cluster = build_atm_cluster(3)
        rt = NcsRuntime(cluster, mode=mode)
        tids = {}

        def ring_node(ctx, me):
            nxt = (me + 1) % 3
            if me == 0:
                yield ctx.send(tids[nxt], nxt, 1, 1024)
            msg = yield ctx.recv()
            if me != 0:
                yield ctx.send(tids[nxt], nxt, msg.data + 1, 1024)
            return msg.data

        for pid in range(3):
            tids[pid] = rt.t_create(pid, ring_node, (pid,))
        rt.run(max_events=3_000_000)
        # token accumulates one increment per hop around the ring
        assert rt.thread_result(1, tids[1]) == 1
        assert rt.thread_result(2, tids[2]) == 2
        assert rt.thread_result(0, tids[0]) == 3
