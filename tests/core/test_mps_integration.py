"""Integration tests: NCS end-to-end over all three transports."""

import pytest

from repro.core import NcsRuntime
from repro.core.mps import ANY_THREAD, RemoteException, ServiceMode
from repro.net import build_atm_cluster, build_ethernet_cluster

from ..counts import count


def make_runtime(n=2, atm=False, mode=ServiceMode.P4, **kw):
    cluster = build_atm_cluster(n) if atm else build_ethernet_cluster(n)
    return cluster, NcsRuntime(cluster, mode=mode, **kw)


ALL_MODES = [
    pytest.param(ServiceMode.P4, False, id="p4-ethernet"),
    pytest.param(ServiceMode.P4, True, id="p4-atm"),
    pytest.param(ServiceMode.NSM, False, id="nsm-ethernet"),
    pytest.param(ServiceMode.HSM, True, id="hsm-atm"),
]


class TestSendRecv:
    @pytest.mark.parametrize("mode,atm", ALL_MODES)
    def test_roundtrip_every_mode(self, mode, atm):
        cluster, rt = make_runtime(2, atm=atm, mode=mode)
        def sender(ctx):
            yield ctx.send(to_thread=peer_tid, to_process=1,
                           data={"k": [1, 2, 3]}, size=10_000)
        def receiver(ctx):
            msg = yield ctx.recv()
            return (msg.data, msg.size, msg.from_process)
        peer_tid = rt.t_create(1, receiver)
        rt.t_create(0, sender)
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, peer_tid) == ({"k": [1, 2, 3]}, 10_000, 0)

    def test_thread_addressing_separates_streams(self):
        cluster, rt = make_runtime(2)
        def sender(ctx, t1, t2):
            yield ctx.send(t2, 1, "for-two", 100)
            yield ctx.send(t1, 1, "for-one", 100)
        def receiver(ctx):
            msg = yield ctx.recv()
            return msg.data
        t1 = rt.t_create(1, receiver, name="r1")
        t2 = rt.t_create(1, receiver, name="r2")
        rt.t_create(0, sender, (t1, t2))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, t1) == "for-one"
        assert rt.thread_result(1, t2) == "for-two"

    def test_wildcard_recv_any_source(self):
        cluster, rt = make_runtime(3)
        def sender(ctx, rtid):
            yield ctx.send(rtid, 2, f"hello-{ctx.my_pid}", 64)
        def receiver(ctx):
            out = []
            for _ in range(2):
                msg = yield ctx.recv(from_thread=-1, from_process=-1)
                out.append(msg.data)
            return sorted(out)
        rtid = rt.t_create(2, receiver)
        rt.t_create(0, sender, (rtid,))
        rt.t_create(1, sender, (rtid,))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(2, rtid) == ["hello-0", "hello-1"]

    def test_any_thread_message_claimed_by_any_receiver(self):
        cluster, rt = make_runtime(2)
        def sender(ctx):
            yield ctx.send(ANY_THREAD, 1, "whoever", 64)
        def receiver(ctx):
            msg = yield ctx.recv()
            return msg.data
        r = rt.t_create(1, receiver)
        rt.t_create(0, sender)
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, r) == "whoever"

    def test_tag_filtering(self):
        cluster, rt = make_runtime(2)
        def sender(ctx, rtid):
            yield ctx.send(rtid, 1, "tag5", 64, tag=5)
            yield ctx.send(rtid, 1, "tag9", 64, tag=9)
        def receiver(ctx):
            m9 = yield ctx.recv(tag=9)
            m5 = yield ctx.recv(tag=5)
            return (m9.data, m5.data)
        rtid = rt.t_create(1, receiver)
        rt.t_create(0, sender, (rtid,))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, rtid) == ("tag9", "tag5")

    def test_local_send_between_threads_same_process(self):
        """The FFT's final exchange step is thread-local (paper §5.3.2)."""
        cluster, rt = make_runtime(1)
        def a(ctx, peer):
            yield ctx.send(peer, 0, "local", 1024)
        def b(ctx):
            msg = yield ctx.recv()
            return (msg.data, msg.from_process)
        btid = rt.t_create(0, b)
        rt.t_create(0, a, (btid,))
        makespan = rt.run(max_events=200_000)
        assert rt.thread_result(0, btid) == ("local", 0)
        # a local exchange never touches the network: microseconds
        assert makespan < 1e-3

    def test_send_to_unknown_process_fails_thread(self):
        cluster, rt = make_runtime(2)
        def bad(ctx):
            yield ctx.send(1, 99, "x", 10)
        rt.t_create(0, bad)
        with pytest.raises(ValueError):
            rt.run(max_events=200_000)


class TestOverlap:
    def test_send_blocks_thread_not_process(self):
        """THE paper's claim: while one thread waits on a receive, its
        sibling computes.  Makespan with 2 threads ~= max(comm, compute),
        not their sum."""
        def run(threaded: bool) -> float:
            cluster, rt = make_runtime(2)
            compute_s = 0.5
            def worker_recv(ctx):
                yield ctx.recv()
            def worker_compute(ctx):
                yield ctx.compute(compute_s)
            def feeder(ctx, rtid):
                yield ctx.compute(0.4)  # sender busy first: receiver waits
                yield ctx.send(rtid, 1, "x", 100_000)
            rtid = rt.t_create(1, worker_recv)
            if threaded:
                rt.t_create(1, worker_compute)
            rt.t_create(0, feeder, (rtid,))
            t = rt.run(max_events=2_000_000)
            if not threaded:
                # run the same compute serially afterwards (unthreaded
                # equivalent): emulate by adding it to the makespan
                t += compute_s
            return t
        t_threaded = run(True)
        t_serial = run(False)
        assert t_threaded < t_serial - 0.3  # overlap hides the compute

    def test_nonblocking_sense_of_send(self):
        """NCS_send unblocks as soon as the transport accepts the data —
        long before the receiver asks for it."""
        cluster, rt = make_runtime(2)
        times = {}
        def sender(ctx, rtid):
            yield ctx.send(rtid, 1, "x", 50_000)
            times["send_done"] = ctx.now
        def lazy_receiver(ctx):
            yield ctx.sleep(5.0)
            yield ctx.recv()
            times["recv_done"] = ctx.now
        rtid = rt.t_create(1, lazy_receiver)
        rt.t_create(0, sender, (rtid,))
        rt.run(max_events=2_000_000)
        assert times["send_done"] < 1.0
        assert times["recv_done"] >= 5.0


class TestBcastAndCollectives:
    def test_bcast_to_list(self):
        cluster, rt = make_runtime(3)
        def root(ctx, targets):
            yield ctx.bcast(targets, "B", 4096)
        def leaf(ctx):
            msg = yield ctx.recv()
            return msg.data
        t1 = rt.t_create(1, leaf)
        t2 = rt.t_create(2, leaf)
        rt.t_create(0, root, ([(t1, 1), (t2, 2)],))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, t1) == "B"
        assert rt.thread_result(2, t2) == "B"

    def test_bcast_dedup_processes(self):
        """'B matrix is sent to a particular node only once, since all
        the threads share the same address space' (§5.1)."""
        cluster, rt = make_runtime(2)
        def root(ctx, targets):
            yield ctx.bcast(targets, "B", 4096, dedup_processes=True)
        def leaf(ctx):
            msg = yield ctx.recv()
            return msg.data
        t1 = rt.t_create(1, leaf, name="l1")
        t2 = rt.t_create(1, leaf, name="l2")
        rt.t_create(0, root, ([(t1, 1), (t2, 1)],))
        # only one copy crosses the wire; the second receiver must get
        # nothing -> it deadlocks, so run with a horizon and check states
        rt.start()
        cluster.sim.run(until=30.0, max_events=2_000_000)
        results = {rt.nodes[1].scheduler.thread(t).state.value
                   for t in (t1, t2)}
        assert "finished" in results and "blocked" in results
        assert count(cluster.metrics, "mps.data_sent", pid=0) == 1

    def test_rejected_bcast_sends_nothing(self):
        """A bad target anywhere in the list fails the whole broadcast
        before anything is queued: nobody receives what the sender was
        told failed, nothing is counted, and the thread carries on."""
        cluster, rt = make_runtime(3)
        def root(ctx, t1, t2):
            try:
                yield ctx.bcast([(t1, 1), (t2, 2), (-1, 99)], "B", 4096)
            except ValueError as e:
                verdict = str(e)
            yield ctx.bcast([(t1, 1), (t2, 2)], "after", 128)
            return verdict
        def leaf(ctx):
            msg = yield ctx.recv()
            return msg.data
        t1 = rt.t_create(1, leaf)
        t2 = rt.t_create(2, leaf)
        t0 = rt.t_create(0, root, (t1, t2))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(0, t0) == "NCS_bcast: no such process 99"
        assert rt.thread_result(1, t1) == "after"
        assert rt.thread_result(2, t2) == "after"
        snapshot = cluster.metrics.snapshot()
        assert snapshot["mps.data_sent"]["pid=0"] == 2
        assert snapshot["mps.message_bytes"]["pid=0"]["sum"] == 2 * 128
        assert snapshot["mps.data_received"] == {
            "pid=0": 0, "pid=1": 1, "pid=2": 1}

    def test_rejected_bcast_checks_the_deduplicated_list(self):
        cluster, rt = make_runtime(2)
        def root(ctx):
            try:
                yield ctx.bcast([(-1, 1), (7, 1), (3, -2)], "B", 64,
                                dedup_processes=True)
            except ValueError as e:
                return str(e)
        t0 = rt.t_create(0, root)
        rt.run(max_events=2_000_000)
        assert rt.thread_result(0, t0) == "NCS_bcast: no such process -2"
        assert count(cluster.metrics, "mps.data_sent", pid=0) == 0
        assert len(rt.nodes[1].mps.mailbox) == 0

    def test_gather_collective(self):
        from repro.core.mps.group import gather
        cluster, rt = make_runtime(3)
        members = []
        def worker(ctx, root):
            res = yield from gather(ctx, root, members,
                                    f"part-{ctx.my_pid}", 512)
            return res
        t0 = rt.t_create(0, worker, (None,), name="root")
        rt.nodes[0].scheduler.thread(t0).gen.close()
        # rebuild with known members now that tids exist
        cluster, rt = make_runtime(3)
        tids = {}
        def worker2(ctx):
            res = yield from gather(ctx, root_addr, members,
                                    f"part-{ctx.my_pid}", 512)
            return res
        tids[0] = rt.t_create(0, worker2)
        tids[1] = rt.t_create(1, worker2)
        tids[2] = rt.t_create(2, worker2)
        root_addr = (tids[0], 0)
        members.extend([(tids[p], p) for p in range(3)])
        rt.run(max_events=2_000_000)
        result = rt.thread_result(0, tids[0])
        assert result == {(tids[0], 0): "part-0", (tids[1], 1): "part-1",
                          (tids[2], 2): "part-2"}
        assert rt.thread_result(1, tids[1]) is None

    def test_barrier_across_processes(self):
        cluster, rt = make_runtime(3)
        rt.register_barrier(1, parties=3)
        release_times = []
        def worker(ctx, delay):
            yield ctx.compute(delay)
            yield ctx.barrier(1)
            release_times.append(ctx.now)
        rt.t_create(0, worker, (0.1,))
        rt.t_create(1, worker, (2.0,))
        rt.t_create(2, worker, (0.5,))
        rt.run(max_events=2_000_000)
        assert len(release_times) == 3
        assert min(release_times) >= 2.0

    def test_reduce_collective(self):
        from repro.core.mps.group import reduce as ncs_reduce
        cluster, rt = make_runtime(3)
        members = []
        tids = {}
        root_addr = []
        def worker(ctx, value):
            res = yield from ncs_reduce(ctx, root_addr[0], members,
                                        value, 64, op=lambda a, b: a + b)
            return res
        tids[0] = rt.t_create(0, worker, (10,))
        tids[1] = rt.t_create(1, worker, (20,))
        tids[2] = rt.t_create(2, worker, (30,))
        root_addr.append((tids[0], 0))
        members.extend([(tids[p], p) for p in range(3)])
        rt.run(max_events=2_000_000)
        assert rt.thread_result(0, tids[0]) == 60


class TestExceptions:
    def test_remote_throw_fails_pending_recv(self):
        cluster, rt = make_runtime(2)
        def victim(ctx):
            try:
                yield ctx.recv()
            except RemoteException as e:
                return ("caught", e.origin_process,
                        type(e.cause).__name__)
        def thrower(ctx, vt):
            yield ctx.compute(0.1)
            yield ctx.throw(vt, 1, ValueError("remote boom"))
        vt = rt.t_create(1, victim)
        rt.t_create(0, thrower, (vt,))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, vt) == ("caught", 0, "ValueError")

    def test_poisoned_next_recv(self):
        cluster, rt = make_runtime(2)
        def victim(ctx):
            yield ctx.compute(1.0)   # throw arrives while computing
            try:
                yield ctx.recv()
            except RemoteException:
                return "poisoned"
        def thrower(ctx, vt):
            yield ctx.throw(vt, 1, RuntimeError("early"))
        vt = rt.t_create(1, victim)
        rt.t_create(0, thrower, (vt,))
        rt.run(max_events=2_000_000)
        assert rt.thread_result(1, vt) == "poisoned"


class TestSystemThreadArchitecture:
    def test_system_threads_exist_at_priority_zero(self):
        cluster, rt = make_runtime(2)
        sched = rt.nodes[0].scheduler
        sys_threads = [t for t in sched.threads.values() if t.is_system]
        names = {t.name for t in sys_threads}
        assert {"sys-send", "sys-recv"} <= names
        assert all(t.priority == 0 for t in sys_threads)

    def test_fc_and_ec_threads_created_when_configured(self):
        cluster, rt = make_runtime(
            2, flow="window", error="ack",
            flow_kwargs={"window_bytes": 32768})
        names = {t.name for t in rt.nodes[0].scheduler.threads.values()}
        assert {"sys-send", "sys-recv", "sys-fc", "sys-ec"} <= names

    def test_hsm_requires_atm_cluster(self):
        cluster = build_ethernet_cluster(2)
        with pytest.raises(ValueError, match="no ATM interface"):
            NcsRuntime(cluster, mode=ServiceMode.HSM)
