"""Tests for the p4 baseline library."""

import pytest

from repro.net import build_atm_cluster, build_ethernet_cluster
from repro.p4 import P4Message, P4Runtime


def make_runtime(n=2, atm=False, **kw):
    cluster = build_atm_cluster(n, **kw) if atm else build_ethernet_cluster(n, **kw)
    return cluster, P4Runtime(cluster)


class TestBasics:
    def test_ids(self):
        _, rt = make_runtime(3)
        assert [p.get_my_id() for p in rt.processes] == [0, 1, 2]
        assert rt.processes[0].num_total_ids() == 3

    def test_send_recv(self):
        cluster, rt = make_runtime(2)
        def sender(p4):
            yield from p4.send(7, 1, {"payload": 42}, 1000)
        def receiver(p4):
            msg = yield from p4.recv()
            return msg
        rt.spawn(0, sender)
        p = rt.spawn(1, receiver)
        cluster.sim.run(max_events=500_000)
        assert isinstance(p.value, P4Message)
        assert p.value.type == 7 and p.value.from_pid == 0
        assert p.value.data == {"payload": 42} and p.value.size == 1000

    def test_send_to_self_rejected(self):
        cluster, rt = make_runtime(2)
        def bad(p4):
            yield from p4.send(1, 0, None, 10)
        p = rt.spawn(0, bad)
        cluster.sim.run()
        assert not p.ok

    @pytest.mark.parametrize("size", [float("nan"), 1.5, True, "8"],
                             ids=repr)
    def test_send_rejects_a_non_integer_size(self, size):
        cluster, rt = make_runtime(2)

        def bad(p4):
            try:
                yield from p4.send(1, 1, None, size)
            except ValueError as e:
                return str(e)
        p = rt.spawn(0, bad)
        cluster.sim.run()
        assert p.value == f"size must be an integer >= 0, got {size!r}"

    def test_typed_recv_filters(self):
        cluster, rt = make_runtime(2)
        def sender(p4):
            yield from p4.send(1, 1, "first", 10)
            yield from p4.send(2, 1, "wanted", 10)
        def receiver(p4):
            msg = yield from p4.recv(type_=2)
            return msg.data
        rt.spawn(0, sender)
        p = rt.spawn(1, receiver)
        cluster.sim.run(max_events=500_000)
        assert p.value == "wanted"

    def test_recv_from_filters(self):
        cluster, rt = make_runtime(3)
        def sender(p4, tag):
            yield from p4.send(1, 2, tag, 10)
        def receiver(p4):
            msg = yield from p4.recv(from_=1)
            return msg.data
        rt.spawn(0, sender, "from0")
        rt.spawn(1, sender, "from1")
        p = rt.spawn(2, receiver)
        cluster.sim.run(max_events=500_000)
        assert p.value == "from1"

    def test_messages_available_polling(self):
        cluster, rt = make_runtime(2)
        sim = cluster.sim
        def sender(p4):
            yield sim.timeout(0.5)
            yield from p4.send(3, 1, "late", 10)
        def poller(p4):
            early = p4.messages_available()
            while not p4.messages_available(type_=3):
                yield sim.timeout(0.01)
            return early, sim.now
        rt.spawn(0, sender)
        p = rt.spawn(1, poller)
        sim.run(max_events=500_000)
        early, when = p.value
        assert early is False and when > 0.5


class TestBlockingSemantics:
    def test_recv_blocks_whole_process(self):
        """While p4_recv waits, the host CPU must be idle — the paper's
        core criticism of single-threaded message passing."""
        cluster, rt = make_runtime(2, trace=True)
        sim = cluster.sim
        def sender(p4):
            yield from p4.compute(1.0, "pre-send work")
            yield from p4.send(1, 1, "data", 50_000)
        def receiver(p4):
            msg = yield from p4.recv()
            yield from p4.compute(0.5, "post work")
            return sim.now
        rt.spawn(0, sender)
        p = rt.spawn(1, receiver)
        sim.run(max_events=500_000)
        cluster.tracer.close_all()
        tl = cluster.tracer.timeline("n1")
        from repro.sim import Activity
        busy = sum(tl.total(a) for a in Activity)
        # n1 sat idle for the ~1s the sender computed: busy << makespan
        assert busy < 0.75 * p.value

    def test_broadcast_reaches_all(self):
        cluster, rt = make_runtime(4)
        def root(p4):
            yield from p4.broadcast(9, "B", 1000)
        def leaf(p4):
            msg = yield from p4.recv(type_=9)
            return msg.data
        procs = [rt.spawn(0, root)] + [rt.spawn(i, leaf) for i in (1, 2, 3)]
        cluster.sim.run(max_events=1_000_000)
        assert [p.value for p in procs[1:]] == ["B"] * 3

    def test_global_barrier_synchronizes(self):
        cluster, rt = make_runtime(3)
        sim = cluster.sim
        after = []
        def prog(p4, delay):
            yield sim.timeout(delay)
            yield from p4.global_barrier()
            after.append((p4.pid, sim.now))
        rt.spawn(0, prog, 0.1)
        rt.spawn(1, prog, 1.0)
        rt.spawn(2, prog, 0.5)
        sim.run(max_events=1_000_000)
        assert len(after) == 3
        times = [t for _, t in after]
        assert max(times) - min(times) < 0.5  # all released near slowest
        assert min(times) >= 1.0

    def test_barrier_single_proc_is_noop(self):
        cluster, rt = make_runtime(1)
        def prog(p4):
            yield from p4.global_barrier()
            return "done"
        p = rt.spawn(0, prog)
        cluster.sim.run()
        assert p.value == "done"


class TestOverAtm:
    def test_p4_over_nynet_faster_than_ethernet(self):
        """Reproduces the consistent Ethernet-vs-NYNET ordering of the
        paper's tables at the transport level."""
        def ping_time(atm):
            cluster, rt = make_runtime(2, atm=atm)
            sim = cluster.sim
            def sender(p4):
                yield from p4.send(1, 1, "x", 100_000)
                yield from p4.recv()
                return sim.now
            def echoer(p4):
                yield from p4.recv()
                yield from p4.send(2, 0, "y", 100_000)
            p = rt.spawn(0, sender)
            rt.spawn(1, echoer)
            sim.run(max_events=1_000_000)
            return p.value
        assert ping_time(atm=True) < ping_time(atm=False)
