"""Edge-case tests for the scheduler and p4 library internals."""

import pytest

from repro.core import NcsRuntime
from repro.core.mts import MtsScheduler, SchedulerError, ThreadState, ops
from repro.core.mps.filters import PvmFilter
from repro.hosts import Host, OsProcess
from repro.net import build_ethernet_cluster
from repro.p4 import P4Runtime
from repro.sim import Simulator


class TestSchedulerEdges:
    def make(self):
        sim = Simulator()
        host = Host(sim, "h0")
        return sim, MtsScheduler(OsProcess(host, 0))

    def test_spawn_after_start_runs(self):
        sim, sched = self.make()
        seen = []
        def early(ctx):
            yield ctx.compute(0.5)
            seen.append("early")
        sched.t_create(early)
        sched.start()
        sim.run(until=0.1)
        def late(ctx):
            yield ctx.compute(0.1)
            seen.append("late")
        sched.t_create(late)
        sim.run()
        assert sorted(seen) == ["early", "late"]

    def test_unblock_finished_thread_is_noop(self):
        sim, sched = self.make()
        def quick(ctx):
            yield ctx.compute(0.01)
        tid = sched.t_create(quick)
        sched.start()
        sim.run()
        sched.unblock(tid)  # must not raise

    def test_unblock_unknown_tid_raises(self):
        sim, sched = self.make()
        with pytest.raises(SchedulerError):
            sched.unblock(999)

    def test_unblock_thread_in_mps_wait_rejected(self):
        """NCS_unblock must not corrupt a thread parked in NCS_recv."""
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster)
        def waiter(ctx):
            yield ctx.recv()
        def meddler(ctx, victim):
            yield ctx.compute(0.01)
            yield ctx.unblock(victim)
        victim = rt.t_create(0, waiter)
        rt.t_create(0, meddler, (victim,))
        with pytest.raises(SchedulerError, match="blocked in"):
            rt.run(max_events=200_000)

    def test_priority_out_of_range(self):
        sim, sched = self.make()
        def body(ctx):
            yield ctx.compute(0)
        with pytest.raises(ValueError):
            sched.t_create(body, priority=16)

    @pytest.mark.parametrize("priority", [3.5, 2.0, "3", None, True])
    def test_an_ill_typed_priority_is_rejected_before_registration(
            self, priority):
        """Only an int names a level: anything else used to be accepted
        and fail later, deep in the runnable queue."""
        rt = NcsRuntime(build_ethernet_cluster(1))
        sched = rt.node(0).scheduler
        before = (dict(sched.threads), sched._live_users)
        def body(ctx):
            yield ctx.compute(0.001)
        with pytest.raises(ValueError, match=r"priority .* \[0, 16\)"):
            rt.t_create(0, body, priority=priority)
        assert (sched.threads, sched._live_users) == before
        tid = rt.t_create(0, body)
        rt.run(max_events=100_000)
        assert sched.thread(tid).state is ThreadState.FINISHED

    def test_a_rejected_spawn_is_thrown_into_the_spawner(self):
        """A Spawn with a bad priority fails at the spawner's yield, as an
        MPS op's validation error does, and registers no child."""
        rt = NcsRuntime(build_ethernet_cluster(1))
        sched = rt.node(0).scheduler
        def child(ctx):
            yield ctx.compute(0.001)
        def spawner(ctx):
            try:
                yield ops.Spawn(child, (), 2.5, "child")
            except ValueError as exc:
                tid = yield ctx.spawn(child, name="good-child")
                return str(exc), tid
        tid = rt.t_create(0, spawner)
        n_threads = len(sched.threads)
        rt.run(max_events=100_000)
        message, good = sched.thread(tid).result
        assert message == "priority 2.5 is not an int in [0, 16)"
        assert len(sched.threads) == n_threads + 1
        assert sched.thread(good).state is ThreadState.FINISHED
        assert sched._live_users == 0

    def test_a_second_waiter_on_one_handle_is_an_error(self):
        """A wake handle holds one waiting thread: a second blocking on it
        used to overwrite the first, which then never resumed."""
        rt = NcsRuntime(build_ethernet_cluster(1))
        shared = ops.Wake("shared")
        def waiter(ctx):
            yield shared
        def waker(ctx):
            yield ctx.compute(0.01)
            shared.wake(1)
            shared.wake(2)
        rt.t_create(0, waiter, name="a")
        rt.t_create(0, waiter, name="b")
        rt.t_create(0, waker)
        with pytest.raises(SchedulerError,
                           match="thread b cannot block on the 'shared' "
                                 "handle: thread a is blocked on it"):
            rt.run(max_events=100_000)

    def test_join_self_deadlocks_detectably(self):
        sim, sched = self.make()
        def narcissist(ctx):
            yield ctx.join(ctx.my_tid)
        tid = sched.t_create(narcissist)
        sched.start()
        sim.run()
        assert sched.thread(tid).state is ThreadState.BLOCKED


class TestP4LibraryStream:
    def test_same_destination_messages_ordered(self):
        cluster = build_ethernet_cluster(2)
        rt = P4Runtime(cluster)
        def sender(p4):
            # interleave big and tiny sends: tiny ones must not overtake
            for i, size in enumerate([40_000, 10, 20_000, 10, 10]):
                yield from p4.send(1, 1, i, size)
        def receiver(p4):
            out = []
            for _ in range(5):
                msg = yield from p4.recv()
                out.append(msg.data)
            return out
        rt.spawn(0, sender)
        p = rt.spawn(1, receiver)
        cluster.sim.run(max_events=3_000_000)
        assert p.value == [0, 1, 2, 3, 4]

    def test_sender_not_captive_to_wire(self):
        """p4's buffered sends: the sender finishes its send loop far
        before the bytes drain (the library stream carries them)."""
        cluster = build_ethernet_cluster(2)
        rt = P4Runtime(cluster)
        marks = {}
        def sender(p4):
            for i in range(3):
                yield from p4.send(1, 1, i, 100_000)
            marks["sends_done"] = cluster.sim.now
        def receiver(p4):
            for _ in range(3):
                yield from p4.recv()
            marks["recv_done"] = cluster.sim.now
        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        cluster.sim.run(max_events=5_000_000)
        assert marks["sends_done"] < 0.5 * marks["recv_done"]


class TestPvmMcast:
    def test_mcast_reaches_listed_tasks(self):
        cluster = build_ethernet_cluster(3)
        rt = NcsRuntime(cluster)
        tids = {}
        def root(ctx):
            pvm = PvmFilter(ctx)
            targets = [PvmFilter.pack(1, tids[1]), PvmFilter.pack(2, tids[2])]
            yield pvm.mcast(targets, 5, "multicast!", 256)
        def leaf(ctx):
            pvm = PvmFilter(ctx)
            msg = yield pvm.precv(msgtag=5)
            return msg.data
        tids[1] = rt.t_create(1, leaf)
        tids[2] = rt.t_create(2, leaf)
        rt.t_create(0, root)
        rt.run(max_events=1_000_000)
        assert rt.thread_result(1, tids[1]) == "multicast!"
        assert rt.thread_result(2, tids[2]) == "multicast!"

    def test_pack_range_validation(self):
        with pytest.raises(ValueError):
            PvmFilter.pack(1, 0x10000)
