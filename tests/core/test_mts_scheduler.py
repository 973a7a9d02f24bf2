"""Tests for the MTS scheduler: states, priorities, blocking, sync."""

import pytest

from repro.core.mts import MtsScheduler, SchedulerError, ThreadState, ops
from repro.core.mts.sync import ThreadEvent
from repro.hosts import Host, OsProcess
from repro.sim import Simulator

from ..counts import count


@pytest.fixture
def env():
    sim = Simulator()
    host = Host(sim, "h0")
    proc = OsProcess(host, pid=0)
    sched = MtsScheduler(proc)
    return sim, host, sched


def run(sim, sched):
    done = sched.start()
    sim.run(max_events=500_000)
    assert done.triggered, "scheduler did not finish (thread deadlock?)"
    return done


class TestLifecycle:
    def test_single_thread_runs_and_returns(self, env):
        sim, host, sched = env
        def body(ctx):
            yield ctx.compute(1.0)
            return "done"
        tid = sched.t_create(body)
        run(sim, sched)
        assert sched.thread(tid).state is ThreadState.FINISHED
        assert sched.thread(tid).result == "done"
        assert sim.now >= 1.0

    def test_threads_serialize_on_one_cpu(self, env):
        sim, host, sched = env
        ends = {}
        def body(ctx, tag):
            yield ctx.compute(1.0)
            ends[tag] = ctx.now
        sched.t_create(body, ("a",))
        sched.t_create(body, ("b",))
        run(sim, sched)
        # two 1s computations on one CPU: makespan >= 2s
        assert max(ends.values()) >= 2.0

    def test_thread_crash_recorded_not_fatal(self, env):
        sim, host, sched = env
        def bad(ctx):
            yield ctx.compute(0.1)
            raise RuntimeError("app bug")
        def good(ctx):
            yield ctx.compute(0.5)
            return "ok"
        bad_tid = sched.t_create(bad)
        good_tid = sched.t_create(good)
        run(sim, sched)
        assert sched.thread(bad_tid).state is ThreadState.FAILED
        assert isinstance(sched.thread(bad_tid).error, RuntimeError)
        assert sched.thread(good_tid).result == "ok"

    def test_double_start_rejected(self, env):
        sim, host, sched = env
        def body(ctx):
            yield ctx.compute(0.0)
        sched.t_create(body)
        sched.start()
        with pytest.raises(SchedulerError):
            sched.start()

    def test_non_generator_body_rejected(self, env):
        sim, host, sched = env
        with pytest.raises(TypeError):
            sched.t_create(lambda ctx: 42)

    def test_spawn_from_running_thread(self, env):
        sim, host, sched = env
        results = []
        def child(ctx, n):
            yield ctx.compute(0.1)
            results.append(n)
            return n * 2
        def parent(ctx):
            tid = yield ctx.spawn(child, 21)
            val = yield ctx.join(tid)
            results.append(val)
        sched.t_create(parent)
        run(sim, sched)
        assert results == [21, 42]

    def test_join_failed_thread_reraises(self, env):
        sim, host, sched = env
        def child(ctx):
            yield ctx.compute(0.1)
            raise ValueError("child died")
        def parent(ctx):
            tid = yield ctx.spawn(child)
            try:
                yield ctx.join(tid)
            except ValueError as e:
                return f"caught {e}"
        tid = sched.t_create(parent)
        run(sim, sched)
        assert sched.thread(tid).result == "caught child died"


class TestPrioritiesAndYield:
    def test_priority_order(self, env):
        sim, host, sched = env
        order = []
        def body(ctx, tag):
            order.append(tag)
            yield ctx.compute(0.01)
        sched.t_create(body, ("low",), priority=12)
        sched.t_create(body, ("high",), priority=1)
        sched.t_create(body, ("mid",), priority=6)
        run(sim, sched)
        assert order == ["high", "mid", "low"]

    def test_yield_round_robins_same_priority(self, env):
        sim, host, sched = env
        trace = []
        def body(ctx, tag):
            for _ in range(3):
                trace.append(tag)
                yield ctx.yield_cpu()
        sched.t_create(body, ("a",), priority=5)
        sched.t_create(body, ("b",), priority=5)
        run(sim, sched)
        assert trace == ["a", "b", "a", "b", "a", "b"]

    def test_nonpreemptive_long_compute(self, env):
        """A thread that never yields keeps the CPU — QuickThreads is
        non-preemptive."""
        sim, host, sched = env
        order = []
        def hog(ctx):
            yield ctx.compute(5.0)
            order.append("hog")
        def quick(ctx):
            yield ctx.compute(0.001)
            order.append("quick")
        sched.t_create(hog, priority=5)
        sched.t_create(quick, priority=5)
        run(sim, sched)
        assert order == ["hog", "quick"]

    def test_context_switch_cost_charged(self, env):
        sim, host, sched = env
        def body(ctx):
            for _ in range(5):
                yield ctx.yield_cpu()
        sched.t_create(body)
        sched.t_create(body)
        run(sim, sched)
        assert count(sim.metrics, "mts.context_switches", pid=0) >= 10
        assert sim.now >= 10 * host.os.thread_switch_time


class TestBlockUnblock:
    def test_block_then_unblock(self, env):
        sim, host, sched = env
        log = []
        def sleeper(ctx):
            log.append("blocking")
            yield ctx.block()
            log.append(("woken", ctx.now))
        def waker(ctx, target):
            yield ctx.compute(2.0)
            yield ctx.unblock(target)
        tid = sched.t_create(sleeper)
        sched.t_create(waker, (tid,))
        run(sim, sched)
        assert log[0] == "blocking"
        assert log[1][0] == "woken" and log[1][1] >= 2.0

    def test_unblock_before_block_leaves_permit(self, env):
        """The Fig 17 lost-wakeup case: NCS_unblock arriving before the
        target's NCS_block must not deadlock."""
        sim, host, sched = env
        def early_waker(ctx, target):
            yield ctx.unblock(target)
        def late_blocker(ctx):
            yield ctx.compute(1.0)
            yield ctx.block()  # permit consumed: no-op
            return "survived"
        tid = sched.t_create(late_blocker, priority=9)
        sched.t_create(early_waker, (tid,), priority=1)
        run(sim, sched)
        assert sched.thread(tid).result == "survived"

    def test_sleep_wakes_at_right_time(self, env):
        sim, host, sched = env
        def body(ctx):
            yield ctx.sleep(3.5)
            return ctx.now
        tid = sched.t_create(body)
        run(sim, sched)
        assert sched.thread(tid).result >= 3.5

    def test_sleeping_thread_releases_cpu(self, env):
        sim, host, sched = env
        log = []
        def sleeper(ctx):
            yield ctx.sleep(10.0)
            log.append(("sleeper", ctx.now))
        def worker(ctx):
            yield ctx.compute(1.0)
            log.append(("worker", ctx.now))
        sched.t_create(sleeper, priority=1)
        sched.t_create(worker, priority=9)
        run(sim, sched)
        assert log[0][0] == "worker" and log[0][1] < 2.0

    def test_wake_handle_resumes_with_value(self, env):
        sim, host, sched = env
        handle = ops.Wake()
        def body(ctx):
            val = yield handle
            return val
        tid = sched.t_create(body)
        sim.call_at(1.0, handle.wake, "payload")
        run(sim, sched)
        assert sched.thread(tid).result == "payload"
        assert sim.now == 1.0


class TestSyncPrimitives:
    def test_thread_event_wait_signal(self, env):
        sim, host, sched = env
        tev = ThreadEvent()
        log = []
        def waiter(ctx, tag):
            yield tev.wait()
            log.append((tag, ctx.now))
        def signaler(ctx):
            yield ctx.compute(2.0)
            tev.signal()
        sched.t_create(waiter, ("w1",))
        sched.t_create(waiter, ("w2",))
        sched.t_create(signaler)
        run(sim, sched)
        assert len(log) == 2 and all(t >= 2.0 for _, t in log)

    @pytest.mark.parametrize("primitive", ["event", "park"])
    def test_waking_a_waiter_schedules_nothing(self, env, primitive):
        """A wake is a queue operation: the waiter becomes runnable on
        the spot, and the calendar does not see it — for ``ThreadEvent``
        wait/signal and for a system thread's park/``signal``."""
        sim, host, sched = env
        tev = ThreadEvent()
        wait = {"event": lambda ctx: tev.wait(),
                "park": lambda ctx: ctx.park()}[primitive]
        release = {"event": tev.signal,
                   "park": lambda: sched.signal(sched.thread(tid))}[primitive]
        log, scheduled = [], []

        def waiter(ctx):
            yield wait(ctx)
            log.append(ctx.now)

        def waker(ctx):
            yield ctx.compute(1.0)
            plain = {hook: getattr(sim, hook)
                     for hook in ("_schedule", "schedule_at")}
            for hook, fn in plain.items():
                setattr(sim, hook, lambda event, arg=0.0, fn=fn: (
                    scheduled.append(event), fn(event, arg)))
            release()
            log.append(ctx.now)
            for hook, fn in plain.items():
                setattr(sim, hook, fn)
            assert sched.thread(tid).state is ThreadState.RUNNABLE
        tid = sched.t_create(waiter)
        sched.t_create(waker)
        run(sim, sched)
        released, resumed = log
        assert scheduled == []
        assert resumed == released + host.os.thread_switch_time


class TestNanIsRejected:
    """NaN slips through ``x < 0``: a NaN compute used to cost no CPU,
    and a NaN sleep or receive timeout failed later with the kernel's
    "negative timeout delay nan"."""

    NAN = float("nan")

    def test_ops_reject_nan_where_they_are_built(self, env):
        sim, host, sched = env
        ctx = sched.thread(sched.t_create(lambda ctx: (yield))).ctx
        for build in (lambda: ctx.compute(self.NAN),
                      lambda: ctx.sleep(self.NAN),
                      lambda: ctx.recv(timeout=self.NAN)):
            with pytest.raises(ValueError, match=r"must be >= 0, got nan"):
                build()

    def test_cpu_busy_rejects_nan(self, env):
        sim, host, sched = env
        with pytest.raises(ValueError, match=r"must be >= 0, got nan"):
            next(host.cpu_busy(self.NAN))

    def test_kernel_timeout_says_what_it_wants(self, env):
        sim, host, sched = env
        with pytest.raises(ValueError,
                           match=r"timeout delay must be >= 0, got nan"):
            sim.timeout(self.NAN)               # fresh
        done = sim.timeout(0.0)
        sim.run()
        sim.recycle(done)
        with pytest.raises(ValueError,
                           match=r"timeout delay must be >= 0, got nan"):
            sim.timeout(self.NAN)               # from the pool

    def test_a_nan_compute_fails_the_thread(self):
        from repro.core import NcsRuntime
        from repro.net import build_ethernet_cluster
        rt = NcsRuntime(build_ethernet_cluster(2))

        def body(ctx):
            yield ctx.compute(self.NAN)
        tid = rt.t_create(0, body)
        rt.t_create(1, body)
        with pytest.raises(ValueError, match=r"must be >= 0, got nan"):
            rt.run()
        assert rt.nodes[0].scheduler.thread(tid).state is ThreadState.FAILED
