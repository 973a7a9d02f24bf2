"""Property-based tests on the MTS scheduler.

Random workloads of compute/yield/sleep/spawn ops must always drain,
priorities must always be respected at dispatch, and total charged CPU
must equal the sum of compute requests (conservation of simulated work).
The one blocking primitive, the wake handle (``ops.Wake``), has its laws
at the end: a keep-early handle resumes its thread once however often it
is woken, a drop-early one forgets a wake that came before the block;
``ctx.park()`` / ``MtsScheduler.signal`` — how a system thread waits for
work from a sibling — acts on a parked thread only, once, in order, at
its instant, and is never lost.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NcsRuntime
from repro.core.mps.core import SendRequest
from repro.core.mps.message import ANY_THREAD, NcsMessage
from repro.core.mts import MtsScheduler, SchedulerError, ThreadState, ops
from repro.core.mts.sync import ThreadEvent
from repro.hosts import Host, OsProcess
from repro.net import build_atm_cluster
from repro.sim import Activity, Simulator, Tracer

# one random thread body = a list of (op, arg) instructions
op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("compute"), st.floats(0.0001, 0.01)),
        st.tuples(st.just("yield"), st.none()),
        st.tuples(st.just("sleep"), st.floats(0.0001, 0.005)),
    ),
    min_size=0, max_size=6)


def make_env(trace=False):
    sim = Simulator()
    tracer = Tracer(sim) if trace else None
    host = Host(sim, "h0", tracer=tracer)
    host.compute_quantum = None  # exact conservation accounting
    sched = MtsScheduler(OsProcess(host, 0))
    return sim, host, sched


def body_from_script(script):
    def body(ctx):
        total = 0.0
        for op, arg in script:
            if op == "compute":
                yield ctx.compute(arg)
                total += arg
            elif op == "yield":
                yield ctx.yield_cpu()
            elif op == "sleep":
                yield ctx.sleep(arg)
        return total
    return body


class TestSchedulerProperties:
    @given(st.lists(st.tuples(op_strategy, st.integers(0, 15)),
                    min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_all_threads_finish_and_work_is_conserved(self, specs):
        sim, host, sched = make_env(trace=True)
        tids = []
        expected_compute = 0.0
        for script, priority in specs:
            tids.append(sched.t_create(body_from_script(script),
                                       priority=priority))
            expected_compute += sum(arg for op, arg in script
                                    if op == "compute")
        done = sched.start()
        sim.run(max_events=200_000)
        assert done.triggered
        for tid in tids:
            assert sched.thread(tid).state is ThreadState.FINISHED
        host.tracer.close_all()
        tl = host.tracer.timelines.get("h0")
        measured = tl.total(Activity.COMPUTE) if tl else 0.0
        assert measured == pytest.approx(expected_compute, abs=1e-9)
        # makespan can exceed pure compute (sleeps, switches) but never
        # undercut it
        assert sim.now >= expected_compute - 1e-9

    @given(st.lists(st.integers(0, 15), min_size=2, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_first_dispatch_order_respects_priority(self, priorities):
        sim, host, sched = make_env()
        order = []
        def body(ctx, idx):
            order.append(idx)
            yield ctx.compute(0.001)
        for i, prio in enumerate(priorities):
            sched.t_create(body, (i,), priority=prio)
        sched.start()
        sim.run(max_events=100_000)
        # the dispatch order must be a stable sort of (priority, index)
        expected = [i for _, i in sorted(
            (p, i) for i, p in enumerate(priorities))]
        assert order == expected

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(1, 4)),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_priority_round_robin_law(self, specs):
        """The full slice sequence of yield-only threads must match the
        multilevel round-robin reference model (paper Fig 9): always
        dispatch from the lowest-numbered non-empty priority level, FIFO
        within a level, a yielding thread re-enqueues at its level's tail
        before the next dispatch."""
        sim, host, sched = make_env()
        order = []

        def body(ctx, idx, slices):
            for _ in range(slices):
                order.append(idx)
                yield ctx.yield_cpu()

        for i, (prio, slices) in enumerate(specs):
            sched.t_create(body, (i, slices), priority=prio)
        sched.start()
        sim.run(max_events=200_000)

        # executable reference model
        levels = {}
        for i, (prio, slices) in enumerate(specs):
            levels.setdefault(prio, []).append([i, slices])
        expected = []
        while any(levels.values()):
            level = min(p for p, q in levels.items() if q)
            entry = levels[level].pop(0)
            expected.append(entry[0])
            entry[1] -= 1
            if entry[1] > 0:
                levels[level].append(entry)
        assert order == expected

    @given(st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_spawn_chains_terminate(self, depth):
        sim, host, sched = make_env()
        finished = []
        def link(ctx, remaining):
            if remaining > 0:
                tid = yield ctx.spawn(link, remaining - 1)
                val = yield ctx.join(tid)
                finished.append(remaining)
                return val + 1
            finished.append(0)
            return 0
        root = sched.t_create(link, (depth,))
        sched.start()
        sim.run(max_events=200_000)
        assert sched.thread(root).result == depth
        assert len(finished) == depth + 1


# --------------------------------------------------------------------------
# ops.Wake: the one way to block; ctx.park() / MtsScheduler.signal
# --------------------------------------------------------------------------

def parker(log):
    """A system-thread-shaped body: one log row per slice, then park."""
    def body(ctx, name):
        while True:
            log.append((ctx.now, name))
            yield ctx.park()
    return body


def parked(thread):
    """``thread`` waits on its own drop-early handle."""
    return thread.parker.waiter is thread


def shape(sched):
    """Everything a signal could disturb, short of the threads' own
    resume slots: who is where, which handle holds whom, and which
    wake was kept for later."""
    return ({tid: (t.state, t.block_reason, t.resume_value, t.resume_exc,
                   parked(t), t.blocker.waiter is t, t.blocker.kept)
             for tid, t in sched.threads.items()},
            sched.runnable.level_sizes(), len(sched.blocked))


class TestDirectSignalLaws:
    #: victim state -> the op that puts it there (given the tid of a
    #: sibling that never finishes)
    BLOCKERS = {
        "wait-event": lambda ctx, other: ops.Wake(),
        "drop-early": lambda ctx, other: ops.Wake("ncs-recv", keep=False),
        "sleep": lambda ctx, other: ctx.sleep(1.0),
        "join": lambda ctx, other: ctx.join(other),
        "ncs-block": lambda ctx, other: ctx.block(),
        "thread-event": lambda ctx, other: ThreadEvent().wait(),
    }

    def _blocked_victim(self, how):
        """A scheduler at t = 0.5 with one thread blocked ``how`` (and
        a sibling blocked in ``NCS_block``)."""
        sim, host, sched = make_env()
        resumed = []

        def sibling(ctx):
            yield ctx.block()

        def victim(ctx, other):
            yield self.BLOCKERS[how](ctx, other)
            resumed.append(ctx.now)

        other = sched.t_create(sibling)
        tid = sched.t_create(victim, (other,))
        sched.start()
        sim.run(until=0.5)
        thread = sched.thread(tid)
        assert thread.state is ThreadState.BLOCKED
        return sim, sched, thread, resumed

    @given(st.sampled_from(sorted(BLOCKERS)), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_signal_leaves_a_thread_blocked_elsewhere_alone(self, how, n):
        sim, sched, thread, resumed = self._blocked_victim(how)
        assert not parked(thread)
        before = shape(sched)
        for _ in range(n):
            sched.signal(thread)
        assert shape(sched) == before
        sim.run(until=0.9)
        assert not resumed and sched._idle_ev is not None
        # ... and no permit was left: parking now is parking
        log = []
        late = sched.thread(sched.t_create(parker(log), ("late",)))
        sim.run(until=0.95)
        assert parked(late) and len(log) == 1

    @given(st.sampled_from(sorted(set(BLOCKERS) - {"ncs-block"})),
           st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_unblock_leaves_a_thread_blocked_elsewhere_alone(self, how, n):
        """``NCS_unblock`` wakes ``NCS_block`` only: on a thread blocked
        on any other handle it raises, and keeps no permit."""
        sim, sched, thread, resumed = self._blocked_victim(how)
        before = shape(sched)
        for _ in range(n):
            with pytest.raises(SchedulerError, match="blocked in"):
                sched.unblock(thread.tid)
        assert shape(sched) == before
        sim.run(until=0.9)
        assert not resumed and not thread.blocker.kept

    @given(st.lists(st.sampled_from([1e-3, 2e-3, 8e-3, 9e-3]), min_size=1,
                    max_size=6), st.sampled_from(["value", "exc"]))
    @settings(max_examples=30, deadline=None)
    def test_a_keep_early_handle_resumes_once(self, wakes, how):
        """However many wakes, before or after the block at ~5 ms: the
        thread resumes once, with the first wake's value (or exception),
        at the later of the first wake and the block."""
        sim, host, sched = make_env()
        handle = ops.Wake()
        log, blocked_at = [], []

        def body(ctx):
            yield ctx.sleep(5e-3)
            blocked_at.append(ctx.now)
            try:
                value = yield handle
            except LookupError as exc:
                value = exc.args[0]
            log.append((ctx.now, value))
            yield ctx.block()                   # and stay
        sched.t_create(body)
        for i, at in enumerate(wakes):
            if how == "value":
                sim.call_at(at, handle.wake, i)
            else:
                sim.call_at(at, lambda i=i: handle.wake(exc=LookupError(i)))
        sched.start()
        sim.run()
        first = min(range(len(wakes)), key=lambda i: (wakes[i], i))
        assert log == [(max(blocked_at[0], wakes[first]), first)]

    @given(st.integers(1, 3))
    @settings(max_examples=5, deadline=None)
    def test_a_drop_early_handle_forgets_a_wake_before_the_block(self, n):
        sim, host, sched = make_env()
        handle = ops.Wake(keep=False)
        log = []

        def body(ctx):
            yield ctx.sleep(5e-3)
            value = yield handle
            log.append((ctx.now, value))
        sched.t_create(body)
        for _ in range(n):
            sim.call_at(1e-3, handle.wake, "early")
        sim.call_at(8e-3, handle.wake, "late")
        sched.start()
        sim.run()
        assert log == [(8e-3, "late")]

    def test_signal_leaves_a_thread_in_an_mps_op_alone(self):
        cluster = build_atm_cluster(2)
        rt = NcsRuntime(cluster, mode="hsm")

        def receiver(ctx):
            msg = yield ctx.recv()
            return (msg.data, ctx.now)

        def sender(ctx):
            yield ctx.sleep(0.2)
            yield ctx.send(-1, 0, "data", 64)

        tid = rt.t_create(0, receiver)
        rt.t_create(1, sender)
        sched = rt.nodes[0].scheduler
        thread = sched.thread(tid)

        def meddle():
            assert thread.block_reason == "ncs-recv"
            before = shape(sched)
            sched.signal(thread)
            assert shape(sched) == before
        cluster.sim.call_at(0.1, meddle)
        rt.run(max_events=100_000)
        data, when = rt.thread_result(0, tid)
        assert data == "data" and when > 0.2

    @given(st.integers(1, 3))
    @settings(max_examples=5, deadline=None)
    def test_signal_leaves_new_runnable_running_and_finished_alone(self, n):
        sim, host, sched = make_env()
        log = []

        def body(ctx):
            before = shape(sched)
            for _ in range(n):                      # RUNNING: itself
                sched.signal(sched.current)
            assert shape(sched) == before
            log.append("ran")
            yield ctx.park()                        # no permit: it parks
            log.append("woken")

        thread = sched.thread(sched.t_create(body))
        before = shape(sched)
        for _ in range(n):                          # NEW
            sched.signal(thread)
        assert shape(sched) == before
        sched.start()
        before = shape(sched)
        for _ in range(n):                          # RUNNABLE
            sched.signal(thread)
        assert shape(sched) == before
        sim.run()
        assert log == ["ran"] and parked(thread)
        sched.signal(thread)
        sim.run()
        assert log == ["ran", "woken"]
        assert thread.state is ThreadState.FINISHED
        before = shape(sched)
        for _ in range(n):                          # finished
            sched.signal(thread)
        assert shape(sched) == before and len(sched.runnable) == 0

    @given(st.integers(1, 5), st.floats(0.001, 0.01),
           st.sampled_from(["idle", "busy"]))
    @settings(max_examples=20, deadline=None)
    def test_n_signals_at_one_instant_are_one_slice(self, n, at, loop):
        sim, host, sched = make_env()
        log = []
        thread = sched.thread(sched.t_create(parker(log), ("p",),
                                             priority=0))
        if loop == "busy":
            def cruncher(ctx):
                yield ctx.compute(0.02)
            sched.t_create(cruncher)
        sched.start()

        def burst():
            for _ in range(n):
                sched.signal(thread)
        sim.call_at(at, burst)
        sim.run()
        assert len(log) == 2 and parked(thread)
        # at the instant — or, non-preemptive, once the compute is over
        assert log[1][0] == at if loop == "idle" else log[1][0] > 0.02

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=8).flatmap(
               lambda prios: st.tuples(st.just(prios), st.permutations(
                   range(len(prios))))),
           st.sampled_from(["callback", "thread"]))
    @settings(max_examples=40, deadline=None)
    def test_signal_order_is_run_order_within_a_priority(self, drawn, who):
        priorities, order = drawn
        sim, host, sched = make_env()
        log = []
        threads = [sched.thread(sched.t_create(
            parker(log), (i,), priority=prio))
            for i, prio in enumerate(priorities)]

        def signal_all():
            for i in order:
                sched.signal(threads[i])

        if who == "callback":
            sim.call_at(0.01, signal_all)
        else:
            def signaller(ctx):
                yield ctx.sleep(0.01)
                signal_all()
                log.append((ctx.now, "signaller-done"))
            sched.t_create(signaller, priority=15)
        sched.start()
        sim.run()
        woken = [name for when, name in log if when >= 0.01]
        if who == "thread":
            # the signaller is not preempted by what it woke
            assert woken.pop(0) == "signaller-done"
        assert woken == sorted(order, key=lambda i: priorities[i])

    @given(st.floats(0.001, 0.5))
    @settings(max_examples=10, deadline=None)
    def test_idle_loop_wakes_at_the_signal_instant_on_one_entry(self, at):
        sim, host, sched = make_env()
        log = []
        thread = sched.thread(sched.t_create(parker(log), ("p",)))

        def anchor(ctx):        # keeps the scheduler from shutting down
            yield ctx.block()
        sched.t_create(anchor, priority=0)
        sched.start()
        sim.run()
        assert parked(thread) and sched._idle_ev is not None
        scheduled = []
        for hook in ("_schedule", "schedule_at"):
            def tap(event, arg=0.0, plain=getattr(sim, hook)):
                scheduled.append((sim.now, event.name))
                plain(event, arg)
            setattr(sim, hook, tap)
        sim.call_at(at, sched.signal, thread)
        assert scheduled.pop() == (sim.now, "at")       # the call itself
        sim.run()
        # the parked thread was the last to run (the anchor has priority
        # over it), so no switch is charged: it runs at the instant, and
        # the whole wake-up is the loop's one idle entry
        assert log[1:] == [(at, "p")] and parked(thread)
        assert scheduled == [(at, f"idle:{sched.process.name}")]


# one scripted step of the no-lost-wake-up law: (instant on a coarse grid,
# so that equal instants are common; what happens)
INSTANTS = st.sampled_from([0.0, 1e-5, 1e-3, 2e-3, 2e-3 + 8e-6, 5e-3])
script_strategy = st.lists(
    st.tuples(INSTANTS, st.sampled_from(
        ["arrival", "send-local", "send-remote", "credit"])),
    min_size=1, max_size=12)
user_strategy = st.lists(
    st.lists(st.one_of(st.tuples(st.just("recv"), st.none()),
                       st.tuples(st.just("compute"),
                                 st.floats(1e-6, 4e-3)),
                       st.tuples(st.just("sleep"), INSTANTS)),
             max_size=6),
    min_size=1, max_size=3)


class TestNoLostWakeup:
    @given(script_strategy, user_strategy,
           st.sampled_from([None, "ack"]), st.sampled_from([None, "window"]))
    @settings(max_examples=60, deadline=None)
    def test_system_threads_drain_their_queues_and_park(
            self, script, users, error, flow):
        """Whatever gives a system thread work — ``_enqueue_send``, an
        arrival, a posted receive, a credit — and whenever it does,
        relative to the thread's look at its queue (busy, idle,
        mid-``Compute``, same instant): at the end every queue is
        drained, no posted receive sits next to a message that matches
        it, and every system thread is parked again."""
        cluster = build_atm_cluster(2)
        rt = NcsRuntime(cluster, mode="hsm", error=error, flow=flow)
        sim = cluster.sim
        mps = rt.nodes[0].mps
        completed = []

        def user(ctx, steps):
            for step, arg in steps:
                if step == "recv":
                    completed.append((yield ctx.recv()).msg_uid)
                elif step == "compute":
                    yield ctx.compute(arg)
                else:
                    yield ctx.sleep(arg)
            yield ctx.block()           # the scheduler must outlive us
        for steps in users:
            rt.t_create(0, user, (steps,))

        def data(src, dst, uid):
            return NcsMessage(from_thread=ANY_THREAD, from_process=src,
                              to_thread=ANY_THREAD, to_process=dst,
                              data=None, size=256, msg_uid=uid)
        inbound = 0
        for i, (at, what) in enumerate(script):
            if what == "arrival":
                sim.call_at(at, mps._on_arrival, data(1, 0, (1, 1000 + i)))
                inbound += 1
            elif what == "credit":
                sim.call_at(at, mps.fc.on_credit, 1, 256)
            else:
                dst = 0 if what == "send-local" else 1
                sim.call_at(at, lambda dst=dst: mps._enqueue_send(
                    SendRequest(data(0, dst, mps._next_uid()))))
                inbound += dst == 0
        rt.start()
        sim.run(until=5.0, max_events=500_000)
        rt.raise_thread_errors()

        assert not mps.send_q and mps._send_inflight == 0
        assert not mps.ec.has_pending()
        # every message was received once or is still there to be, and
        # none is there while a receive that matches it (all do) is posted
        assert len(set(completed)) == len(completed)
        assert len(completed) + len(mps.mailbox) == inbound
        assert not (mps.recv_reqs and len(mps.mailbox))
        for thread in rt.nodes[0].scheduler.threads.values():
            if thread.is_system:
                assert parked(thread), thread.name
