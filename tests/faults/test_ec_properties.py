"""Property-based tests on AckRetransmitErrorControl.

Dedup must be exact (a uid is a duplicate iff it was seen before), the
retransmission backoff must double per retry, and exhausting the retry
budget must surface MessageLost all the way through NcsRuntime.run().

A retransmission, like the send thread's first transmission, blocks
until the transport calls it back (a wake handle, :class:`ops.Wake`);
that block has its laws at the end: a signal does not end it, an early
call is not lost, and it reads ``"wait-event"`` in traces like the event
wait it replaced.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MessageLost, ServiceMode
from repro.core.mps import AckRetransmitErrorControl
from repro.core.mts import MtsScheduler, ThreadState, ops
from repro.hosts import Host, OsProcess
from repro.sim import NullTracer, Simulator

from .util import FAST_EC, make_runtime

uids = st.tuples(st.integers(0, 3), st.integers(0, 20))


def make_ec(timeout_s=0.05, max_retries=3):
    """An EC bound to a stub MPS whose transport accepts instantly."""
    sim = Simulator()
    ec = AckRetransmitErrorControl(timeout_s=timeout_s,
                                   max_retries=max_retries)
    stub = SimpleNamespace(
        sim=sim, pid=0,
        host=SimpleNamespace(tracer=NullTracer(sim)),
        transport=SimpleNamespace(
            start_send=lambda msg, then: then(),
            # the NcsTransport delivery-feedback hooks (no-ops by default)
            on_path_suspect=lambda msg: None,
            on_delivery_confirmed=lambda msg: None),
        lost=[])
    stub.on_message_lost = stub.lost.append
    ec.bind(stub)
    return sim, ec, stub


class TestDedup:
    @given(st.lists(uids, max_size=40))
    def test_duplicate_iff_seen_before(self, sequence):
        _, ec, _ = make_ec()
        seen = set()
        for uid in sequence:
            msg = SimpleNamespace(msg_uid=uid)
            assert ec.is_duplicate(msg) == (uid in seen)
            seen.add(uid)

    @given(st.lists(uids, min_size=1, max_size=20))
    def test_ack_is_idempotent(self, sequence):
        _, ec, _ = make_ec()
        for uid in sequence:
            ec.on_sent(SimpleNamespace(msg_uid=uid))
        for uid in sequence:
            ec.on_ack(uid)
            ec.on_ack(uid)   # double-ack must be harmless
        assert not ec.has_pending()


class TestBackoff:
    @given(timeout=st.floats(1e-3, 0.1), retries=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_backoff_doubles_then_gives_up(self, timeout, retries):
        sim, ec, stub = make_ec(timeout_s=timeout, max_retries=retries)
        # real NcsMessages always carry a deadline (possibly None)
        msg = SimpleNamespace(msg_uid=(0, 1), deadline=None)
        ec.on_sent(msg)
        entry = ec._unacked[(0, 1)]
        assert entry[1] == pytest.approx(sim.now + timeout)
        for i in range(1, retries + 1):
            gen = ec._retransmit((0, 1), entry)
            next(gen)   # runs through the transport hand-off
            assert entry[2] == i
            assert entry[1] == pytest.approx(sim.now + timeout * 2 ** i)
        assert ec.retransmissions == retries
        # budget exhausted: the next attempt declares the message lost
        with pytest.raises(StopIteration):
            next(ec._retransmit((0, 1), entry))
        assert ec.gave_up == 1
        assert stub.lost == [msg]
        assert not ec.has_pending()

    def test_nack_triggers_immediate_retry_accounting(self):
        _, ec, _ = make_ec()
        ec.on_sent(SimpleNamespace(msg_uid=(0, 7)))
        ec.on_nack((0, 7))
        assert ec.has_pending()
        ec.on_nack((9, 9))          # unknown uid: ignored
        assert ec._nacked == [(0, 7)]


class TestGiveUpSurfacing:
    def _total_loss(self, fire_and_forget):
        from repro.faults import FaultInjector, FaultPlan, MessageLoss
        cluster, rt = make_runtime(2, ServiceMode.HSM,
                                   error_kwargs=dict(FAST_EC))
        FaultInjector(cluster, FaultPlan(
            (MessageLoss(at=0.0, p=1.0, pids=(1,)),)), runtime=rt).arm()

        if fire_and_forget:
            def sender(ctx):
                yield ctx.send(-1, 1, "doomed", 1024)
        else:
            def sender(ctx):
                yield ctx.send(-1, 1, "doomed", 1024, tag=1)
                yield ctx.recv(tag=2)    # reply can never come
        rt.t_create(0, sender, name="sender")
        return rt

    def test_lost_message_raises_from_run(self):
        rt = self._total_loss(fire_and_forget=True)
        with pytest.raises(MessageLost):
            rt.run()

    def test_opt_out_collects_lost_messages_instead(self):
        rt = self._total_loss(fire_and_forget=True)
        rt.run(raise_message_lost=False)
        lost = rt.nodes[0].mps.lost_messages
        assert len(lost) == 1 and lost[0].data == "doomed"
        assert rt.nodes[0].mps.ec.gave_up == 1

    def test_pending_recv_fails_with_message_lost(self):
        # the sender is parked in recv when EC gives up: its recv must
        # fail with MessageLost instead of deadlocking the run
        rt = self._total_loss(fire_and_forget=False)
        with pytest.raises(MessageLost):
            rt.run()
        sender = next(t for t in rt.nodes[0].scheduler.threads.values()
                      if t.name == "sender")
        assert isinstance(sender.error, MessageLost)


class TestExactlyOnceUnderLoss:
    def test_no_duplicate_delivery(self):
        from repro.faults import FaultInjector, FaultPlan, MessageLoss
        cluster, rt = make_runtime(2, ServiceMode.HSM, seed=5)
        FaultInjector(cluster, FaultPlan(
            (MessageLoss(at=0.0, duration=1.0, p=0.4),)), runtime=rt).arm()
        n = 6
        got = []

        def rx(ctx):
            for _ in range(n):
                m = yield ctx.recv(tag=1)
                got.append(m.data)

        def tx(ctx):
            for i in range(n):
                yield ctx.send(-1, 1, i, 2048, tag=1)

        rt.t_create(1, rx, name="rx")
        rt.t_create(0, tx, name="tx")
        rt.run()
        # every payload exactly once, despite loss-provoked retransmission
        assert sorted(got) == list(range(n))
        assert rt.nodes[1].mps.data_received == n
        assert (rt.nodes[0].mps.ec.retransmissions > 0
                or rt.nodes[1].mps.messages_faulted > 0)


class TestAcceptanceWaitLaws:
    """``ops.Wake``: how the send and EC threads wait for a transport
    to take a message, checked on a real scheduler with the EC thread's
    own retransmission as the waiter."""

    def _env(self, start_send):
        sim = Simulator()
        host = Host(sim, "h0")
        sched = MtsScheduler(OsProcess(host, pid=0))
        ec = AckRetransmitErrorControl(timeout_s=0.05, max_retries=3)
        stub = SimpleNamespace(
            sim=sim, pid=0, host=host, scheduler=sched,
            transport=SimpleNamespace(
                start_send=start_send, on_path_suspect=lambda msg: None,
                on_delivery_confirmed=lambda msg: None))
        ec.bind(stub)
        msg = SimpleNamespace(msg_uid=(0, 1), deadline=None)
        ec.on_sent(msg)
        log = []

        def body(ctx):
            try:
                yield from ec._retransmit((0, 1), ec._unacked[(0, 1)])
            except RuntimeError as exc:
                log.append((ctx.now, "raised", str(exc)))
                return
            log.append((ctx.now, "accepted"))
        tid = sched.t_create(body, priority=0, name="sys-ec", is_system=True)

        def anchor(ctx):            # keeps the scheduler from shutting down
            yield ctx.block()
        sched.t_create(anchor, priority=15)
        sched.start()
        return sim, sched, sched.thread(tid), log

    #: what resuming the waiter costs: the anchor ran since it blocked
    SWITCH = Host(Simulator(), "h").os.thread_switch_time

    @given(st.integers(1, 3), st.floats(1e-4, 0.1))
    @settings(max_examples=15, deadline=None)
    def test_a_signal_does_not_end_the_wait(self, n, at):
        calls = []
        sim, sched, thread, log = self._env(
            lambda msg, then: calls.append(then))
        sim.run(until=at / 2)
        assert thread.state is ThreadState.BLOCKED
        assert thread.parker.waiter is None
        assert thread.block_reason == "wait-event"
        for _ in range(n):
            sched.signal(thread)
        sim.run(until=at)
        assert log == [] and thread.state is ThreadState.BLOCKED
        sim.call_at(at, calls.pop())
        sim.run(until=2 * at)
        assert log == [(at + self.SWITCH, "accepted")]

    @given(st.sampled_from(["at-once", "twice"]))
    @settings(max_examples=4, deadline=None)
    def test_a_call_before_the_block_is_not_lost(self, how):
        def start_send(msg, then):
            then()                   # the transport took it on the spot
            if how == "twice":
                then()
        sim, sched, thread, log = self._env(start_send)
        sim.run(until=0.01)
        # the waiter went straight through in its first slice: never
        # blocked, so the anchor never ran before it
        assert log == [(self.SWITCH, "accepted")]
        assert sched.context_switches == 2

    @given(st.sampled_from(["before", "after"]))
    @settings(max_examples=4, deadline=None)
    def test_a_call_with_an_exception_throws_it_into_the_waiter(self, when):
        calls = []

        def start_send(msg, then):
            if when == "before":
                then(exc=RuntimeError("path died"))
            else:
                calls.append(then)
        sim, sched, thread, log = self._env(start_send)
        if when == "after":
            sim.run(until=0.001)
            sim.call_at(0.002, lambda: calls.pop()(exc=RuntimeError("path died")))
        sim.run(until=0.01)
        at = 0.0 if when == "before" else 0.002
        assert log == [(at + self.SWITCH, "raised", "path died")]

    def test_the_block_is_not_a_park(self):
        handle = ops.Wake()
        assert handle.keep           # a park drops an early wake
        handle.wake()
        handle.wake(exc=RuntimeError("late"))   # a second call is ignored
        assert handle.kept and handle.exc is None
