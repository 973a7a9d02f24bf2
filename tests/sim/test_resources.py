"""Unit tests for Resource, Store and Mailbox."""

import pytest

from repro.sim import Mailbox, Resource, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_serializes_two_users(self, sim):
        res = Resource(sim, capacity=1)
        log = []
        def user(sim, tag):
            yield res.request()
            log.append(("in", tag, sim.now))
            yield sim.timeout(1.0)
            log.append(("out", tag, sim.now))
            res.release()
        sim.process(user(sim, "a"))
        sim.process(user(sim, "b"))
        sim.run()
        assert log == [("in", "a", 0.0), ("out", "a", 1.0),
                       ("in", "b", 1.0), ("out", "b", 2.0)]

    def test_capacity_two_admits_two(self, sim):
        res = Resource(sim, capacity=2)
        times = []
        def user(sim):
            yield res.request()
            times.append(sim.now)
            yield sim.timeout(1.0)
            res.release()
        for _ in range(3):
            sim.process(user(sim))
        sim.run()
        assert times == [0.0, 0.0, 1.0]

    def test_release_idle_raises(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim).release()

    def test_fifo_queue_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []
        def user(sim, tag, arrive):
            yield sim.timeout(arrive)
            yield res.request()
            order.append(tag)
            yield sim.timeout(5.0)
            res.release()
        for i, tag in enumerate("abc"):
            sim.process(user(sim, tag, 0.1 * i))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_queue_length_reporting(self, sim):
        res = Resource(sim, capacity=1)
        def holder(sim):
            yield res.request()
            yield sim.timeout(10.0)
            res.release()
        def waiter(sim):
            yield res.request()
            res.release()
        sim.process(holder(sim))
        sim.process(waiter(sim))
        sim.run(until=5.0)
        assert res.in_use == 1 and res.queue_length == 1


    def test_on_contend_fires_for_queued_requests_only(self, sim):
        calls = []
        res = Resource(sim, capacity=1,
                       on_contend=lambda: calls.append(res.queue_length))
        res.request()
        assert calls == []
        res.request()
        res.request()
        assert calls == [1, 2]
        res.release()
        res.request()
        assert calls == [1, 2, 2]


    def test_try_acquire_takes_a_free_slot_without_an_event(self, sim):
        calls = []
        res = Resource(sim, capacity=2, on_contend=lambda: calls.append(1))
        assert res.try_acquire() and res.try_acquire()
        assert res.in_use == 2 and sim.peek() == float("inf")
        assert not res.try_acquire()
        assert res.in_use == 2 and res.queue_length == 0 and calls == []
        waiter = res.request()
        assert calls == [1] and not res.try_acquire()
        res.release()                   # passes straight to the waiter
        assert waiter.triggered and res.in_use == 2
        assert not res.try_acquire()
        res.release()
        res.release()
        assert res.in_use == 0 and res.try_acquire()


class TestStore:
    def test_try_put_schedules_nothing_for_the_caller(self, sim):
        """Queued: no event at all; to a parked getter: that one's
        wake-up, and no acknowledgement."""
        st = Store(sim)
        assert st.try_put("a") and sim.peek() == float("inf")
        assert st.try_get() == (True, "a")
        getter = st.get()
        assert st.try_put("b")
        sim.run()
        assert getter.value == "b"
        assert sim.metrics.value("sim.events_processed") == 1

    def test_put_then_get(self, sim):
        st = Store(sim)
        def proc(sim):
            yield st.put("x")
            item = yield st.get()
            return item
        assert sim.run_process(proc(sim)) == "x"

    def test_get_blocks_until_put(self, sim):
        st = Store(sim)
        def getter(sim):
            item = yield st.get()
            return (sim.now, item)
        def putter(sim):
            yield sim.timeout(2.0)
            yield st.put("late")
        p = sim.process(getter(sim))
        sim.process(putter(sim))
        sim.run()
        assert p.value == (2.0, "late")

    def test_fifo_order(self, sim):
        st = Store(sim)
        def proc(sim):
            for x in (1, 2, 3):
                yield st.put(x)
            out = []
            for _ in range(3):
                out.append((yield st.get()))
            return out
        assert sim.run_process(proc(sim)) == [1, 2, 3]

    def test_bounded_put_blocks(self, sim):
        st = Store(sim, capacity=1)
        log = []
        def putter(sim):
            yield st.put("a")
            log.append(("put-a", sim.now))
            yield st.put("b")
            log.append(("put-b", sim.now))
        def getter(sim):
            yield sim.timeout(3.0)
            yield st.get()
        sim.process(putter(sim))
        sim.process(getter(sim))
        sim.run()
        assert log == [("put-a", 0.0), ("put-b", 3.0)]

    def test_try_put_try_get(self, sim):
        st = Store(sim, capacity=1)
        assert st.try_put(1) is True
        assert st.try_put(2) is False
        ok, item = st.try_get()
        assert ok and item == 1
        ok, item = st.try_get()
        assert not ok and item is None

    def test_len(self, sim):
        st = Store(sim)
        st.try_put("a"); st.try_put("b")
        assert len(st) == 2


class TestMailbox:
    def test_deliver_then_receive(self, sim):
        mb = Mailbox(sim)
        mb.deliver({"tag": 1, "data": "hello"})
        def proc(sim):
            msg = yield mb.receive(lambda m: m["tag"] == 1)
            return msg["data"]
        assert sim.run_process(proc(sim)) == "hello"

    def test_receive_blocks_until_match(self, sim):
        mb = Mailbox(sim)
        def receiver(sim):
            msg = yield mb.receive(lambda m: m == "wanted")
            return (sim.now, msg)
        def sender(sim):
            yield sim.timeout(1.0)
            mb.deliver("other")
            yield sim.timeout(1.0)
            mb.deliver("wanted")
        p = sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert p.value == (2.0, "wanted")
        assert mb.pending_messages == ("other",)

    def test_matching_skips_nonmatching_in_order(self, sim):
        mb = Mailbox(sim)
        for m in ("a1", "b1", "a2"):
            mb.deliver(m)
        def proc(sim):
            first = yield mb.receive(lambda m: m.startswith("a"))
            second = yield mb.receive(lambda m: m.startswith("a"))
            return [first, second]
        assert sim.run_process(proc(sim)) == ["a1", "a2"]

    def test_poll_is_nondestructive(self, sim):
        mb = Mailbox(sim)
        mb.deliver("x")
        assert mb.poll(lambda m: m == "x")
        assert mb.poll(lambda m: m == "x")
        assert not mb.poll(lambda m: m == "y")

    def test_take_nonblocking(self, sim):
        mb = Mailbox(sim)
        assert mb.take(lambda m: True) is None
        mb.deliver("z")
        assert mb.take(lambda m: True) == "z"
        assert len(mb) == 0

    def test_two_receivers_matched_in_registration_order(self, sim):
        mb = Mailbox(sim)
        got = {}
        def receiver(sim, tag):
            msg = yield mb.receive(lambda m: True)
            got[tag] = msg
        sim.process(receiver(sim, "first"))
        sim.process(receiver(sim, "second"))
        sim.run()
        mb.deliver(1)
        mb.deliver(2)
        sim.run()
        assert got == {"first": 1, "second": 2}
