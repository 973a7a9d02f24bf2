"""Property-based tests on the simulation kernel's ordering invariants.

The hot-path work (event pooling, the monotonic sequence tiebreaker, the
inlined run loop) must never disturb the kernel's two load-bearing
ordering laws:

* **Equal-timestamp FIFO** — events scheduled for the same instant are
  processed in the order they were scheduled.
* **Resource FIFO fairness** — a :class:`Resource` grants slots in
  strict request order, regardless of hold times or capacity.

Each law is checked against a trivial executable reference model over
random schedules, plus a same-seed determinism replay that exercises the
event pools (recycled objects must behave exactly like fresh ones).

The primitives that keep unobservable hand-offs off the calendar obey
the same laws: a ``call_in`` timer is one more same-instant event, a
``try_acquire`` of a free slot is a grant that needed no event, and a
``spawn``ed body is a process whose handle was dropped.  ``call_at`` is
``call_in`` at an exact absolute instant whose owner may cancel it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.sim import Resource, Simulator, Store

# a handful of distinct instants, repeated to force timestamp collisions
delay_strategy = st.lists(
    st.sampled_from([0.0, 0.001, 0.002, 0.003, 0.01]),
    min_size=1, max_size=40)


class TestEqualTimestampFifo:
    @given(delay_strategy)
    @settings(max_examples=50, deadline=None)
    def test_same_instant_events_fire_in_schedule_order(self, delays):
        sim = Simulator()
        fired = []
        for idx, delay in enumerate(delays):
            sim.timeout(delay).add_callback(
                lambda ev, i=idx: fired.append(i))
        sim.run()
        expected = [i for _, i in sorted(
            (d, i) for i, d in enumerate(delays))]
        assert fired == expected

    @given(delay_strategy)
    @settings(max_examples=30, deadline=None)
    def test_recycled_events_preserve_ordering(self, delays):
        """Timeouts drawn from the freelist obey the same FIFO law as
        fresh ones: consume-and-recycle rounds interleaved with the
        measured schedule must not perturb it."""
        sim = Simulator()
        # prime the pool with consumed one-shot timeouts
        warmup = [sim.timeout(0.0) for _ in range(8)]

        def consume():
            for ev in warmup:
                yield ev
                sim.recycle(ev)
        sim.process(consume())
        sim.run()
        fired = []
        for idx, delay in enumerate(delays):
            sim.timeout(delay).add_callback(
                lambda ev, i=idx: fired.append(i))
        sim.run()
        expected = [i for _, i in sorted(
            (d, i) for i, d in enumerate(delays))]
        assert fired == expected

    @given(delay_strategy)
    @settings(max_examples=30, deadline=None)
    def test_same_schedule_replays_identically(self, delays):
        """Same seed schedule => bit-identical firing log, twice over."""
        def run_once():
            sim = Simulator()
            log = []
            for idx, delay in enumerate(delays):
                sim.timeout(delay).add_callback(
                    lambda ev, i=idx: log.append((sim.now, i)))
            sim.run()
            return log
        assert run_once() == run_once()


    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.001, 0.002, 0.003, 0.01]), st.booleans()),
        min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_calls_fire_in_schedule_order_among_same_instant_timers(
            self, schedule):
        """``call_in`` callbacks and plain timeouts armed for one instant
        run in the order they were armed, pooled timers included."""
        sim = Simulator()
        fired = []
        for _round in range(2):     # the second round draws from the pool
            del fired[:]
            for idx, (delay, as_call) in enumerate(schedule):
                if as_call:
                    sim.call_in(delay, fired.append, idx)
                else:
                    sim.timeout(delay).add_callback(
                        lambda ev, i=idx: fired.append(i))
            sim.run()
            assert fired == [i for _, i in sorted(
                (d, i) for i, (d, _) in enumerate(schedule))]


class TestAbsoluteCalls:
    """``call_at`` is the exact, cancellable form of ``call_in``."""

    finite = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)

    @given(finite, finite)
    @example(0.3, 0.9)      # 0.3 + (0.9 - 0.3) != 0.9
    @settings(max_examples=200, deadline=None)
    def test_call_at_fires_at_exactly_when(self, first, second):
        """... for any ``now``: ``now + (when - now)`` can be an ulp off
        ``when``, which is why the absolute form does no delay
        arithmetic."""
        now, when = sorted((first, second))
        sim = Simulator()
        fired = []
        sim.call_at(now, lambda: sim.call_at(
            when, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [when] and sim.now == when

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.001, 0.002, 0.003, 0.01]), st.booleans()),
        min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_call_in_and_call_at_share_one_arming_order(self, schedule):
        sim = Simulator()
        fired = []
        for _round in range(2):     # the second round draws from the pools
            del fired[:]
            start = sim.now
            for idx, (delay, absolute) in enumerate(schedule):
                if absolute:
                    sim.call_at(start + delay, fired.append, idx)
                else:
                    sim.call_in(delay, fired.append, idx)
            sim.run()
            # ``start + delay`` is what call_in computes too
            assert fired == [i for _, i in sorted(
                (start + d, i) for i, (d, _) in enumerate(schedule))]

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.001, 0.002, 0.003]), st.booleans()),
        min_size=1, max_size=30), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_a_cancelled_call_is_as_if_never_armed(self, schedule, windowed):
        """It never runs, is not counted, is invisible to ``peek()``,
        ``run_below`` skips it like ``run`` does, and its timer is not
        handed out again while the dead entry is on the heap."""
        sim = Simulator()
        sim.call_in(0.0, lambda: None)
        sim.run()                       # something in the pools to reuse
        fired, dead = [], []
        for idx, (when, cancel) in enumerate(schedule):
            timer = sim.call_at(when, fired.append, idx)
            if cancel:
                sim.cancel(timer)
                dead.append(timer)
        live = sorted((when, i) for i, (when, cancel)
                      in enumerate(schedule) if not cancel)
        assert sim.peek() == (live[0][0] if live else float("inf"))
        # armed while dead entries are still on the heap: fresh timers
        fresh = [sim.call_at(0.004, fired.append, "late") for _ in dead]
        assert not {id(t) for t in fresh} & {id(t) for t in dead}
        before = sim.metrics.value("sim.events_processed")
        if windowed:
            counted = sim.run_below(0.0025) + sim.run_below(1.0)
        else:
            sim.run()
            counted = len(live) + len(fresh)
        assert fired == [i for _, i in live] + ["late"] * len(dead)
        assert counted == len(live) + len(fresh)
        assert sim.metrics.value("sim.events_processed") - before == counted
        assert all(not t.processed for t in dead)


class TestDetachedBodies:
    @given(st.lists(st.sampled_from([0.0, 0.001, 0.002]), max_size=5),
           st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_spawn_is_process_with_the_handle_dropped(self, delays, raises):
        """Whatever the body does — finish or raise, at once or after a
        few waits — ``spawn`` has the side effects of ``process`` with
        its handle dropped: same log, same clock, the failure as silent
        (and as annotated), bystanders undisturbed.  The only difference
        is the completion event nobody could have waited for."""
        def play(start):
            sim = Simulator()
            log, errors = [], []

            def body():
                for delay in delays:
                    yield sim.timeout(delay)
                    log.append(("body", sim.now))
                if raises:
                    errors.append(ValueError("boom"))
                    raise errors[0]

            def bystander():
                yield sim.timeout(0.0015)
                log.append(("bystander", sim.now))
            start(sim, body())
            sim.process(bystander())
            sim.run()
            notes = [n for e in errors for n in e.__notes__]
            return (log, sim.now, notes,
                    sim.metrics.value("sim.events_processed"))

        def dropped(sim, gen):
            sim.process(gen, name="bg")

        def spawned(sim, gen):
            assert sim.spawn(gen, name="bg") is None
        *want, want_events = play(dropped)
        *got, got_events = play(spawned)
        assert got == want
        if raises:
            assert "in simulated process 'bg'" in got[2][0]
        # a failure is still scheduled (and still finds no listener);
        # a normal end is not an event any more
        assert got_events == want_events - (0 if raises else 1)


class TestResourceFifoFairness:
    @given(st.integers(1, 3),
           st.lists(st.sampled_from([0.0, 0.0005, 0.002]),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_grants_follow_request_order(self, capacity, holds):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        granted = []

        def user(idx, hold):
            yield res.request()
            granted.append(idx)
            if hold:
                yield sim.timeout(hold)
            res.release()

        def spawner():
            for idx, hold in enumerate(holds):
                sim.process(user(idx, hold))
                yield sim.timeout(0)
        sim.process(spawner())
        sim.run()
        assert granted == list(range(len(holds)))
        assert res.in_use == 0 and res.queue_length == 0

    @given(st.integers(1, 3),
           st.lists(st.tuples(st.sampled_from([0.0, 0.001, 0.002, 0.004]),
                              st.sampled_from([0.0, 0.0005, 0.002, 0.003]),
                              st.booleans()),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_try_acquire_neither_overtakes_nor_reorders(self, capacity, users):
        """Users arrive at a few shared instants; some take a free slot
        with ``try_acquire`` and queue only when they must, the rest
        always ``request``.  Nobody is ever handed a slot while somebody
        waits, waiters are served in the order they queued, and every
        user holds its slot from and to the very instants it does when
        everybody goes through ``request`` — a free slot needed no
        event.  Every hold spans a calendar hop, as every model's does
        (one that took and released within a single callback would let
        a same-instant arrival find the slot free instead of queueing
        behind it: the same instants, but one waiter fewer)."""
        def play(eager_allowed):
            sim = Simulator()
            res = Resource(sim, capacity=capacity)
            queued, served, log = [], [], []

            def user(idx, arrive, hold, eager):
                yield sim.timeout(arrive)
                waiting = res.queue_length
                if eager and eager_allowed and res.try_acquire():
                    assert waiting == 0
                else:
                    req = res.request()
                    if not req.triggered:
                        queued.append(idx)
                    yield req
                    if idx in queued:
                        served.append(idx)
                assert res.in_use <= capacity
                log.append((idx, "grant", sim.now))
                yield sim.timeout(hold)
                log.append((idx, "release", sim.now))
                res.release()

            for idx, spec in enumerate(users):
                sim.process(user(idx, *spec))
            sim.run()
            assert served == queued
            assert res.in_use == 0 and res.queue_length == 0
            return sorted(log), queued
        assert play(eager_allowed=True) == play(eager_allowed=False)

    @given(st.lists(st.integers(0, 99), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_store_is_fifo(self, items):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                got.append((yield store.get()))
        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == items
