"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf, AnyOf, Event, Interrupt, SimulationError, Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def proc(sim):
            yield sim.timeout(2.5)
        sim.run_process(proc(sim))
        assert sim.now == 2.5

    def test_timeouts_process_in_order(self, sim):
        order = []
        def waiter(sim, delay, tag):
            yield sim.timeout(delay)
            order.append(tag)
        sim.process(waiter(sim, 3.0, "c"))
        sim.process(waiter(sim, 1.0, "a"))
        sim.process(waiter(sim, 2.0, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_time_fifo_order(self, sim):
        order = []
        def waiter(sim, tag):
            yield sim.timeout(1.0)
            order.append(tag)
        for tag in "abcd":
            sim.process(waiter(sim, tag))
        sim.run()
        assert order == list("abcd")

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_bad_delay_rejected_at_every_entry_point(self, sim, bad):
        """Negative and NaN alike (``nan < 0`` is False: a NaN timer used
        to fire with ``now == nan`` and run the clock backwards), pooled
        timer or fresh, and the rejected event stays untouched."""
        from repro.sim import Timeout
        with pytest.raises(ValueError):
            Timeout(sim, bad)
        with pytest.raises(ValueError):
            sim.timeout(bad)            # nothing pooled yet: fresh path
        spent = sim.timeout(0.0)
        sim.run()
        sim.recycle(spent)
        with pytest.raises(ValueError):
            sim.timeout(bad)            # pooled path
        assert sim.timeout(1.0) is spent  # ... which left the pool alone
        ev = sim.event()
        with pytest.raises(SimulationError):
            sim._schedule(ev, bad)
        with pytest.raises(SimulationError):
            sim.schedule_at(ev, bad)
        with pytest.raises(SimulationError):
            sim.call_at(bad, lambda: None)
        assert not ev.triggered
        sim.run()
        assert sim.now == 1.0 and sim.peek() == float("inf")

    def test_timeout_value_passthrough(self, sim):
        def proc(sim):
            got = yield sim.timeout(1.0, value="payload")
            return got
        assert sim.run_process(proc(sim)) == "payload"

    def test_run_until_stops_clock(self, sim):
        def proc(sim):
            yield sim.timeout(10.0)
        sim.process(proc(sim))
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run()
        assert sim.now == 10.0

    def test_zero_delay_timeout(self, sim):
        def proc(sim):
            yield sim.timeout(0.0)
            return sim.now
        assert sim.run_process(proc(sim)) == 0.0


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        def producer(sim):
            yield sim.timeout(1.0)
            ev.succeed(42)
        def consumer(sim):
            val = yield ev
            return (sim.now, val)
        sim.process(producer(sim))
        p = sim.process(consumer(sim))
        sim.run()
        assert p.value == (1.0, 42)

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_propagates_into_process(self, sim):
        ev = sim.event()
        class Boom(Exception):
            pass
        def consumer(sim):
            try:
                yield ev
            except Boom:
                return "caught"
        p = sim.process(consumer(sim))
        ev.fail(Boom())
        sim.run()
        assert p.value == "caught"

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_rejected_delay_leaves_the_event_untriggered(self, sim, bad):
        """``succeed``/``fail`` used to set the value before the calendar
        refused the delay: triggered, unscheduled, un-retriggerable —
        every waiter hung."""
        ev, doomed = sim.event(), sim.event()
        with pytest.raises(SimulationError):
            ev.succeed("v", delay=bad)
        with pytest.raises(SimulationError):
            doomed.fail(RuntimeError("x"), delay=bad)
        assert not ev.triggered and not doomed.triggered
        assert sim.peek() == float("inf")

        def waiter(sim):
            got = yield ev
            with pytest.raises(RuntimeError):
                yield doomed
            return got
        ev.succeed("v", delay=1.0)
        doomed.fail(RuntimeError("x"), delay=2.0)
        assert sim.run_process(waiter(sim)) == "v"
        assert sim.now == 2.0

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestProcesses:
    def test_return_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "result"
        assert sim.run_process(proc(sim)) == "result"

    def test_process_is_waitable_event(self, sim):
        def child(sim):
            yield sim.timeout(2.0)
            return 7
        def parent(sim):
            val = yield sim.process(child(sim))
            return (sim.now, val)
        assert sim.run_process(parent(sim)) == (2.0, 7)

    def test_yielding_non_event_fails_process(self, sim):
        def bad(sim):
            yield 42
        p = sim.process(bad(sim))
        sim.run()
        assert p.triggered and not p.ok

    def test_exception_in_process_recorded(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise ValueError("boom")
        p = sim.process(bad(sim))
        sim.run()
        assert not p.ok
        with pytest.raises(ValueError):
            _ = p.value

    def test_deadlock_detected_by_run_process(self, sim):
        ev = sim.event()  # never triggered
        def stuck(sim):
            yield ev
        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(stuck(sim))

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_max_events_guard(self, sim):
        def spinner(sim):
            while True:
                yield sim.timeout(0.0)
        sim.process(spinner(sim))
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)


class TestInterrupts:
    def test_interrupt_wakes_waiting_process(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
                return "slept"
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)
        p = sim.process(sleeper(sim))
        def interrupter(sim):
            yield sim.timeout(1.0)
            p.interrupt("wakeup")
        sim.process(interrupter(sim))
        sim.run()
        assert p.value == ("interrupted", "wakeup", 1.0)

    def test_interrupt_finished_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(0.1)
        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_stale_timeout_ignored_after_interrupt(self, sim):
        """After an interrupt, the original timeout firing must not resume
        the process a second time."""
        log = []
        def sleeper(sim):
            try:
                yield sim.timeout(5.0)
            except Interrupt:
                log.append(("int", sim.now))
            yield sim.timeout(10.0)
            log.append(("done", sim.now))
        p = sim.process(sleeper(sim))
        def interrupter(sim):
            yield sim.timeout(1.0)
            p.interrupt()
        sim.process(interrupter(sim))
        sim.run()
        assert log == [("int", 1.0), ("done", 11.0)]


class TestCancelAndWakeAt:
    def test_cancelled_event_never_happened(self, sim):
        """No callback, no clock movement, no count, not in peek()."""
        fired = []
        dead = sim.timeout(5.0)
        dead.add_callback(fired.append)
        sim.timeout(2.0)
        sim.cancel(dead)
        assert sim.peek() == 2.0
        sim.run()
        assert fired == [] and sim.now == 2.0
        assert sim.metrics.value("sim.events_processed") == 1
        assert sim.peek() == float("inf")

    def test_cancelled_head_is_skipped_by_every_loop(self, sim):
        for run in (lambda: sim.run(until=10.0), lambda: sim.run_below(10.0),
                    sim.step, lambda: sim.run(max_events=5)):
            sim.cancel(sim.timeout(1.0))
            live = sim.timeout(2.0)
            before = sim.metrics.value("sim.events_processed")
            run()
            assert live.processed
            assert sim.metrics.value("sim.events_processed") == before + 1

    def test_step_with_nothing_to_process_says_so(self, sim):
        """Empty, or holding only cancelled entries: not heapq's bare
        ``IndexError: index out of range``."""
        with pytest.raises(SimulationError, match="no scheduled event"):
            sim.step()
        sim.cancel(sim.timeout(1.0))
        sim.cancel(sim.timeout(2.0))
        with pytest.raises(SimulationError, match="no scheduled event"):
            sim.step()
        assert sim.now == 0.0
        live = sim.timeout(3.0)
        sim.step()
        assert live.processed and sim.now == 3.0

    def test_cancelled_timeout_is_not_recycled(self, sim):
        """A pooled object handed out again while its dead calendar entry
        still points at it would fire early."""
        dead = sim.timeout(5.0)
        sim.cancel(dead)
        sim.recycle(dead)
        assert sim.timeout(7.0) is not dead

    def test_cancel_processed_event_raises(self, sim):
        ev = sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.cancel(ev)

    def test_at_fires_at_the_exact_float(self, sim):
        when = 0.1 + 0.2  # 0.30000000000000004
        seen = []
        def proc(sim):
            yield sim.timeout(0.1)
            seen.append((yield sim.at(when, "v")))
            seen.append(sim.now)
        sim.run_process(proc(sim))
        assert seen == ["v", when]

    def test_wake_at_moves_a_parked_process_up(self, sim):
        log = []
        def sleeper(sim):
            log.append((yield sim.timeout(50.0, "late")))
            log.append(sim.now)
            yield sim.timeout(100.0)
            log.append(sim.now)
        p = sim.process(sleeper(sim))
        sim.call_in(1.0, lambda: p.wake_at(3.0))
        sim.run(until=10.0)
        # woken once, with the timer's value; the timer at t=50 is gone
        assert log == ["late", 3.0]
        assert sim.peek() == 103.0
        sim.run()
        assert log == ["late", 3.0, 103.0] and sim.now == 103.0

    def test_wake_at_needs_a_parked_process(self, sim):
        def quick(sim):
            yield sim.timeout(1.0)
        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.wake_at(2.0)


class TestCallsAndSpawn:
    def test_call_in_passes_arguments_and_reuses_its_timer(self, sim):
        seen = []
        assert sim.call_in(1.0, lambda *a: seen.append((sim.now, a)),
                           "burst", 7) is None
        # call_at hands its timer out, for its owner to cancel
        timer = sim.call_at(2.5, seen.append, "flip")
        assert not timer.processed
        sim.run()
        assert seen == [(1.0, ("burst", 7)), "flip"]
        # one event per call, and the spent timers are back in the pools
        assert sim.metrics.value("sim.events_processed") == 2
        assert len(sim._timeout_pool) == 1
        assert sim._event_pool == [timer]

    def test_spawn_hands_out_no_handle_and_schedules_no_completion(self, sim):
        log = []

        def body(sim):
            yield sim.timeout(1.0)
            log.append(sim.now)
        assert sim.spawn(body(sim), name="bg") is None
        kept = sim.process(body(sim), name="kept")
        sim.run()
        assert log == [1.0, 1.0] and kept.processed
        # boot + timer for each, a completion for the kept one only
        assert sim.metrics.value("sim.events_processed") == 5
        assert sim.metrics.value("sim.processes_started") == 2

    def test_spawn_rejects_a_non_generator(self, sim):
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)


class TestConditions:
    def test_any_of_first_wins(self, sim):
        def proc(sim):
            t1, t2 = sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")
            result = yield sim.any_of([t1, t2])
            return (sim.now, list(result.values()))
        t, vals = sim.run_process(proc(sim))
        assert t == 1.0 and "fast" in vals

    def test_all_of_waits_for_last(self, sim):
        def proc(sim):
            evs = [sim.timeout(d) for d in (1.0, 3.0, 2.0)]
            yield sim.all_of(evs)
            return sim.now
        assert sim.run_process(proc(sim)) == 3.0

    def test_any_of_with_already_triggered(self, sim):
        ev = sim.event()
        ev.succeed("pre")
        sim.run()
        def proc(sim):
            res = yield sim.any_of([ev, sim.timeout(9.0)])
            return (sim.now, res[ev])
        assert sim.run_process(proc(sim)) == (0.0, "pre")

    def test_empty_all_of_triggers_immediately(self, sim):
        def proc(sim):
            yield sim.all_of([])
            return sim.now
        assert sim.run_process(proc(sim)) == 0.0

    def test_condition_across_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AnyOf(sim, [other.event()])


class TestDeterminism:
    def test_two_runs_identical(self):
        def build_and_run():
            sim = Simulator()
            trace = []
            def worker(sim, tag, delays):
                for d in delays:
                    yield sim.timeout(d)
                    trace.append((sim.now, tag))
            sim.process(worker(sim, "x", [0.5, 1.0, 0.25]))
            sim.process(worker(sim, "y", [1.0, 0.5, 0.25]))
            sim.run()
            return trace
        assert build_and_run() == build_and_run()
