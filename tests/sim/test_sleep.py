"""A process's private sleep: ``yield seconds``.

A process that yields a real number ``d`` is resumed ``d`` seconds later
by its own reusable wake record instead of a :class:`Timeout`.  The
record is scheduled at the very point the timeout was, so the calendar
holds the same entries in the same ``(time, seq)`` order.  The law
below checks exactly that: rewriting every ``yield d`` of a random
program as ``yield sim.timeout(d)`` changes neither the trace of who
ran when nor the number of events processed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, SimulationError, Simulator

# few distinct values, so equal instants (and equal floats reached by
# different sums) are the rule; int, numpy and bad delays ride along
DELAYS = [0, 0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 1, 1.0, 2.5,
          np.float64(0.5), np.float64(0.0), -1.0, math.nan]
GOOD = [0.0, 0.1, 0.3, 0.1 + 0.2, 1.0, 2.5]

N_PROCS = 3

step = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    st.tuples(st.just("timeout"), st.sampled_from(GOOD)),
    st.tuples(st.just("call"), st.sampled_from(GOOD)),
    st.tuples(st.just("interrupt"), st.integers(0, N_PROCS - 1)),
    st.tuples(st.just("wake_at"), st.integers(0, N_PROCS - 1),
              st.sampled_from(GOOD)),
    st.tuples(st.just("join"), st.integers(0, N_PROCS - 1)),
)
program = st.lists(st.lists(step, max_size=8), min_size=N_PROCS,
                   max_size=N_PROCS)


def _run(prog, private: bool):
    """Run ``prog``; a ``sleep`` step yields its delay if ``private``,
    else ``sim.timeout`` of it.  Returns the trace and the event count."""
    sim = Simulator()
    trace = []
    procs = []
    # what each process is parked on: "timer" (its own), "join",
    # "poked" (an interrupt is on its way) or "running"
    state = ["running"] * len(prog)

    def body(me, steps):
        for i, (kind, *args) in enumerate(steps):
            try:
                if kind == "sleep":
                    state[me] = "timer"
                    yield args[0] if private else sim.timeout(args[0])
                elif kind == "timeout":
                    state[me] = "timer"
                    yield sim.timeout(args[0])
                elif kind == "call":
                    sim.call_in(args[0], lambda i=i: trace.append(
                        (sim.now, me, i, "call")))
                elif kind == "interrupt":
                    other = args[0]
                    if other != me and state[other] in ("timer", "join") \
                            and procs[other].is_alive:
                        state[other] = "poked"
                        procs[other].interrupt(i)
                elif kind == "wake_at":
                    other = args[0]
                    if other != me and state[other] == "timer" \
                            and procs[other].is_alive:
                        procs[other].wake_at(sim.now + args[1])
                elif args[0] != me:  # join
                    state[me] = "join"
                    yield procs[args[0]]
            except Interrupt as exc:
                trace.append((sim.now, me, i, "interrupt", exc.cause))
            except Exception as exc:
                trace.append((sim.now, me, i, type(exc).__name__))
            state[me] = "running"
            trace.append((sim.now, me, i))
        return me

    for me, steps in enumerate(prog):
        procs.append(sim.process(body(me, steps), name=f"p{me}"))
    sim.run()
    return trace, sim._m_events.value, sim.now


class TestSleepIsATimeout:
    @given(program)
    @settings(max_examples=300, deadline=None)
    def test_yield_seconds_is_yield_timeout(self, prog):
        assert _run(prog, private=True) == _run(prog, private=False)

    def test_law_sees_interrupts_and_wake_at_cuts(self):
        """A hand-made program of the shapes the law exists for: a sleep
        cut short (both ways) and slept again while its dead entry is
        still on the calendar."""
        prog = [
            [("sleep", 2.5), ("sleep", 2.5), ("sleep", 1.0)],
            [("sleep", 0.1), ("interrupt", 0), ("sleep", 0.3),
             ("wake_at", 0, 0.1)],
            [("join", 0), ("sleep", 0), ("timeout", 0.0)],
        ]
        trace, events, _ = _run(prog, private=True)
        assert (trace, events) == _run(prog, private=False)[:2]
        assert trace[:4] == [(0.1, 1, 0), (0.1, 1, 1),
                             (0.1, 0, 0, "interrupt", 1), (0.1, 0, 0)]
        assert (0.5, 0, 1) in trace  # cut from 2.6 to 0.4 + 0.1


class TestRecordReuse:
    def test_interrupted_sleep_then_sleep_again(self):
        sim = Simulator()
        woke = []

        def sleeper():
            try:
                yield 5.0
            except Interrupt:
                woke.append(("interrupt", sim.now))
            yield 10.0
            woke.append(sim.now)
            yield 10.0  # the first record is done with: reused here
            woke.append(sim.now)

        p = sim.process(sleeper())
        sim.call_in(1.0, p.interrupt)
        sim.run()
        # the dead entry at t=5 resumed nobody
        assert woke == [("interrupt", 1.0), 11.0, 21.0]
        # boot, call, interrupt, the dead entry, two sleeps, the end
        assert sim._m_events.value == 7

    def test_wake_at_on_a_sleep_then_sleep_again(self):
        sim = Simulator()
        woke = []

        def sleeper():
            woke.append((yield 5.0))
            woke.append(sim.now)
            yield 10.0
            woke.append(sim.now)

        p = sim.process(sleeper())
        sim.call_in(1.0, p.wake_at, 2.0)
        sim.run()
        assert woke == [None, 2.0, 12.0]
        # boot, call, the early wake-up, the second sleep, the end: the
        # cancelled entry at t=5 is not an event
        assert sim._m_events.value == 5


def _after(delay, private):
    sim = Simulator()

    def proc():
        got = yield (delay if private else sim.timeout(delay))
        return got, sim.now

    return sim.run_process(proc())


class TestDelays:
    @pytest.mark.parametrize("delay", [3, np.float64(0.25), 0, 0.0,
                                       math.inf])
    def test_accepted_delays_behave_as_timeout(self, delay):
        got, now = _after(delay, private=True)
        assert (got, now) == _after(delay, private=False)
        assert got is None and type(now) is float

    def test_bool_is_not_a_delay(self):
        sim = Simulator()

        def proc():
            yield True

        p = sim.process(proc())
        sim.run()
        assert not p.ok and isinstance(p._value, SimulationError)

    @pytest.mark.parametrize("bad", [-1.0, -1, math.nan, np.float64(-0.5)])
    def test_bad_delay_raises_inside_the_process(self, bad):
        sim = Simulator()

        def proc():
            try:
                yield bad
            except ValueError as exc:
                assert "timeout delay must be >= 0" in str(exc)
            yield 1.0
            return sim.now

        assert sim.run_process(proc()) == 1.0
        with pytest.raises(ValueError):
            sim.timeout(bad)
