"""The host CPU model against the per-quantum loop it replaced.

The ``cpu_quanta`` wall lives in ``tests/walls/cpu_quanta.py``; its
tests are collected here, beside the laws of the hold that replaced the
loop.
"""

import pytest

from repro.hosts import Host
from repro.sim import Activity, Simulator
from tests.walls.cpu_quanta import (  # noqa: F401
    TestAgainstThePerQuantumLoop, TestCost, boundaries)


class TestFreeze:
    def test_freeze_mid_hold_stalls_at_the_next_boundary(self):
        sim = Simulator()
        host = Host(sim, "h0")
        q = host.compute_quantum
        edge = boundaries(0.0, 10 * q, q, 10)
        seen = {}

        def computer():
            yield from host.cpu_busy(10 * q)
            seen["end"] = sim.now

        def probe():
            seen["holder"] = host.cpu_res.in_use
            seen["frozen"] = host.frozen

        sim.process(computer())
        sim.call_in(3.5 * q, host.freeze)
        sim.call_in(5.0 * q, probe)
        sim.call_in(7.25 * q, host.unfreeze)
        sim.run(until=3.6 * q)
        # the timer that was set past boundary 4 has been pulled in to it
        assert sim.peek() == edge[3]
        sim.run()
        assert seen["holder"] == 0 and seen["frozen"]
        # stalled at boundary 4 with six quanta owed, resumed at 7.25 q
        left = 10 * q
        for _ in range(4):
            left -= min(q, left)
        assert seen["end"] == boundaries(7.25 * q, left, q, 7)[-1]

    def test_freeze_and_thaw_inside_one_quantum_change_nothing(self):
        def end(freeze):
            sim = Simulator()
            host = Host(sim, "h0")
            out = []

            def computer():
                yield from host.cpu_busy(0.0205)
                out.append(sim.now)

            sim.process(computer())
            if freeze:
                sim.call_in(0.0101, host.freeze)
                sim.call_in(0.0102, host.unfreeze)
            sim.run()
            return out[0]

        assert end(freeze=True) == end(freeze=False)


class TestSupersededTimer:
    def test_old_timer_resumes_nobody_and_is_invisible(self):
        sim = Simulator()
        host = Host(sim, "h0")
        q = host.compute_quantum
        log = []

        def computer():
            yield from host.cpu_busy(100 * q)
            log.append(("compute-done", sim.now))

        def contender():
            yield sim.timeout(20.5 * q)
            yield from host.cpu_busy(0.1 * q, Activity.OVERHEAD)
            log.append(("burst-done", sim.now))

        proc = sim.process(computer(), name="computer")
        sim.process(contender())
        sim.run(until=20.4 * q)
        # undisturbed so far: timers 1, 2, 4, 8, 16 quanta long
        far = boundaries(0.0, 100 * q, q, 31)[-1]
        assert sim.peek() == 20.5 * q
        assert sorted(t for t, _, _ in sim._heap) == [20.5 * q, far]
        sim.run(until=20.6 * q)
        # cut to boundary 21; the timer at boundary 31 is dead
        cut = boundaries(0.0, 100 * q, q, 21)[-1]
        assert sim.peek() == cut
        sim.run(until=29 * q)
        assert log == [("burst-done", cut + 0.1 * q)]
        # back on the CPU since then, the compute sleeps on fresh timers
        # (1, 2, 4 quanta; the 8-quanta one is pending): nothing live is
        # due at the dead timer's instant, and the calendar agrees
        assert proc.is_alive
        assert sim.peek() == boundaries(cut + 0.1 * q, 79 * q, q, 15)[-1] > far
        before = sim.metrics.value("sim.events_processed")
        sim.run(until=far + 0.5 * q)
        assert sim.metrics.value("sim.events_processed") == before
        assert sim.now == far + 0.5 * q
        sim.run()
        assert log[-1][0] == "compute-done"
        assert sim.now == log[-1][1]


def test_tie_rule():
    """Asking for the CPU at the very instant of a quantum boundary is
    asking too late for that boundary — whether or not a timer of the
    hold happens to fire there, and whichever of the two the calendar
    runs first."""
    for k in (1, 2, 3, 4, 7, 8):  # 1, 3, 7: the hold's own timers
        sim = Simulator()
        host = Host(sim, "h0")
        q = host.compute_quantum
        edge = boundaries(0.0, 12 * q, q, 12)
        granted = []

        def computer():
            yield from host.cpu_busy(12 * q)

        def contender():
            # on the calendar since t=0: ahead of anything the hold
            # schedules later
            yield sim.at(edge[k - 1])
            req = host.cpu_res.request()
            yield req
            granted.append(sim.now)
            host.cpu_res.release()

        sim.process(contender())
        sim.process(computer())
        sim.run()
        assert granted == [edge[k]], k


class TestComputeQuantumIsValidated:
    def test_rejects_what_would_hang(self):
        host = Host(Simulator(), "h7")
        for bad in (0, 0.0, -1e-3, float("nan"), float("inf"), "1ms"):
            with pytest.raises(ValueError, match="h7.*compute_quantum"):
                host.compute_quantum = bad
        assert host.compute_quantum == 1e-3

    def test_accepts_none_and_positive(self):
        host = Host(Simulator(), "h0")
        host.compute_quantum = None
        assert host.compute_quantum is None
        host.compute_quantum = 2.5e-3
        assert host.compute_quantum == 2.5e-3
