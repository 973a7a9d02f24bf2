"""Tests for the tracing (Fig 4/16 data source) and RNG substreams."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sim import (
    Activity, Interval, NullTracer, RngRegistry, Simulator, Timeline, Tracer,
)

SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture
def sim():
    return Simulator()


class TestTimeline:
    def test_begin_end_records_interval(self):
        tl = Timeline("x")
        tl.begin(1.0, Activity.COMPUTE, "work")
        tl.end(3.0)
        assert tl.intervals == [Interval(1.0, 3.0, Activity.COMPUTE, "work")]

    def test_begin_closes_previous(self):
        tl = Timeline("x")
        tl.begin(0.0, Activity.COMPUTE)
        tl.begin(2.0, Activity.COMMUNICATE)
        tl.end(5.0)
        assert [iv.activity for iv in tl.intervals] == [
            Activity.COMPUTE, Activity.COMMUNICATE]
        assert tl.intervals[0].end == 2.0

    def test_zero_length_interval_dropped(self):
        tl = Timeline("x")
        tl.begin(1.0, Activity.COMPUTE)
        tl.end(1.0)
        assert tl.intervals == []

    def test_totals_and_fractions(self):
        tl = Timeline("x")
        tl.begin(0.0, Activity.COMPUTE)
        tl.begin(4.0, Activity.IDLE)
        tl.end(10.0)
        assert tl.total(Activity.COMPUTE) == pytest.approx(4.0)
        assert tl.busy_fraction(Activity.COMPUTE, horizon=10.0) == \
            pytest.approx(0.4)

    def test_gantt_rows(self):
        tl = Timeline("x")
        tl.begin(0.0, Activity.COMPUTE, "a")
        tl.end(1.0)
        assert tl.gantt_row() == [(0.0, 1.0, "compute", "a")]


class TestTracer:
    def test_records_against_sim_clock(self, sim):
        tracer = Tracer(sim)
        def proc():
            tracer.begin("cpu", Activity.COMPUTE)
            yield sim.timeout(2.0)
            tracer.end("cpu")
            tracer.point("cpu", "milestone", {"k": 1})
        sim.run_process(proc())
        assert tracer.timeline("cpu").total(Activity.COMPUTE) == 2.0
        assert tracer.points(kind="milestone")[0][0] == 2.0

    def test_utilization_report(self, sim):
        tracer = Tracer(sim)
        def proc():
            tracer.begin("h", Activity.COMPUTE)
            yield sim.timeout(3.0)
            tracer.begin("h", Activity.IDLE)
            yield sim.timeout(1.0)
            tracer.end("h")
        sim.run_process(proc())
        rep = tracer.utilization_report()
        assert rep["h"]["compute"] == pytest.approx(0.75)
        assert rep["h"]["idle"] == pytest.approx(0.25)

    def test_null_tracer_records_nothing(self, sim):
        tracer = NullTracer(sim)
        tracer.begin("h", Activity.COMPUTE)
        tracer.point("h", "x")
        tracer.end("h")
        assert tracer.timelines == {} or not tracer.timelines.get(
            "h", Timeline("h")).intervals
        assert tracer.events == []

    def test_close_all(self, sim):
        tracer = Tracer(sim)
        def proc():
            tracer.begin("a", Activity.COMPUTE)
            tracer.begin("b", Activity.COMMUNICATE)
            yield sim.timeout(1.5)
        sim.run_process(proc())
        tracer.close_all()
        assert tracer.timeline("a").total(Activity.COMPUTE) == 1.5
        assert tracer.timeline("b").total(Activity.COMMUNICATE) == 1.5


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        r = RngRegistry(1)
        assert r.stream("a") is r.stream("a")

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(42)
        a_first = r1.stream("a").random(5)
        r2 = RngRegistry(42)
        r2.stream("b")          # create b first this time
        a_second = r2.stream("a").random(5)
        assert np.allclose(a_first, a_second)

    def test_different_names_differ(self):
        r = RngRegistry(7)
        assert not np.allclose(r.stream("x").random(8),
                               r.stream("y").random(8))

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("s").random(8)
        b = RngRegistry(2).stream("s").random(8)
        assert not np.allclose(a, b)

    def test_reset(self):
        r = RngRegistry(3)
        first = r.stream("z").random(4)
        r.reset()
        again = r.stream("z").random(4)
        assert np.allclose(first, again)


class TestLazyStreams:
    """A stream builds its generator at its first draw, from ``(root
    seed, name)`` alone: creation and draw order change no value."""

    #: draws captured from the eager registry (one generator built per
    #: ``stream()`` call): random(), integers(0, 1024), random()
    EAGER = {
        "faults.msgloss.3": (0.7580022891711851, 133, 0.6966928519495739),
        "ethernet.backoff": (0.46507544690661706, 285, 0.5594135609774136),
        "link.n0": (0.474589023192426, 415, 0.6485718136454623),
    }

    def test_draws_equal_the_eager_registry_whatever_the_order(self):
        r = RngRegistry(1995)
        for name in reversed(self.EAGER):      # create in one order ...
            r.stream(name)
        for name, want in self.EAGER.items():  # ... draw in the other
            g = r.stream(name)
            assert (g.random(), int(g.integers(0, 2 ** 10)),
                    g.random()) == want
        r = RngRegistry(7)
        assert r.stream("link.n0").random() == 0.2925567982933923
        assert r.stream("ethernet.faults").random() == 0.6010449074076202

    def test_a_drawn_stream_is_still_the_same_handle(self):
        r = RngRegistry(1)
        s = r.stream("a")
        s.random()
        assert r.stream("a") is s
        # the draw method now sits on the handle: no lookup through it
        assert vars(s)["random"].__self__ is s._gen

    def test_an_undrawn_stream_builds_nothing_and_imports_no_numpy(self):
        code = ("import sys\n"
                "from repro.sim import RngRegistry\n"
                "s = RngRegistry(3).stream('link.n0')\n"
                "print(s._gen is None, 'numpy' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True", "False"]
