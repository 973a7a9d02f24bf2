"""The Chrome-trace exporter's wall: the file Perfetto loads, as it was.

``chrome_export_parent.json`` is the file
:func:`~repro.obs.export_chrome_trace` wrote at ``e134b39``, the commit
that added it, for :func:`golden_tracer`: one host with a CPU track and
a worker thread, an NCS point event and a fault window.  It pins the
export format (track mapping, metadata events, units), so a trace that
chrome://tracing and Perfetto already load keeps loading.  The golden is
the file alone: it carries no commit.

Provenance: capturing at today's code reproduces it byte for byte.
"""

import json
import tempfile
from pathlib import Path

from repro.obs import NULL_REGISTRY, export_chrome_trace
from repro.sim import Activity, Simulator, Tracer

from .harness import Wall, assert_same


def golden_tracer():
    """A tiny deterministic run: one host with a CPU track and a worker
    thread, an NCS point event, and a fault window."""
    sim = Simulator(metrics=NULL_REGISTRY)
    tr = Tracer(sim)
    sim.call_at(0.0, lambda: tr.begin("n0", Activity.COMPUTE, "dct"))
    sim.call_at(0.0, lambda: tr.begin("n0/worker-1", Activity.IDLE))
    sim.call_at(0.0005, lambda: tr.point("ncs:0", "send",
                                         {"to": 1, "bytes": 1024}))
    sim.call_at(0.001, lambda: tr.end("n0"))
    sim.call_at(0.001, lambda: tr.begin("n0", Activity.COMMUNICATE, "send"))
    sim.call_at(0.0015, lambda: tr.begin("fault:0", Activity.FAULT,
                                         "link outage n0"))
    sim.call_at(0.002, lambda: tr.end("n0"))
    sim.call_at(0.002, lambda: tr.end("n0/worker-1"))
    sim.call_at(0.002, lambda: tr.end("fault:0"))
    sim.run()
    return tr


def capture() -> dict:
    """The file ``export_chrome_trace`` writes for the golden tracer."""
    with tempfile.TemporaryDirectory() as tmp:
        path = export_chrome_trace(golden_tracer(), Path(tmp) / "trace.json")
        return json.loads(path.read_text())


WALL = Wall("chrome_export", "e134b39", capture, stamped=False,
            dump={"indent": 1})


# -------------------------------------------------------------------- tests
def test_the_exported_file_is_the_parent_file():
    assert_same(capture(), WALL.parent(), rows=("traceEvents",))
