"""The transport's hand-offs against the calendar events they used to be.

The ``transport_chain`` wall lives in ``tests/walls/transport_chain.py``;
its tests are collected here, beside the layer they guard.  The file
ends with two regressions: a raise inside the transport chain used to
surface as a deadlock naming the schedulers left waiting.
"""

import json

import pytest

from repro.config import build_runtime, loads_scenario
from repro.core.mps import buffers, core
from repro.sim import Activity
from tests.walls.transport_chain import (  # noqa: F401
    test_cells_exercise_what_they_claim, test_every_observable_is_where_it_was,
    test_the_one_tie_that_moved)


# -------------------------------------------------------------- regressions
def _probe_runtime():
    """The 2-host ATM LAN over HSM: 4 sends of 1 KiB, 4 receives."""
    spec = loads_scenario(json.dumps({
        "name": "probe", "cluster": {"topology": "atm-lan", "n_hosts": 2},
        "runtime": {"mode": "hsm"}}), "json")
    _cluster, rt = build_runtime(spec)

    def tx(ctx):
        for i in range(4):
            yield ctx.send(-1, 1, i, 1024)

    def rx(ctx):
        for _ in range(4):
            yield ctx.recv()
    rt.t_create(0, tx)
    rt.t_create(1, rx)
    return rt


def test_a_raise_in_the_send_path_is_raised_not_a_deadlock(monkeypatch):
    """The runner hands the exception to the waiting send thread, which
    dies of it, so ``run`` raises it before any deadlock diagnostic
    (it used to end in ``deadlock: schedulers never finished: mts:p0@n0,
    mts:p1@n1``, the error nowhere)."""
    def broken(self, vc, payload, nbytes):
        yield from self.host.cpu_busy(1e-6, Activity.OVERHEAD, "probe")
        raise RuntimeError("probe: the pipeline broke")
    monkeypatch.setattr(buffers.BufferPipeline, "pipelined_send", broken)
    rt = _probe_runtime()
    with pytest.raises(RuntimeError, match="the pipeline broke"):
        rt.run()
    send = rt.nodes[0].mps._send_thread
    assert isinstance(send.error, RuntimeError)


def test_a_raise_in_the_delivery_is_raised_not_a_deadlock(monkeypatch):
    """The adapter's delivery records the first error of a consumer and
    goes on with the next PDU; ``run`` raises it before the deadlock
    diagnostic (it used to end in ``deadlock: schedulers never finished:
    mts:p1@n1``, the error swallowed with the pump that raised it)."""
    plain = core.NcsMps._on_arrival
    seen = []

    def broken(self, msg):
        seen.append(msg.data)
        if len(seen) == 2:
            raise RuntimeError("probe: the arrival broke")
        plain(self, msg)
    monkeypatch.setattr(core.NcsMps, "_on_arrival", broken)
    rt = _probe_runtime()
    with pytest.raises(RuntimeError, match="the arrival broke"):
        rt.run()
    adapter = rt.nodes[1].mps.host.interface("atm")
    assert adapter.delivery_errors == 1
    assert str(adapter.first_delivery_error) == "probe: the arrival broke"
    assert seen == [0, 1, 2, 3]     # the drain went on with the rest
