"""The transport's wall: every observable where the hand-off events put
it.

Three hand-offs between the NCS send thread, the transport and the
receive side used to be calendar entries that resumed a coroutine: the
transport fired an ``accepted`` event that the send thread waited on,
``BufferPipeline.pipelined_send`` made a ``submitted`` event per message
that no transport held, and one pump process per circuit (``ncs-atm-pump``
on HSM circuits, ``ipoa-rx`` on classical-IP ones) only passed each
arrival on.  Now the transport calls the sender back, the adapter's
delivery calls the circuit's consumer, and the pipeline makes no event
per message (ARCHITECTURE.md, "What may go on the calendar", sixth
class).  Nothing a model can observe may move.

The ``direct_signals`` wall's 59 cells reach none of the paths this one
is about: a failover transport that detours over TCP while the ATM link
is down, error-control retransmissions that wait for acceptance, NSM
over classical IP over ATM with multi-PDU messages, the Fig 2 pipeline
with one and with four output buffers, and a 4 x 4 WAN ring.
``transport_chain_parent.json`` holds what commit ``efd8f2b`` — the last
one with those hand-offs — produced for each cell, pinned exactly as
that wall pins its cells (``run_cell`` / ``pin``), plus a few totals in
the clear that say what the cell exercised.  Provenance: capturing at
``efd8f2b`` reproduces the golden byte for byte.

One tie moved, and it is in here as its own regression test
(:data:`TIE_CELL`): a message whose DMA into host memory completes at the very instant a
thread switch of the receiving scheduler ends — and ahead of that
switch on the calendar — used to enter the mailbox one hop later, after
the thread switched to had run, and now enters it at once.  On the
4 x 4 ring, pid 0's receive thread so joins the round-robin of priority
0 ahead of the send thread that the application's next ``NCS_send``
wakes, instead of behind it: the arrival is copied out first.  Three
processes each save one thread switch, 27 of 480 deliveries come one
switch (12 us) earlier or trade places at an equal instant, and the
makespan, every total and every count of messages, bytes and cells stay
where they were.
"""

import json

import pytest

from repro.hosts import KernelBufferPool

from .direct_signals import pin, run_cell
from .harness import Wall, assert_same

FAST_EC = {"timeout_s": 0.01, "max_retries": 6, "check_interval_s": 0.002}
#: messages each streaming host sends, one every STREAM_GAP_S
STREAM_MESSAGES = 80
STREAM_GAP_S = 0.004


def _stream(rt, n, nbytes, deliveries):
    """Every host but 0 streams paced messages to host 0 for 320 ms."""
    def sink(ctx):
        for _ in range(STREAM_MESSAGES * (n - 1)):
            m = yield ctx.recv(tag=9)
            deliveries[0].append([ctx.now, m.from_process, m.data])

    def source(ctx, pid):
        for i in range(STREAM_MESSAGES):
            yield ctx.send(-1, 0, i, nbytes, tag=9)
            yield ctx.sleep(STREAM_GAP_S)

    rt.t_create(0, sink, name="sink")
    for pid in range(1, n):
        rt.t_create(pid, source, (pid,), name=f"src{pid}")


def _lan(n):
    return {"topology": "atm-lan", "n_hosts": n}


#: cell -> (cluster table, runtime table, faults table, workload, bytes,
#: traced pids), the shape of ``direct_signals.CELLS``
CELLS = {
    # host 1's ATM fiber is dark from 10 to 90 ms: its breaker trips,
    # the stream detours over TCP on the Ethernet rail and comes back
    "failover-dual-3-outage-stream-2048B": (
        {"topology": "atm-dual", "n_hosts": 3},
        {"mode": "hsm-failover", "error": "ack", "error_kwargs": FAST_EC},
        {"events": [{"kind": "link-outage", "at": 0.01, "duration": 0.08,
                     "host": 1, "scope": "atm"}]},
        _stream, 2048, (0, 1)),
    # one arrival in five lost for 50 ms: retransmissions of three-chunk
    # messages wait for the pipeline to accept them
    "loss-lan-4-hsm-ack-a2a-40000B": (
        _lan(4), {"mode": "hsm", "error": "ack", "error_kwargs": FAST_EC},
        {"events": [{"kind": "message-loss", "at": 0.0, "duration": 0.05,
                     "p": 0.2}]},
        "a2a", 40000, (0, 3)),
    # NSM on the ATM LAN is TCP over classical IP over ATM: every
    # segment is an AAL5 PDU on a Service.IP circuit
    "ipoa-lan-3-nsm-pingpong-65536B": (
        _lan(3), {"mode": "nsm"}, None, "pingpong", 65536, (0, 2)),
    # the Fig 2 pipeline, copy and transfer strictly alternating (k = 1)
    # and overlapped (k = 4)
    "pipeline-k1-lan-2-hsm-pingpong-65536B": (
        _lan(2), {"mode": "hsm"}, None, "pingpong", 65536, (0, 1)),
    "pipeline-k4-lan-2-hsm-pingpong-65536B": (
        _lan(2), {"mode": "hsm"}, None, "pingpong", 65536, (0, 1)),
    "ring-4x4-hsm-a2a-2048B": (
        {"topology": "wan-ring",
         "options": {"n_sites": 4, "hosts_per_site": 4}},
        {"mode": "hsm"}, None, "a2a", 2048, (0, 15)),
}

TIE_CELL = "ring-4x4-hsm-a2a-2048B"
TIE_PID = "0"
TIE_INSTANT = 0.001224

#: cell -> output buffers per host
BUFFERS = {"pipeline-k1-lan-2-hsm-pingpong-65536B": 1,
           "pipeline-k4-lan-2-hsm-pingpong-65536B": 4}

#: totals kept in the clear next to ``direct_signals.TOTALS``
CHAIN_TOTALS = ("transport.messages_sent", "resilience.failovers",
                "resilience.breaker_trips", "resilience.breaker_recoveries",
                "ip.packets_received", "atm.pdus_received")


def run(name):
    """``pin(name, run_cell(...))`` for one cell of this file."""
    built = {}

    def prepare(cluster):
        built["cluster"] = cluster
        count = BUFFERS.get(name)
        if count is not None:
            for pid in range(cluster.n_hosts):
                cluster.host(pid).kernel_buffers = KernelBufferPool(
                    count=count)

    result = run_cell(name, CELLS, prepare)
    if name == TIE_CELL:
        # the tie's process and every delivery in the clear
        tie_slices = result["slices"].pop(TIE_PID)
        deliveries = result["deliveries"]
    out = pin(name, result)
    if name == TIE_CELL:
        out["slices"][TIE_PID] = tie_slices
        out["deliveries"] = json.loads(json.dumps(deliveries))
    metrics = built["cluster"].metrics
    out["chain"] = {key: metrics.total(key) for key in CHAIN_TOTALS}
    return out


WALL = Wall("transport_chain", "efd8f2b", lambda: {
    "cells": {name: run(name) for name in CELLS}}, ties=(TIE_CELL,))


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("name", WALL.compared(CELLS))
def test_every_observable_is_where_it_was(name):
    assert_same(run(name), WALL.parent()["cells"][name],
                coarse=("raised", "makespan", "switches", "totals", "chain"),
                ignore=("events",))


def test_the_one_tie_that_moved():
    """A landing at the instant a thread switch of the same scheduler
    ends now makes the pick that follows: on pid 0 the receive thread
    runs before the send thread where it ran after it — and nothing else
    moves that is not a consequence of that one order."""
    want = WALL.parent()["cells"][TIE_CELL]
    got = {k: v for k, v in run(TIE_CELL).items() if k != "events"}
    for key in ("makespan", "totals", "chain"):
        assert got[key] == want[key], key
    slices, was = got["slices"].pop(TIE_PID), want["slices"][TIE_PID]
    assert {pid: rows for pid, rows in got["slices"].items()} == {
        pid: rows for pid, rows in want["slices"].items() if pid != TIE_PID}
    at = next(i for i, row in enumerate(slices) if row != was[i])
    assert slices[:at] == was[:at]
    # the application thread's slice (its send) began one switch earlier
    assert slices[at - 1][1] == "a2a0"
    assert slices[at][0] == was[at][0] == TIE_INSTANT
    assert [row[1] for row in was[at:at + 2]] == ["sys-send", "sys-recv"]
    assert [row[1] for row in slices[at:at + 2]] == ["sys-recv", "sys-send"]
    assert len(slices) == len(was)
    # one thread switch fewer on three processes, the same everywhere else
    saved = {pid: n - got["switches"][pid]
             for pid, n in want["switches"].items()
             if got["switches"][pid] != n}
    assert saved == {"pid=0": 1, "pid=1": 1, "pid=7": 1}
    # every message still delivered once, none of them later
    for pid, rows in want["deliveries"].items():
        now = got["deliveries"][pid]
        assert sorted(r[1:] for r in now) == sorted(r[1:] for r in rows)
        assert all(a <= b for a, b in zip(sorted(r[0] for r in now),
                                          sorted(r[0] for r in rows)))
    moved = sum(a != b for pid, rows in want["deliveries"].items()
                for a, b in zip(got["deliveries"][pid], rows))
    assert moved == 27


def test_cells_exercise_what_they_claim():
    """Guards the cells, not the model: each reaches the path it names
    and every run ends."""
    parent = WALL.parent()["cells"]
    assert set(parent) == set(CELLS)
    for name, doc in parent.items():
        assert "raised" not in doc, name
        assert doc["totals"]["mps.data_received"] > 0, name
    failover = parent["failover-dual-3-outage-stream-2048B"]["chain"]
    assert failover["resilience.failovers"] > 0
    assert failover["resilience.breaker_trips"] > 0
    assert failover["resilience.breaker_recoveries"] > 0
    loss = parent["loss-lan-4-hsm-ack-a2a-40000B"]["totals"]
    assert loss["ec.retransmissions"] > 0 and loss["mps.messages_faulted"] > 0
    ipoa = parent["ipoa-lan-3-nsm-pingpong-65536B"]["chain"]
    assert ipoa["ip.packets_received"] > ipoa["transport.messages_sent"]
    k1, k4 = (parent[f"pipeline-k{k}-lan-2-hsm-pingpong-65536B"]["makespan"]
              for k in (1, 4))
    assert float(k4) < float(k1)
