"""The system threads' wall: every observable where the wake-up events
put it.

A system thread with nothing to do used to wait on a kernel ``Event``
that whoever gave it work had to ``succeed``: ``sendsig`` for the send
thread, ``recvsig`` + ``arrival`` joined by an ``AnyOf`` for the receive
thread, ``ec-signal`` / ``fc-credit-signal`` / ``fc-rate-signal`` for
the error- and flow-control threads.  Each wake-up cost two to four
calendar entries that no model term accounts for.  Now such a thread
*parks* (``ctx.park()``) and is made runnable on the spot
(``MtsScheduler.signal``; ARCHITECTURE.md, "What may go on the
calendar", fifth class).  Nothing a model can observe may move.

``direct_signals_parent.json`` holds what commit ``d739dd9`` — the last
one with those events — produced for every cell below: the makespan
(``repr``), the thread switches of every process, every slice
``(instant, thread)`` of two schedulers, every application-level
delivery in order, and digests of the final metrics snapshot minus the
odometers (``mts.slice_seconds`` is digested on its own so the one cell
below can name what differs in it).  ``events`` is the odometer, kept
for the record and never compared.  A cell that raised at the parent
must raise the same message.

Provenance: captured at ``d739dd9``, with the ``digest`` of the three
``niccoll-*`` cells re-encoded at ``efd8f2b`` (the
``collective.latency_s`` label fix), so a capture at ``d739dd9``
differs from the golden in those three digests.

The one tie that moved is in here as its own regression test
(:data:`TIE_CELL`): a signal raised from *outside* the
scheduler at the very instant one of its slices ends used to reach the
woken thread one hop too late for the pick that follows, and now makes
it.  On the 8×4 ring with zero-byte messages the 8 µs receive copy
equals the inter-arrival gap, so one arrival at pid 21 finds
``sys-recv`` where the parent found it a pick later: one extra
zero-length ``sys-recv`` slice (it looks, finds no posted receive,
parks), and nothing else.

:func:`run_cell` and :func:`pin` take any cells mapping; the
``transport_chain`` wall plays its own cells through them.
"""

import json

import pytest

from repro.config import (build_cluster, build_runtime, loads_scenario,
                          run_scenario)
from repro.core.mps import group
from repro.obs import counter_total

from .harness import (ODOMETERS, Wall, assert_same, digest, pin_log,
                      strip_odometers, tap_slices)

SLICES = "mts.slice_seconds"
SEED = 7
ROUNDS = 2

TIE_CELL = "ring-8x4-hsm-none-none-a2a-0B"
TIE_PID = 21
TIE_INSTANT = 0.0028910793650793643

_FLOWS = {"none": {},
          "window": {"flow": "window", "flow_kwargs": {"window_bytes": 4096}},
          "rate": {"flow": "rate", "flow_kwargs": {"rate_bytes_s": 2e5,
                                                   "bucket_bytes": 2048}}}
_ERRORS = {"none": {}, "ack": {"error": "ack"},
           "adaptive": {"error": "adaptive"}}

#: cell -> (cluster table, runtime table, faults table, workload, bytes,
#: traced pids)
CELLS: dict = {}


def _cell(prefix, cluster, n, mode, error, flow, workload, nbytes,
          faults=None, traced=None, **runtime):
    name = f"{prefix}-{mode}-{error}-{flow}-{workload}-{nbytes}B"
    assert name not in CELLS, name
    CELLS[name] = (cluster, {"mode": mode, **_ERRORS[error], **_FLOWS[flow],
                             **runtime},
                   faults, workload, nbytes, traced or (0, n - 1))


def _ring(sites, per_site, error, workload, nbytes, prefix="ring", **kw):
    _cell(f"{prefix}-{sites}x{per_site}",
          {"topology": "wan-ring",
           "options": {"n_sites": sites, "hosts_per_site": per_site}},
          sites * per_site, "hsm", error, "none", workload, nbytes, **kw)


def _lan(n, mode, error, flow, workload, nbytes, prefix="lan", **kw):
    _cell(f"{prefix}-{n}", {"topology": "atm-lan", "n_hosts": n}, n, mode,
          error, flow, workload, nbytes, **kw)


def _eth(n, mode, error, workload, nbytes):
    _cell(f"eth-{n}", {"topology": "ethernet", "n_hosts": n}, n, mode,
          error, "none", workload, nbytes)


# the WAN ring over HSM: odd shapes, zero-byte and multi-burst messages;
# the three biggest fan-ins drop bursts with no error control and end in
# ROADMAP item 1's deadlock — before and after, with the same message
_ring(2, 1, "none", "a2a", 0)
_ring(2, 1, "ack", "a2a", 1024)
_ring(3, 2, "none", "a2a", 64)
_ring(3, 2, "ack", "a2a", 9000)
_ring(3, 2, "none", "a2a", 40000)
_ring(2, 3, "none", "pingpong", 1024)
_ring(4, 2, "ack", "ring", 1024)
_ring(4, 5, "ack", "a2a", 64)
_ring(4, 5, "none", "a2a", 9000)
_ring(5, 3, "none", "a2a", 40000)
_ring(8, 4, "none", "a2a", 0, traced=(0, TIE_PID))
_ring(8, 4, "none", "a2a", 1024, traced=(0, TIE_PID))
_ring(8, 4, "none", "a2a", 9000, traced=(0, TIE_PID))
# the ATM LAN: every transport x error control x flow control once, host
# counts, workloads and sizes (0 B ... ten windows) cycling through them
_LAN_HOSTS = (3, 2, 7)
_LAN_BYTES = (1024, 0, 9000, 64, 40000)
for _i, (_mode, _error, _flow) in enumerate(
        (m, e, f) for m in ("nsm", "hsm", "p4")
        for e in ("none", "ack", "adaptive")
        for f in ("none", "window", "rate")):
    _lan(_LAN_HOSTS[_i % 3], _mode, _error, _flow,
         ("a2a", "pingpong")[_i % 2], _LAN_BYTES[_i % 5])
_lan(16, "hsm", "ack", "window", "a2a", 1024)
_lan(16, "nsm", "none", "none", "pingpong", 9000)
# the Ethernet: all-to-all and ring-with-barrier
_eth(2, "nsm", "none", "a2a", 256)
_eth(4, "nsm", "ack", "ring", 1500)
_eth(6, "nsm", "none", "ring", 64)
_eth(6, "p4", "none", "a2a", 0)
_eth(4, "p4", "ack", "ring", 4096)
_eth(2, "p4", "ack", "pingpong", 9000)
# both collective strategies (barrier + bcast + reduce)
for _n, _mode, _strategy in ((4, "nsm", "host"), (4, "hsm", "nic"),
                             (17, "nsm", "nic"), (17, "hsm", "host"),
                             (64, "nsm", "nic"), (64, "nsm", "host")):
    _lan(_n, _mode, "none", "none", "coll", 1024, prefix=f"{_strategy}coll",
         collectives=_strategy)
# chaos rings: outages, BER spikes, crashes, stalls and message loss
# under error control
for _plan, _mode in ((117, "hsm"), (112, "nsm"), (129, "p4"), (122, "hsm")):
    _lan(4, _mode, "ack", "none", "ring", 2048, prefix=f"chaos{_plan}",
         faults={"random": {"seed": _plan, "n_hosts": 4, "t_max": 0.012,
                            "n_events": 5}})
# one ring on the sharded kernel (no taps reach its workers: outcome only)
_ring(4, 2, "none", "a2a", 1024, prefix="shards2", shards=2,
      kernel="sharded")


# ---------------------------------------------------------------- workloads
def _a2a(rt, n, nbytes, deliveries):
    def body(ctx, pid):
        for r in range(ROUNDS):
            for peer in range(n):
                if peer != pid:
                    yield ctx.send(-1, peer, (pid, r), nbytes, tag=100 + r)
            for _ in range(n - 1):
                m = yield ctx.recv(tag=100 + r)
                deliveries[pid].append([ctx.now, m.from_process, r])
        yield ctx.barrier(0)
    for pid in range(n):
        rt.t_create(pid, body, (pid,), name=f"a2a{pid}")


def _pingpong(rt, n, nbytes, deliveries):
    """Every host pings its right neighbour and answers its left one:
    two user threads per process, wildcard receives told apart by tag."""
    def ping(ctx, pid):
        for i in range(3 * ROUNDS):
            yield ctx.send(-1, (pid + 1) % n, i, nbytes, tag=1)
            m = yield ctx.recv(tag=2)
            deliveries[pid].append([ctx.now, m.from_process, "pong", m.data])

    def pong(ctx, pid):
        for _ in range(3 * ROUNDS):
            m = yield ctx.recv(tag=1)
            deliveries[pid].append([ctx.now, m.from_process, "ping", m.data])
            yield ctx.send(m.from_thread, m.from_process, m.data, nbytes,
                           tag=2)
    for pid in range(n):
        rt.t_create(pid, pong, (pid,), name=f"pong{pid}")
        rt.t_create(pid, ping, (pid,), name=f"ping{pid}")


def _ring_barrier(rt, n, nbytes, deliveries):
    def body(ctx, pid):
        for r in range(ROUNDS):
            yield ctx.send(-1, (pid + 1) % n, (pid, r), nbytes, tag=10 + r)
            m = yield ctx.recv(from_process=(pid - 1) % n, tag=10 + r)
            deliveries[pid].append([ctx.now, m.from_process, list(m.data)])
            yield ctx.barrier(0)
    for pid in range(n):
        rt.t_create(pid, body, (pid,), name=f"ring{pid}")


def _coll(rt, n, nbytes, deliveries):
    tids: list = []

    def body(ctx, pid):
        members = [(tids[i], i) for i in range(n)]
        for r in range(ROUNDS):
            yield ctx.barrier(0)
            if pid == 0:
                yield from group.bcast(ctx, members, r, nbytes, tag=20 + r)
            else:
                m = yield ctx.recv(from_process=0, tag=20 + r)
                deliveries[pid].append([ctx.now, m.from_process, m.data])
            total = yield from group.reduce(
                ctx, members[0], members, pid + 1, 64, lambda a, b: a + b)
            if pid == 0:
                deliveries[0].append([ctx.now, "sum", total])
    for pid in range(n):
        tids.append(rt.t_create(pid, body, (pid,), name=f"coll{pid}"))


WORKLOADS = {"a2a": _a2a, "pingpong": _pingpong, "ring": _ring_barrier,
             "coll": _coll}
#: the registered driver the sharded cell runs instead
SHARDED_DRIVERS = {"a2a": "alltoall"}


# -------------------------------------------------------------------- cells
#: totals kept in the clear: they say what a cell exercised
TOTALS = ("mps.data_received", "ec.retransmissions", "fc.send_stalls",
          "mps.messages_faulted", "atm.bursts_dropped")


def _outcome(outcome, snapshot):
    """What every cell pins: how the run ended and its final metrics;
    ``events`` is the odometer, kept for the record and never compared.
    The sharded kernel's ``kernel.*`` stamps say how it ran, not what
    the model did, and are dropped as ``behavior_snapshot`` drops them."""
    events = counter_total(strip_odometers(snapshot), ODOMETERS[0])
    for key in [key for key in snapshot if key.startswith("kernel.")]:
        snapshot.pop(key)
    slice_seconds = snapshot.pop(SLICES, {})
    return {**outcome, "events": events,
            "switches": snapshot.get("mts.context_switches", {}),
            "totals": {key: counter_total(snapshot, key) for key in TOTALS},
            "slice_seconds": slice_seconds, "digest": digest(snapshot)}


def run_cell(name, cells=CELLS, prepare=None):
    """Play one cell of ``cells``; returns everything the parent file
    pins about it.  A run that does not end is pinned too, with its
    message.  A cell's workload is a :data:`WORKLOADS` name or the
    workload function itself; ``prepare(cluster)`` runs between building
    the cluster and building the runtime on it."""
    cluster_table, runtime, faults, workload, nbytes, traced = cells[name]
    doc = {"name": name, "cluster": {**cluster_table, "seed": SEED},
           "runtime": runtime}
    if faults is not None:
        doc["faults"] = faults
    if runtime.get("kernel") == "sharded":
        doc["app"] = {"driver": SHARDED_DRIVERS[workload],
                      "params": {"rounds": ROUNDS, "nbytes": nbytes}}
        result = run_scenario(loads_scenario(json.dumps(doc), "json"))
        return _outcome({"makespan": repr(result.value["makespan_s"])},
                        result.cluster.metrics.snapshot())
    spec = loads_scenario(json.dumps(doc), "json")
    cluster = build_cluster(spec.cluster, spec.obs)
    if prepare is not None:
        prepare(cluster)
    cluster, rt = build_runtime(spec, cluster)
    n = cluster.n_hosts
    rt.register_barrier(0, n)
    deliveries = {pid: [] for pid in range(n)}
    slices = {pid: [] for pid in traced}
    for pid, log in slices.items():
        tap_slices(rt.nodes[pid].scheduler, log)
    play = WORKLOADS[workload] if isinstance(workload, str) else workload
    play(rt, n, nbytes, deliveries)
    try:
        outcome = {"makespan": repr(rt.run(max_events=2_000_000))}
    except Exception as exc:
        outcome = {"raised": f"{type(exc).__name__}: {exc}"[:120],
                   "stopped_at": repr(cluster.sim.now)}
    out = _outcome(outcome, cluster.metrics.snapshot())
    out["slices"] = {str(pid): log for pid, log in slices.items()}
    out["deliveries"] = {str(pid): rows for pid, rows in deliveries.items()}
    return out


def pin(name, result):
    """``result`` with its logs reduced to their length, a digest and a
    few evenly spaced rows; the tie cell keeps the slices and the slice
    histogram of the one process it is about in the clear."""
    out = dict(result)
    slice_seconds = out.pop("slice_seconds")
    if name == TIE_CELL:
        out["slice_seconds_tie"] = slice_seconds.pop(f"pid={TIE_PID}")
    out["slice_seconds"] = digest(slice_seconds)
    if "slices" in out:
        out["slices"] = {
            pid: rows if (name, pid) == (TIE_CELL, str(TIE_PID))
            else pin_log(rows, 6) for pid, rows in out["slices"].items()}
        out["deliveries"] = pin_log(
            [[int(pid), *row] for pid, rows in out["deliveries"].items()
             for row in rows], 6)
    return json.loads(json.dumps(out))


WALL = Wall("direct_signals", "d739dd9", lambda: {
    "cells": {name: pin(name, run_cell(name)) for name in CELLS}},
    ties=(TIE_CELL,))


# -------------------------------------------------------------------- tests
def _compared(doc):
    return {key: value for key, value in doc.items() if key != "events"}


@pytest.mark.parametrize("name", WALL.compared(CELLS))
def test_every_observable_is_where_it_was(name):
    assert_same(pin(name, run_cell(name)), WALL.parent()["cells"][name],
                coarse=("raised", "makespan", "switches", "totals"),
                ignore=("events",))


def test_the_one_tie_that_moved():
    """An arrival at the instant a slice ends now makes the next pick:
    one extra zero-length ``sys-recv`` slice on one process, nothing
    else — not the makespan, a switch, a delivery or any other series."""
    want = _compared(WALL.parent()["cells"][TIE_CELL])
    got = _compared(pin(TIE_CELL, run_cell(TIE_CELL)))
    slices, was = (doc["slices"].pop(str(TIE_PID)) for doc in (got, want))
    at = next(i for i, row in enumerate(slices)
              if i == len(was) or row != was[i])
    assert slices[at] == [TIE_INSTANT, "sys-recv"]
    assert slices[:at] + slices[at + 1:] == was
    # ... it follows a slice of the same thread (the receive copy that
    # ends at that instant), so no switch is charged, and ran for 0 s:
    # the histogram gains one observation in its lowest bucket, no time
    assert slices[at - 1][1] == "sys-recv"
    hist, hist_was = (doc.pop("slice_seconds_tie") for doc in (got, want))
    lowest = next(iter(hist["buckets"]))
    assert hist.pop("count") == hist_was.pop("count") + 1
    assert hist["buckets"].pop(lowest) == hist_was["buckets"].pop(lowest) + 1
    assert hist == hist_was
    # every other process's slices and series among the rest
    assert got == want


def test_cells_exercise_what_they_claim():
    """Guards the matrix, not the model: every transport, error control,
    flow control and collective strategy is in it, flow control stalls,
    error control retransmits and faults destroy messages somewhere, and
    the cells that do not end are the fan-in deadlocks of ROADMAP item 1
    (bursts dropped with nothing to recover them)."""
    parent = WALL.parent()["cells"]
    assert set(parent) == set(CELLS)
    seen = {(rt["mode"], rt.get("error", "none"), rt.get("flow", "none"))
            for _cluster, rt, *_rest in CELLS.values()}
    assert {(m, e, f) for m in ("nsm", "hsm", "p4")
            for e in ("none", "ack", "adaptive")
            for f in ("none", "window", "rate")} <= seen
    assert {rt.get("collectives") for _cluster, rt, *_rest
            in CELLS.values()} == {None, "host", "nic"}
    for name, doc in parent.items():
        assert doc["totals"]["mps.data_received"] > 0, name
    for total in ("ec.retransmissions", "fc.send_stalls",
                  "mps.messages_faulted"):
        assert sum(1 for doc in parent.values()
                   if doc["totals"][total] > 0) >= 3, total
    raised = {name: doc for name, doc in parent.items() if "raised" in doc}
    assert sorted(raised) == ["ring-4x5-hsm-none-none-a2a-9000B",
                              "ring-5x3-hsm-none-none-a2a-40000B",
                              "ring-8x4-hsm-none-none-a2a-9000B"]
    for doc in raised.values():
        assert doc["raised"].startswith(
            "SimulationError: deadlock: schedulers never finished")
        assert doc["totals"]["atm.bursts_dropped"] > 0
    # the smallest reproducer of that deadlock found so far: 15 hosts
    find = parent["ring-5x3-hsm-none-none-a2a-40000B"]
    assert (find["events"], find["totals"]["atm.bursts_dropped"],
            find["totals"]["mps.data_received"]) == (11160, 310, 142)
