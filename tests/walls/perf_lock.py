"""The perf-lock walls: seven same-seed scenarios, bit for bit.

Every scenario here runs a fixed-seed simulation and returns a
JSON-serializable dict of *behavioral* fields: simulated timestamps,
payloads, per-layer metric snapshots, trace signatures and Chrome-trace
events.  Each is a wall of its own name (``kernel_timeline``, ...),
its golden ``<name>_parent.json`` beside this module.  Hot-path work
(pooling, queue restructuring, coroutine reuse, memoization) must leave
every one of these fields untouched.  "Make it faster" must never
become "make it different".

Locked: every simulated timestamp, thread/finish ordering, message
payload, makespan, per-layer metric counter (MTS switches, MPS
send/recv, ATM cells, TCP segments...), tracer timelines (via
``trace_signature``) and the exact Chrome-trace event list.  Not
locked: what :func:`~.harness.behavior_snapshot` strips, the kernel's
odometers (:data:`~.harness.ODOMETERS`), which meter how many events
and coroutines the engine used to realize the model, not the model.

Provenance: the goldens are unstamped and were last written at
``112e7fa``, which added the ``mps.delivery_latency_s`` histogram to
them; today's code reproduces each byte for byte.
"""

from __future__ import annotations

import pytest

from ..counts import count
from .harness import Wall, assert_same, behavior_snapshot, wall


# --------------------------------------------------------------- scenarios
def scenario_kernel_timeline() -> dict:
    """Pure-kernel choreography: processes, timeouts, interrupts,
    conditions, resources, stores and mailboxes, logged as an ordered
    ``(time, marker)`` transcript."""
    from repro.sim import AllOf, Interrupt, Mailbox, Resource, Simulator, Store

    sim = Simulator()
    log: list = []

    res = Resource(sim, capacity=2, name="res")
    store = Store(sim, capacity=3, name="store")
    mbox = Mailbox(sim, name="mbox")

    def worker(i, hold):
        yield res.request()
        log.append((round(sim.now, 9), f"res-acquired:{i}"))
        yield sim.timeout(hold)
        res.release()
        log.append((round(sim.now, 9), f"res-released:{i}"))
        yield store.put(("item", i))
        return i * 10

    def consumer():
        got = []
        for _ in range(4):
            item = yield store.get()
            log.append((round(sim.now, 9), f"store-got:{item[1]}"))
            got.append(item[1])
        mbox.deliver(("done", tuple(got)))
        return got

    def sleeper():
        try:
            yield sim.timeout(5.0)
        except Interrupt as i:
            log.append((round(sim.now, 9), f"interrupted:{i.cause}"))
            return "woken"

    def mailman():
        msg = yield mbox.receive(lambda m: m[0] == "done")
        log.append((round(sim.now, 9), f"mail:{msg[1]}"))

    workers = [sim.process(worker(i, 0.1 * (i + 1)), name=f"w{i}")
               for i in range(4)]
    cons = sim.process(consumer(), name="consumer")
    slp = sim.process(sleeper(), name="sleeper")
    sim.process(mailman(), name="mailman")
    sim.call_in(0.25, lambda: slp.interrupt("alarm"))
    done = AllOf(sim, workers + [cons])
    sim.run()
    return {
        "log": log,
        "end_time": round(sim.now, 9),
        "sleeper_value": slp.value,
        "worker_values": {f"w{i}": p.value for i, p in enumerate(workers)},
        "all_of_triggered": done.triggered,
    }


def scenario_mts_workload() -> dict:
    """One host, eight MTS threads mixing every scheduler op class:
    compute, yield, sleep, spawn/join, block/unblock, priorities."""
    from repro.core.mts import MtsScheduler
    from repro.hosts import Host, OsProcess
    from repro.sim import Simulator, Tracer

    sim = Simulator()
    host = Host(sim, "h0", tracer=Tracer(sim))
    sched = MtsScheduler(OsProcess(host, 0))
    log: list = []

    def compute_yield(ctx, ident, n, step):
        for k in range(n):
            yield ctx.compute(step, label=f"{ident}:{k}")
            yield ctx.yield_cpu()
        log.append((round(sim.now, 9), f"done:{ident}"))
        return ident

    def sleeper(ctx, ident, naps):
        for k in range(naps):
            yield ctx.sleep(0.003 * (k + 1))
            yield ctx.compute(0.001)
        log.append((round(sim.now, 9), f"done:{ident}"))
        return ident

    def parent(ctx):
        child = yield ctx.spawn(compute_yield, "child", 3, 0.002)
        val = yield ctx.join(child)
        log.append((round(sim.now, 9), f"joined:{val}"))
        return val

    def blocker(ctx):
        yield ctx.block()
        log.append((round(sim.now, 9), "unblocked"))
        yield ctx.compute(0.004)
        return "blocker"

    def waker(ctx, victim):
        yield ctx.compute(0.006)
        yield ctx.unblock(victim, "go")
        return "waker"

    sched.t_create(compute_yield, ("hi-a", 4, 0.002), priority=2)
    sched.t_create(compute_yield, ("hi-b", 4, 0.002), priority=2)
    sched.t_create(compute_yield, ("lo", 3, 0.005), priority=9)
    sched.t_create(sleeper, ("nap", 3), priority=5)
    sched.t_create(parent, (), priority=4)
    victim = sched.t_create(blocker, (), priority=3)
    sched.t_create(waker, (victim,), priority=3)
    done = sched.start()
    sim.run(max_events=500_000)
    host.tracer.close_all()
    util = host.tracer.utilization_report()
    return {
        "log": log,
        "end_time": round(sim.now, 9),
        "done": done.triggered,
        "context_switches": count(sim.metrics, "mts.context_switches",
                                  pid=0),
        "utilization": {k: {a: round(v, 12) for a, v in d.items()}
                        for k, d in sorted(util.items())},
        "metrics": behavior_snapshot(sim.metrics),
    }


def scenario_pingpong_ethernet() -> dict:
    """The full MPS send/recv path over simulated Ethernet (TCP/IP)."""
    from repro.core import NcsRuntime
    from repro.net import build_ethernet_cluster

    cluster = build_ethernet_cluster(2)
    rt = NcsRuntime(cluster)
    replies = []

    def pong(ctx):
        for _ in range(30):
            m = yield ctx.recv(tag=1)
            yield ctx.send(m.from_thread, m.from_process,
                           ("pong", m.data[1]), 2048, tag=2)

    def ping(ctx, peer):
        for i in range(30):
            yield ctx.send(peer, 1, ("ping", i), 2048, tag=1)
            r = yield ctx.recv(tag=2)
            replies.append(r.data[1])

    peer = rt.t_create(1, pong, name="pong")
    rt.t_create(0, ping, (peer,), name="ping")
    makespan = rt.run()
    return {
        "makespan_s": round(makespan, 9),
        "replies": replies,
        "metrics": behavior_snapshot(cluster.metrics),
    }


def scenario_ring_atm_hsm() -> dict:
    """Ring exchange + barrier over the ATM fabric in HSM mode with ACK
    error control — the deepest NCS datapath (buffers, SAR, switch)."""
    from repro import NcsRuntime, ServiceMode, build_atm_cluster
    from repro.faults import trace_signature

    cluster = build_atm_cluster(3, trace=True)
    rt = NcsRuntime(cluster, mode=ServiceMode.HSM, error="ack")
    received = {pid: [] for pid in range(3)}
    rt.register_barrier(0, parties=3)

    def body(ctx, pid):
        nxt, prev = (pid + 1) % 3, (pid - 1) % 3
        for r in range(2):
            yield ctx.send(-1, nxt, (pid, r), 4096, tag=r + 10)
            msg = yield ctx.recv(from_process=prev, tag=r + 10)
            received[pid].append(msg.data)
        yield ctx.barrier(0)

    for pid in range(3):
        rt.t_create(pid, body, (pid,), name=f"ring{pid}")
    makespan = rt.run()
    return {
        "makespan_s": round(makespan, 9),
        "received": {str(k): v for k, v in received.items()},
        "trace_signature": trace_signature(cluster.tracer),
        "metrics": behavior_snapshot(cluster.metrics),
    }


def scenario_chaos_loss() -> dict:
    """A seeded random fault plan over the HSM ring: locks the fault
    hooks' scheduling so 'zero-cost when disabled' stays 'identical
    when enabled' too."""
    from repro import NcsRuntime, ServiceMode, build_atm_cluster
    from repro.faults import FaultInjector, FaultPlan, trace_signature

    plan = FaultPlan.random(202, n_hosts=3, t_max=0.05, n_events=3)
    cluster = build_atm_cluster(3, trace=True)
    rt = NcsRuntime(cluster, mode=ServiceMode.NSM, error="ack")
    FaultInjector(cluster, plan, runtime=rt).arm()
    received = {pid: [] for pid in range(3)}
    rt.register_barrier(0, parties=3)

    def body(ctx, pid):
        nxt, prev = (pid + 1) % 3, (pid - 1) % 3
        for r in range(2):
            yield ctx.send(-1, nxt, (pid, r), 2048, tag=r + 10)
            msg = yield ctx.recv(from_process=prev, tag=r + 10)
            received[pid].append(msg.data)
        yield ctx.barrier(0)

    for pid in range(3):
        rt.t_create(pid, body, (pid,), name=f"ring{pid}")
    makespan = rt.run()
    return {
        "makespan_s": round(makespan, 9),
        "received": {str(k): v for k, v in received.items()},
        "trace_signature": trace_signature(cluster.tracer),
        "metrics": behavior_snapshot(cluster.metrics),
    }


def scenario_buffer_pipeline() -> dict:
    """The Fig 2 pipeline: one 96 KiB send through k=2 kernel buffers
    over the ATM adapter, with every phase boundary timestamped."""
    from repro.core.mps.buffers import BufferPipeline
    from repro.hosts import KernelBufferPool
    from repro.net import build_atm_cluster

    cluster = build_atm_cluster(2)
    host = cluster.host(0)
    pipeline = BufferPipeline(
        host, cluster.stack(0).atm_api.adapter,
        pool=KernelBufferPool(count=2, buffer_bytes=16 * 1024))
    sim = cluster.sim
    vc = cluster.hsm_vc(0, 1)
    out: dict = {}

    def sender():
        yield from pipeline.pipelined_send(vc, "payload", 96 * 1024)
        out["caller_free_s"] = round(sim.now, 9)
        yield pipeline.drained()
        out["all_submitted_s"] = round(sim.now, 9)

    def receiver():
        got = 0
        while got < 96 * 1024:
            msg = yield cluster.stack(1).atm_api.recv(vc)
            got += msg.nbytes
            if msg.payload is not None:
                out["payload"] = msg.payload
        out["delivered_s"] = round(sim.now, 9)

    sim.process(sender())
    sim.process(receiver())
    sim.run(max_events=5_000_000)
    out.update({
        "max_chunks_in_flight": pipeline.max_chunks_in_flight,
        "pdus_sent": count(sim.metrics, "atm.pdus_sent", host="n0"),
        "cells_sent": count(sim.metrics, "atm.cells_sent", host="n0"),
        "metrics": behavior_snapshot(sim.metrics),
    })
    return out


def scenario_chrome_trace() -> dict:
    """Chrome-trace bytes of a traced MTS + MPS run: locks the span
    stream every layer emits, not just the aggregate counters."""
    from repro.core import NcsRuntime
    from repro.net import build_ethernet_cluster
    from repro.obs import to_chrome_events

    cluster = build_ethernet_cluster(2, trace=True)
    rt = NcsRuntime(cluster)

    def pong(ctx):
        for _ in range(4):
            m = yield ctx.recv(tag=1)
            yield ctx.send(m.from_thread, m.from_process, "pong", 1024, tag=2)

    def ping(ctx, peer):
        for i in range(4):
            yield ctx.send(peer, 1, ("ping", i), 1024, tag=1)
            yield ctx.recv(tag=2)
            yield ctx.compute(0.002, label="think")

    peer = rt.t_create(1, pong, name="pong")
    rt.t_create(0, ping, (peer,), name="ping")
    makespan = rt.run()
    cluster.tracer.close_all()
    return {
        "makespan_s": round(makespan, 9),
        "chrome_events": to_chrome_events(cluster.tracer),
    }


#: every scenario, as the wall of its name
WALLS = {name: Wall(name, "112e7fa", scenario, stamped=False,
                    dump={"indent": 2, "sort_keys": True})
         for name, scenario in (
             ("kernel_timeline", scenario_kernel_timeline),
             ("mts_workload", scenario_mts_workload),
             ("pingpong_ethernet", scenario_pingpong_ethernet),
             ("ring_atm_hsm", scenario_ring_atm_hsm),
             ("chaos_loss", scenario_chaos_loss),
             ("buffer_pipeline", scenario_buffer_pipeline),
             ("chrome_trace", scenario_chrome_trace))}


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("name", sorted(WALLS))
def test_behavior_matches_golden(name):
    assert_same(WALLS[name].capture(), WALLS[name].parent(),
                coarse=("end_time", "makespan_s"), where=name)


def test_every_scenario_has_a_golden():
    """Each scenario is a registered wall (``python -m tests.walls
    capture NAME`` reaches it) and its golden is on disk."""
    for name, scenario_wall in WALLS.items():
        assert wall(name) is scenario_wall, f"{name} is not registered"
        assert scenario_wall.path.is_file(), f"golden missing for {name}"
