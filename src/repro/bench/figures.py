"""Regenerate the data behind the paper's figures.

Each ``figN_*`` function runs the relevant experiment and returns plain
data (dicts/lists) that the benchmark targets print and assert on; see
DESIGN.md §4 for the figure-to-module index.
"""

from __future__ import annotations

import math

import numpy as np

from ..apps import run_jpeg_ncs, run_jpeg_p4
from ..apps.matmul import run_matmul_ncs, run_matmul_p4
from ..core import NcsRuntime
from ..core.mps import ServiceMode
from ..core.mps.buffers import BufferPipeline
from ..core.mps.datapath import (
    NCS_DATAPATH, SOCKET_DATAPATH, ZERO_COPY_DATAPATH,
)
from ..hosts import KernelBufferPool, SUN_IPX
from ..net import build_atm_cluster, nynet_testbed
from ..sim import Activity

__all__ = [
    "fig1_nynet_paths", "fig2_buffer_sweep", "fig3_datapath",
    "fig4_overlap", "fig5_qos", "fig6_nsm_vs_hsm", "fig12_approaches",
    "fig16_utilization", "fig20_fft_structure",
]


# ---------------------------------------------------------------------------
# Fig 1 — the NYNET testbed
# ---------------------------------------------------------------------------

def fig1_nynet_paths(nbytes: int = 256 * 1024) -> dict:
    """Measured path properties across the Fig 1 topology: intra-site
    (TAXI-bound) vs cross-region (DS-3-bound) goodput and latency."""
    out = {}
    for label, (src, dst), cluster in (
            ("intra-site", (0, 1), nynet_testbed(2, 0)),
            ("cross-region", (0, 1), nynet_testbed(1, 1))):
        sim = cluster.sim
        vc = cluster.hsm_vc(src, dst)
        api_s = cluster.stack(src).atm_api
        api_d = cluster.stack(dst).atm_api
        first_arrival = []

        def sender():
            yield from api_s.send(vc, None, nbytes)

        def receiver():
            got = 0
            while got < nbytes:
                msg = yield api_d.recv(vc)
                if not first_arrival:
                    first_arrival.append(sim.now)
                got += msg.nbytes
            return sim.now

        sim.process(sender())
        p = sim.process(receiver())
        sim.run(max_events=5_000_000)
        out[label] = {
            "hops": len(vc.hops),
            "bottleneck_bps": min(ch.spec.bandwidth_bps for ch in vc.hops),
            "propagation_s": sum(ch.spec.prop_delay_s for ch in vc.hops),
            "first_byte_s": first_arrival[0],
            "goodput_bps": nbytes * 8 / p.value,
        }
    return out


# ---------------------------------------------------------------------------
# Fig 2 — multiple I/O buffers
# ---------------------------------------------------------------------------

def fig2_buffer_sweep(nbytes: int = 256 * 1024,
                      buffer_counts=(1, 2, 4, 8),
                      buffer_bytes: int = 16 * 1024) -> dict:
    """Send ``nbytes`` through the Fig 2 pipeline with k output buffers;
    returns per-k {caller_busy_s, wire_done_s}."""
    results = {}
    for k in buffer_counts:
        cluster = build_atm_cluster(2, params=SUN_IPX)
        sim = cluster.sim
        host = cluster.host(0)
        vc = cluster.hsm_vc(0, 1)
        pipeline = BufferPipeline(
            host, cluster.stack(0).atm_api.adapter,
            pool=KernelBufferPool(count=k, buffer_bytes=buffer_bytes))
        done_meta = {}

        def sender():
            yield from pipeline.pipelined_send(vc, None, nbytes)
            done_meta["caller_free"] = sim.now
            yield pipeline.drained()
            done_meta["all_submitted"] = sim.now

        def receiver():
            got = 0
            while got < nbytes:
                msg = yield cluster.stack(1).atm_api.recv(vc)
                got += msg.nbytes
            done_meta["delivered"] = sim.now

        sim.process(sender())
        sim.process(receiver())
        sim.run(max_events=5_000_000)
        results[k] = dict(done_meta,
                          max_in_flight=pipeline.max_chunks_in_flight)
    return results


# ---------------------------------------------------------------------------
# Fig 3 — datapath bus-access accounting
# ---------------------------------------------------------------------------

def fig3_datapath(nbytes: int = 64 * 1024) -> dict:
    """Per-datapath CPU cost of moving one message (model numbers) plus
    the headline access ratio the paper quotes."""
    cpu, os = SUN_IPX.cpu, SUN_IPX.os
    out = {}
    for dp in (SOCKET_DATAPATH, NCS_DATAPATH, ZERO_COPY_DATAPATH):
        out[dp.name] = {
            "total_accesses_per_word": dp.total_accesses_per_word,
            "one_way_cpu_s": dp.one_way_cpu_time(cpu, os, nbytes),
            "entry_cost_s": dp.entry_cost(os),
        }
    out["access_ratio_socket_vs_ncs"] = (
        SOCKET_DATAPATH.total_accesses_per_word
        / NCS_DATAPATH.total_accesses_per_word)
    return out


# ---------------------------------------------------------------------------
# Fig 4 — matmul overlap timeline
# ---------------------------------------------------------------------------

def fig4_overlap(n: int = 128) -> dict:
    """The Fig 4 experiment: 2 nodes, with and without threads; returns
    makespans plus the threaded run's per-thread Gantt rows."""
    rp = run_matmul_p4("nynet", 2, n=n, trace=True)
    rn = run_matmul_ncs("nynet", 2, n=n, trace=True)
    rn.cluster.tracer.close_all()
    gantt = {name: tl.gantt_row()
             for name, tl in rn.cluster.tracer.timelines.items()
             if "/" in name}
    return {
        "p4_makespan_s": rp.makespan_s,
        "ncs_makespan_s": rn.makespan_s,
        "improvement_pct": (rp.makespan_s - rn.makespan_s)
        / rp.makespan_s * 100,
        "ncs_gantt": gantt,
    }


# ---------------------------------------------------------------------------
# Fig 5 — per-application QoS / flow control
# ---------------------------------------------------------------------------

def fig5_qos(n_frames: int = 30, frame_bytes: int = 32 * 1024,
             rate_bytes_s: float = 2e6) -> dict:
    """A VOD-style stream under rate FC vs no FC: arrival regularity
    (jitter) and achieved rate — the Fig 5 'different applications need
    different flow control' point."""
    from ..config import ClusterSpec, ScenarioSpec, build_runtime
    out = {}
    for label, flow, kwargs in (
            ("rate-fc", "rate", {"rate_bytes_s": rate_bytes_s,
                                 "bucket_bytes": frame_bytes}),
            ("no-fc", None, {})):
        spec = ScenarioSpec(
            name=f"fig5-{label}",
            cluster=ClusterSpec(topology="atm-lan", n_hosts=2),
            mode="hsm", flow=flow, flow_kwargs=kwargs)
        cluster, rt = build_runtime(spec)
        arrivals = []

        def src(ctx, rtid):
            for i in range(n_frames):
                yield ctx.send(rtid, 1, i, frame_bytes)

        def sink(ctx):
            for _ in range(n_frames):
                yield ctx.recv()
                arrivals.append(ctx.now)

        rtid = rt.t_create(1, sink)
        rt.t_create(0, src, (rtid,))
        rt.run(max_events=5_000_000)
        gaps = np.diff(arrivals)
        out[label] = {
            "mean_gap_s": float(np.mean(gaps)),
            "jitter_s": float(np.std(gaps)),
            "achieved_bytes_s": frame_bytes * (n_frames - 1)
            / (arrivals[-1] - arrivals[0]),
        }
    out["contract_gap_s"] = frame_bytes / rate_bytes_s
    return out


# ---------------------------------------------------------------------------
# Fig 6 — NSM vs HSM tiers
# ---------------------------------------------------------------------------

def _one_way(mode: ServiceMode, nbytes: int, repeats: int = 5) -> float:
    from ..config import ClusterSpec, ScenarioSpec, build_runtime
    _, rt = build_runtime(ScenarioSpec(
        name=f"fig6-{mode.value}-{nbytes}b",
        cluster=ClusterSpec(topology="atm-lan", n_hosts=2),
        mode=mode.value))
    times = []
    tids: dict[str, int] = {}

    def sender(ctx):
        for _ in range(repeats):
            start = ctx.now
            yield ctx.send(tids["echoer"], 1, None, nbytes)
            yield ctx.recv()                 # echo back
            times.append((ctx.now - start) / 2)

    def echoer(ctx):
        for _ in range(repeats):
            yield ctx.recv()
            yield ctx.send(tids["sender"], 0, None, nbytes)

    tids["echoer"] = rt.t_create(1, echoer, name="echoer")
    tids["sender"] = rt.t_create(0, sender, name="sender")
    rt.run(max_events=5_000_000)
    return sum(times) / len(times)


def fig6_nsm_vs_hsm(sizes=(1024, 16 * 1024, 64 * 1024, 256 * 1024)) -> dict:
    """Average one-way message time per tier and size: the two-tier
    architecture's cost of interoperability."""
    out = {"sizes": list(sizes), "nsm_s": [], "hsm_s": [], "p4_s": []}
    for nbytes in sizes:
        out["nsm_s"].append(_one_way(ServiceMode.NSM, nbytes))
        out["hsm_s"].append(_one_way(ServiceMode.HSM, nbytes))
        out["p4_s"].append(_one_way(ServiceMode.P4, nbytes))
    return out


# ---------------------------------------------------------------------------
# Figs 11/12 — Approach 1 vs Approach 2
# ---------------------------------------------------------------------------

def fig12_approaches(n: int = 128) -> dict:
    """The paper's promised comparison (§6): the same NCS matmul over
    Approach 1 (p4) and Approach 2 (ATM API)."""
    r1 = run_matmul_ncs("nynet", 2, n=n, mode=ServiceMode.P4)
    r2 = run_matmul_ncs("nynet", 2, n=n, mode=ServiceMode.HSM)
    return {
        "approach1_p4_s": r1.makespan_s,
        "approach2_atm_s": r2.makespan_s,
        "speedup": r1.makespan_s / r2.makespan_s,
        "both_correct": r1.correct and r2.correct,
    }


# ---------------------------------------------------------------------------
# Fig 16 — computation/communication/idle occupancy
# ---------------------------------------------------------------------------

def fig16_utilization(n_nodes: int = 2) -> dict:
    """Per-host activity fractions for the JPEG pipeline, single- vs
    multi-threaded — the Fig 16 stacked-interval picture as numbers."""
    out = {}
    for label, runner in (("single-threaded", run_jpeg_p4),
                          ("multithreaded", run_jpeg_ncs)):
        r = runner("nynet", n_nodes, trace=True)
        tracer = r.cluster.tracer
        tracer.close_all()
        horizon = r.makespan_s
        per_host = {}
        for i in range(n_nodes + 1):
            name = f"n{i}"
            tl = tracer.timelines.get(name)
            busy = {a: (tl.total(a) if tl else 0.0) for a in Activity}
            total_busy = sum(busy.values())
            per_host[name] = {
                "compute_frac": busy[Activity.COMPUTE] / horizon,
                "communicate_frac": busy[Activity.COMMUNICATE] / horizon,
                "overhead_frac": busy[Activity.OVERHEAD] / horizon,
                "idle_frac": max(0.0, 1.0 - total_busy / horizon),
            }
        out[label] = {"makespan_s": r.makespan_s, "hosts": per_host}
    return out


# ---------------------------------------------------------------------------
# Figs 19/20 — FFT communication structure
# ---------------------------------------------------------------------------

def fig20_fft_structure(m: int = 512, n_nodes: int = 2) -> dict:
    """Communication-step counts: log2 N for p4, log2 2N for NCS with the
    final step local (crosses no wire)."""
    p4_workers = n_nodes
    ncs_workers = 2 * n_nodes
    ncs_stages = int(math.log2(ncs_workers))
    remote = 0
    local = 0
    for step in range(ncs_stages):
        d = ncs_workers >> (step + 1)
        # partners at distance d: same process iff d < 2 (threads/proc=2)
        if d >= 2:
            remote += 1
        else:
            local += 1
    return {
        "p4_comm_steps": int(math.log2(p4_workers)) if p4_workers > 1 else 0,
        "ncs_comm_steps": ncs_stages,
        "ncs_remote_steps": remote,
        "ncs_local_steps": local,
        "computation_steps": int(math.log2(m)),
    }
