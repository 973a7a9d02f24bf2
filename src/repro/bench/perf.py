"""Wall-clock perf harness: how fast does the *simulator itself* run?

Everything else in :mod:`repro.bench` measures simulated 1995 hardware;
this module measures the host interpreter executing the simulation.  It
times the hot paths a profiler shows dominating every experiment —

* ``kernel.event_loop`` — the :class:`~repro.sim.Simulator` calendar
  (schedule/pop/fire for a long timeout chain);
* ``kernel.compute_hold.*`` — one 10 s COMPUTE holding a host CPU, alone
  and preempted at every quantum boundary;
* ``mts.context_switch`` — the MTS scheduler's thread-switch path
  (two threads trading ``yield_cpu`` slices);
* ``mps.pingpong`` — the full MPS send/recv path end to end over the
  simulated Ethernet (system threads, flow/error control, TCP/IP);

— plus the paper's three applications (``apps.*``: matmul and the FFT
at reduced sizes, the JPEG pipeline and its bare codec on the 600 KB
image).  Results are written as JSON (``BENCH_kernel.json`` /
``BENCH_apps.json`` at the repo root) and checked against the committed
baseline by CI: :func:`check_regression` fails any benchmark whose
wall-clock grew more than ``tolerance`` (default 25 %).

Each record carries deterministic ``sim`` fields (event counts,
makespans) next to the noisy ``wall_s`` so a regression can be told
apart from a behaviour change: if ``sim`` moved, the simulation itself
changed; if only ``wall_s`` moved, the implementation got slower.

Run it with ``python -m repro.bench --perf [--check]``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "SCHEMA_VERSION", "KERNEL_BENCH_FILE", "APPS_BENCH_FILE",
    "KERNEL_BENCHMARKS", "APP_BENCHMARKS", "ODOMETERS",
    "run_suite", "run_kernel_suite", "run_app_suite",
    "write_results", "load_results", "check_regression", "render_results",
]

SCHEMA_VERSION = 1
#: ``sim`` fields that count how the simulator works, not what it
#: simulates: recorded next to the walls, never gated on
ODOMETERS = ("events_processed", "processes_started")
KERNEL_BENCH_FILE = "BENCH_kernel.json"
APPS_BENCH_FILE = "BENCH_apps.json"


# --------------------------------------------------------------- kernel paths
def bench_kernel_event_loop(n_events: int = 50_000) -> dict:
    """A single process yielding ``n_events`` back-to-back timeouts:
    the pure schedule/pop/fire cost of the event calendar."""
    from ..sim import Simulator

    sim = Simulator()

    def ticker():
        for _ in range(n_events):
            yield sim.timeout(1e-6)

    sim.process(ticker(), name="perf-ticker")
    sim.run()
    return {"events_processed": sim.metrics.value("sim.events_processed"),
            "sim_time_s": round(sim.now, 9)}


def bench_mts_context_switch(n_yields: int = 5_000) -> dict:
    """Two same-priority MTS threads trading ``yield_cpu`` slices:
    the scheduler's dispatch/switch path with no messaging involved."""
    from ..core.mts.scheduler import MtsScheduler
    from ..net import build_ethernet_cluster

    cluster = build_ethernet_cluster(1)
    sched = MtsScheduler(cluster.process(0))

    def spinner(ctx):
        for _ in range(n_yields):
            yield ctx.yield_cpu()

    sched.t_create(spinner, name="spin-a")
    sched.t_create(spinner, name="spin-b")
    sched.start()
    cluster.sim.run()
    return {"context_switches": sched.context_switches,
            "sim_time_s": round(cluster.sim.now, 9)}


def bench_mps_pingpong(n_roundtrips: int = 200, size: int = 1024) -> dict:
    """An NCS ping-pong over the simulated Ethernet: every round trip
    crosses MPS send/recv, the FC/EC system threads and the TCP/IP
    stack twice."""
    from ..core import NcsRuntime
    from ..net import build_ethernet_cluster

    cluster = build_ethernet_cluster(2)
    rt = NcsRuntime(cluster)

    def pong(ctx):
        for _ in range(n_roundtrips):
            msg = yield ctx.recv()
            yield ctx.send(msg.from_thread, msg.from_process, "pong", size)

    def ping(ctx, peer_tid):
        for _ in range(n_roundtrips):
            yield ctx.send(peer_tid, 1, "ping", size)
            yield ctx.recv()

    pong_tid = rt.t_create(1, pong)
    rt.t_create(0, ping, (pong_tid,))
    makespan = rt.run()
    return {"roundtrips": n_roundtrips,
            "messages_sent": cluster.metrics.total("mps.data_sent"),
            "makespan_s": round(makespan, 9)}


def bench_kernel_compute_hold(contended: bool, n_hosts: int = 1,
                              seconds: float = 10.0) -> dict:
    """A COMPUTE of ``seconds`` (10 000 quanta) on each of ``n_hosts``
    hosts: both ends of the event-driven quantum trade.  Left alone it
    sleeps on a handful of timers; ``contended``, a 2 kHz stream of
    50 us OVERHEAD charges per host preempts it at every quantum
    boundary, which must cost no more than a request/timeout/release
    round per quantum would."""
    from ..hosts import Host
    from ..sim import Activity, Simulator

    sim = Simulator()
    done: dict[str, float] = {}

    def computer(host):
        yield from host.cpu_busy(seconds)
        done[host.name] = sim.now

    def contender(host):
        while host.name not in done:
            yield sim.timeout(0.5e-3)
            yield from host.cpu_busy(50e-6, Activity.OVERHEAD)

    for i in range(n_hosts):
        host = Host(sim, f"h{i}")
        sim.process(computer(host), name=f"perf-compute:{i}")
        if contended:
            sim.process(contender(host), name=f"perf-contender:{i}")
    sim.run()
    return {"n_hosts": n_hosts,
            "events_processed": sim.metrics.value("sim.events_processed"),
            "compute_done_s": round(max(done.values()), 9)}


def bench_kernel_sharded(shards: int, n_sites: int = 8,
                         rounds: int = 10) -> dict:
    """The sharded kernel's scaling ladder: a dense all-to-all workload
    on an ``n_sites``-site WAN ring, split over ``shards`` worker
    kernels (``shards=1`` is the plain single-kernel baseline).

    The ``sim`` fields are identical across the whole ladder — the
    sharded kernel is bit-deterministic — so only ``wall_s`` varies
    with the shard count.  Interpreting the ladder needs the host core
    count next to it: on a single-core host the worker processes
    time-slice one CPU and the ladder mostly measures coordination
    overhead; parallel speedup needs >= ``shards`` cores.
    """
    from ..config.build import run_scenario
    from ..config.spec import AppSpec, ClusterSpec, ScenarioSpec

    spec = ScenarioSpec(
        name=f"bench-sharded-s{shards}",
        cluster=ClusterSpec(topology="wan-ring", seed=1995,
                            options={"n_sites": n_sites,
                                     "hosts_per_site": 1}),
        mode="hsm",
        app=AppSpec(driver="alltoall",
                    params={"rounds": rounds, "nbytes": 1024}),
        shards=shards,
    )
    result = run_scenario(spec)
    return {"shards": shards, "n_sites": n_sites, "rounds": rounds,
            "events_processed":
                int(result.cluster.metrics.value("sim.events_processed")),
            "makespan_s": round(result.value["makespan_s"], 9)}


# ----------------------------------------------------------------- app paths
def bench_app_matmul(n: int = 32, n_nodes: int = 2) -> dict:
    from ..apps.matmul import run_matmul_ncs

    res = run_matmul_ncs("ethernet", n_nodes, n=n)
    return {"n": n, "n_nodes": n_nodes, "correct": bool(res.correct),
            "makespan_s": round(res.makespan_s, 9)}


def bench_app_jpeg(n_nodes: int = 2) -> dict:
    """A Table 2 cell as the paper runs it: the 600 KB image through
    the NCS pipeline."""
    from ..apps.jpeg.distributed import run_jpeg_ncs

    res = run_jpeg_ncs("ethernet", n_nodes)
    return {"image_bytes": res.details["image_bytes"], "n_nodes": n_nodes,
            "correct": bool(res.correct), "makespan_s": round(res.makespan_s, 9)}


def bench_app_jpeg_codec() -> dict:
    """``compress`` + ``decompress`` of the 600 KB image with no
    simulator around them: the host compute every Table 2 cell carries."""
    from ..apps.jpeg import benchmark_image, compress, decompress, psnr

    image = benchmark_image()
    comp = compress(image)
    return {"payload_bytes": len(comp.payload), "n_symbols": comp.n_symbols,
            "correct": bool(psnr(image, decompress(comp)) > 30.0)}


def bench_app_fft(m: int = 64, n_sets: int = 2, n_nodes: int = 2) -> dict:
    from ..apps.fft import run_fft_ncs

    res = run_fft_ncs("ethernet", n_nodes, m=m, n_sets=n_sets)
    return {"m": m, "n_sets": n_sets, "n_nodes": n_nodes,
            "correct": bool(res.correct), "makespan_s": round(res.makespan_s, 9)}


#: the two suites; order is the report order
KERNEL_BENCHMARKS: dict[str, Callable[[], dict]] = {
    "kernel.event_loop": bench_kernel_event_loop,
    # 32 hosts: one is under a millisecond of wall, too short to gate on
    "kernel.compute_hold.alone":
        lambda: bench_kernel_compute_hold(False, n_hosts=32),
    "kernel.compute_hold.contended": lambda: bench_kernel_compute_hold(True),
    "mts.context_switch": bench_mts_context_switch,
    "mps.pingpong": bench_mps_pingpong,
    "kernel.sharded_events.s1": lambda: bench_kernel_sharded(1),
    "kernel.sharded_events.s2": lambda: bench_kernel_sharded(2),
    "kernel.sharded_events.s4": lambda: bench_kernel_sharded(4),
    "kernel.sharded_events.s8": lambda: bench_kernel_sharded(8),
}
APP_BENCHMARKS: dict[str, Callable[[], dict]] = {
    "apps.matmul_ncs": bench_app_matmul,
    "apps.jpeg_ncs": bench_app_jpeg,
    "apps.jpeg_codec_600k": bench_app_jpeg_codec,
    "apps.fft_ncs": bench_app_fft,
}


# ------------------------------------------------------------------- harness
def run_suite(benchmarks: dict[str, Callable[[], dict]],
              progress: Optional[Callable[[str], None]] = None,
              repeats: int = 3) -> dict:
    """Time each benchmark ``repeats`` times and keep the best wall
    (the minimum is the standard estimator for deterministic workloads —
    everything above it is interpreter/OS noise).  The ``sim`` fields
    must be identical across repeats; a mismatch means the simulation is
    non-deterministic, which is itself a bug worth failing loudly on."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results: dict[str, dict] = {}
    for name, fn in benchmarks.items():
        if progress is not None:
            progress(name)
        best = float("inf")
        sim_fields = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            fields = fn()
            best = min(best, time.perf_counter() - t0)
            if sim_fields is None:
                sim_fields = fields
            elif fields != sim_fields:
                raise RuntimeError(
                    f"benchmark {name} is non-deterministic: sim fields "
                    f"changed between repeats ({sim_fields!r} -> {fields!r})")
        results[name] = {"wall_s": round(best, 6), "sim": sim_fields}
    return {"schema": SCHEMA_VERSION, "benchmarks": results,
            "meta": _suite_meta()}


def _suite_meta() -> dict:
    """Host context stamped next to the walls: wall-clock numbers only
    compare within one machine class, and sharded benchmarks depend on
    whether workers fork or thread."""
    from ..sim.sharded import DEFAULT_MODE
    return {"cpu_count": os.cpu_count(), "sharded_transport": DEFAULT_MODE}


def run_kernel_suite(progress=None) -> dict:
    return run_suite(KERNEL_BENCHMARKS, progress)


def run_app_suite(progress=None) -> dict:
    return run_suite(APP_BENCHMARKS, progress)


def write_results(results: dict, path) -> None:
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True)
                          + "\n")


def load_results(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema {doc.get('schema')!r}")
    return doc


def check_regression(current: dict, baseline: dict,
                     tolerance: float = 0.25) -> list[str]:
    """Compare a fresh run against a committed baseline.

    Returns a list of human-readable failures: a benchmark missing from
    the current run, or one whose wall-clock grew more than ``tolerance``
    (fractional, so 0.25 = +25 %).  Deterministic ``sim`` drift is
    reported too — it is not a perf regression, but it means the
    baseline no longer describes the same simulation and should be
    regenerated alongside the change.  :data:`ODOMETERS` are exempt:
    ``tests/perf_lock/test_event_budget.py`` holds their ceilings.
    """
    def behaviour(entry: dict) -> dict:
        return {k: v for k, v in (entry.get("sim") or {}).items()
                if k not in ODOMETERS}

    failures: list[str] = []
    base = baseline.get("benchmarks", {})
    cur = current.get("benchmarks", {})
    for name, entry in sorted(base.items()):
        if name not in cur:
            failures.append(f"{name}: missing from current run")
            continue
        base_wall = entry["wall_s"]
        cur_wall = cur[name]["wall_s"]
        if base_wall > 0 and cur_wall > base_wall * (1.0 + tolerance):
            failures.append(
                f"{name}: wall {cur_wall:.4f}s vs baseline "
                f"{base_wall:.4f}s (+{cur_wall / base_wall - 1.0:.0%}, "
                f"tolerance {tolerance:.0%})")
        if behaviour(entry) != behaviour(cur[name]):
            failures.append(
                f"{name}: deterministic sim fields drifted from baseline "
                f"({behaviour(entry)} -> {behaviour(cur[name])}); "
                f"regenerate BENCH files if the change is intended")
    return failures


def render_results(results: dict, title: str) -> str:
    lines = [title, "-" * len(title)]
    for name, entry in results["benchmarks"].items():
        sim = ", ".join(f"{k}={v}" for k, v in entry["sim"].items())
        lines.append(f"{name:<22} {entry['wall_s']:>9.4f} s wall   [{sim}]")
    return "\n".join(lines)
