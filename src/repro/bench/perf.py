"""The direct-call probes of ``benchmarks/e2e``.

Everything else in :mod:`repro.bench` measures simulated 1995 hardware;
these two loops are what ``benchmarks/e2e/layers.py`` times on the host
for its ``sim.timeout_chain_us`` and ``core.mts.switch_us`` rows:

* :func:`bench_kernel_event_loop` — the :class:`~repro.sim.Simulator`
  calendar (schedule/pop/fire for a long timeout chain);
* :func:`bench_mts_context_switch` — the MTS scheduler's thread-switch
  path (two threads trading ``yield_cpu`` slices).

Each returns deterministic fields so the caller can normalise its wall
time per event or per switch.
"""

from __future__ import annotations

__all__ = ["bench_kernel_event_loop", "bench_mts_context_switch"]


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
