"""The six workloads, and the one pass over a workload that a child
process of ``run.py`` makes.

Everything here drives the program from outside: scenario documents go
in through ``repro.config.loads_scenario``, clusters and runtimes come
from ``build_cluster`` / ``build_runtime``, the registered app drivers do
the work, and every number is read back from ``cluster.metrics`` or the
driver's return value.  ``repro`` is imported inside :func:`run_pass`,
not at module import, because the import itself is a timed phase.

A workload is one or more *cells* (a ping-pong leg, a table cell, one
all-to-all).  Sizes are per pass; ``run.py`` repeats whole passes, each
in a fresh interpreter, and reports medians.

Every timing is kept three ways: ``raw`` is what the clock said,
``kernel`` the part of it this process spent in the kernel, and
``seconds`` is ``(raw - kernel) * REFERENCE_LOOP_S / mean reference-loop
time during the call``.  Both corrections take out what the shared host,
not the program, did during the call (README.md, "Host noise", has the
measurements):

* *kernel* seconds are first-touch page faults; on a VM whose memory the
  hypervisor backs lazily their cost depends on what the host is doing;
* the *reference loop* (``hostspeed.py``) runs on a 25 ms timer in the
  measuring thread, so every call is scaled by how fast the host was
  while it ran.  The loops' own time is taken out of ``raw``.
"""

from __future__ import annotations

import bisect
import cProfile
import json
import os
import resource
import statistics
import time

import hostspeed
import layers

DEFAULT_SEED = 1995


def _legs(n, name, cluster, runtime, driver, full, quick):
    """``n`` cells of one kind.  A ping-pong is run as several short legs
    rather than one long one so that a burst of host noise spoils one
    leg's sample, not the workload's: the reported time of a cell is its
    median over the passes."""
    return [(f"{name}.{i}", cluster, runtime, driver, full, quick)
            for i in range(n)]


_ETH = {"topology": "ethernet", "n_hosts": 2}
_ATM = {"topology": "atm-lan", "n_hosts": 2}
_NSM = {"mode": "nsm", "error": "ack"}
_HSM = {"mode": "hsm", "error": "ack"}
#: workload -> cells: (cell name, cluster table, runtime table, driver,
#: full-size params, quick params).  The program never sees the workload
#: name.
SCENARIO_CELLS = {
    "msg_small": [
        *_legs(4, "eth_nsm", _ETH, _NSM, "pingpong",
               {"messages": 325, "nbytes": 256}, {"messages": 16}),
        *_legs(4, "atm_hsm", _ATM, _HSM, "pingpong",
               {"messages": 325, "nbytes": 256}, {"messages": 16}),
    ],
    "msg_bulk": [
        *_legs(2, "eth_nsm", _ETH, _NSM, "pingpong",
               {"messages": 55, "nbytes": 65536}, {"messages": 3}),
        *_legs(3, "atm_nsm", _ATM, _NSM, "pingpong",
               {"messages": 95, "nbytes": 65536}, {"messages": 5}),
        *_legs(3, "atm_hsm", _ATM, _HSM, "pingpong",
               {"messages": 95, "nbytes": 65536}, {"messages": 5}),
    ],
    "a2a_wan": [
        ("a2a", {"topology": "wan-ring",
                 "options": {"n_sites": 8, "hosts_per_site": 4}},
         {"mode": "hsm"}, "alltoall",
         {"rounds": 6, "nbytes": 1024}, {"rounds": 1}),
    ],
    "coll_256": [
        ("coll", {"topology": "atm-lan", "n_hosts": 256},
         {"mode": "nsm", "collectives": "nic"}, "collective",
         {"rounds": 2, "nbytes": 1024}, {"rounds": 1}),
    ],
}
#: byte-identical to ``a2a_wan`` except for the two runtime keys below,
#: and pinned to the same expected statistics
SCENARIO_CELLS["a2a_wan_s2"] = [
    (name, cluster, {**runtime, "shards": 2, "kernel": "sharded"},
     driver, full, quick)
    for name, cluster, runtime, driver, full, quick
    in SCENARIO_CELLS["a2a_wan"]]
_QUICK_RING = {"options": {"n_sites": 4, "hosts_per_site": 2}}
QUICK_CLUSTER = {"coll_256": {"n_hosts": 32}, "a2a_wan": _QUICK_RING,
                 "a2a_wan_s2": _QUICK_RING}

#: Tables 1-3: (table, app, paper-size params, quick params)
TABLES = [
    ("table1", "matmul", {"n": 128}, {"n": 32}),
    ("table2", "jpeg", {}, {}),
    ("table3", "fft", {"m": 512, "n_sets": 8}, {"m": 64, "n_sets": 2}),
]

WORKLOADS = ("paper_tables", "msg_small", "msg_bulk", "a2a_wan",
             "a2a_wan_s2", "coll_256")

#: per-layer work counts -> the registry series they are read from.
#: All but the two ``sim.*`` odometers are behavioural: a simulator-speed
#: change must leave them identical (``sim_drift``).
COUNTS = {
    "sim.events": "sim.events_processed",
    "sim.processes": "sim.processes_started",
    "core.mts.context_switches": "mts.context_switches",
    "core.mts.threads": "mts.threads_created",
    "core.mps.msgs_sent": "mps.data_sent",
    "core.mps.msgs_received": "mps.data_received",
    "core.mps.bytes": "mps.message_bytes",      # histogram: its sum
    "core.mps.fc_stalls": "fc.send_stalls",
    "core.mps.ec_retx": "ec.retransmissions",
    "protocols.tcp_segments": "tcp.segments_sent",
    "protocols.tcp_acks": "tcp.acks_sent",
    "protocols.tcp_retx": "tcp.retransmissions",
    "protocols.ip_packets": "ip.packets_sent",
    "protocols.ip_fragments": "ip.fragments_sent",
    "ethernet.frames": "ethernet.frames_delivered",
    "ethernet.collisions": "ethernet.collision_events",
    "atm.pdus": "atm.pdus_sent",
    "atm.cells": "atm.cells_sent",
    "atm.bursts_forwarded": "atm.bursts_forwarded",
    "atm.bursts_dropped": "atm.bursts_dropped",
    "atm.mcast_replicas": "atm.mcast_replicas",
    "atm.collective.ops": "collective.ops",
    "atm.collective.fw_pdus": "collective.fw_pdus",
}
ODOMETERS = ("sim.events", "sim.processes")
FALLBACK_SERIES = ("kernel.shard_fallback", "kernel.recovery.worker_failures",
                   "kernel.recovery.retries", "kernel.recovery.fallbacks")

#: host seconds timed around the public calls, in the order they happen;
#: the first is per pass, the rest per cell
PHASES = ("config.import_s", "config.load_s", "net.build_cluster_s",
          "core.build_runtime_s", "sim.run_s", "obs.report_s")
SETUP_PHASES = PHASES[:4]
#: what a cell records: its phases and its user-mode CPU seconds
TIMINGS = PHASES + ("cpu_s",)
#: a call is scaled by the reference-loop samples taken during it and
#: within this many seconds of it (a 1 ms call has none of its own)
SPEED_WINDOW_S = 0.1


def _scenario_doc(name, cluster, runtime, driver, params, seed):
    return {"name": name, "cluster": {**cluster, "seed": seed},
            "runtime": runtime, "app": {"driver": driver, "params": params}}


def _check_value(driver, spec, value):
    """(attempted, failed) checked outcomes of one scenario cell."""
    params = spec.app.params
    if driver == "pingpong":
        # every reply must echo its request index, in order
        want = list(range(params["messages"]))
        got = value["replies"]
        bad = sum(1 for i, w in enumerate(want)
                  if i >= len(got) or got[i] != w)
        return len(want), bad
    if driver == "alltoall":
        counts = value["received"]
        n = len(counts)
        want = params["rounds"] * (n - 1)
        return n, sum(1 for c in counts.values() if c != want)
    if driver == "collective":
        flags = (value["bcast_ok"], value["reduce_ok"])
        return len(flags), sum(1 for ok in flags if not ok)
    raise ValueError(f"no output check for driver {driver!r}")


def _cpu_clocks():
    """(user, kernel) CPU seconds: user of this process and the
    descendants it has waited for, kernel of this process alone (the
    part of its own wall time it spent faulting pages in)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    waited = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + waited.ru_utime, me.ru_stime


class _Pass:
    """Accumulates what one pass over a workload measured, cell by cell."""

    def __init__(self, profile):
        self.cells = []
        self.spans = []     # (cell, key, t0, t1, measured s, kernel s)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.msgs = 0
        self.fallbacks = 0
        self.attempted = 0
        self.failed = 0
        self.profile = cProfile.Profile() if profile else None

    def begin(self, name, user0=None):
        """Open a cell: the phases timed until :meth:`close` belong to it."""
        self.cells.append({"name": name,
                           "raw": dict.fromkeys(TIMINGS, 0.0),
                           "kernel": dict.fromkeys(PHASES, 0.0),
                           "seconds": dict.fromkeys(TIMINGS, 0.0)})
        self._t0 = time.perf_counter()
        self._user0 = _cpu_clocks()[0] if user0 is None else user0

    def timed(self, phase, fn, *args, **kwargs):
        k0 = _cpu_clocks()[1]
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.spans.append((self.cells[-1], phase, t0, t1, t1 - t0,
                           _cpu_clocks()[1] - k0))
        return out

    def driven(self, fn, *args):
        """The ``wall_s`` region: driver calls only, profiled if asked."""
        if self.profile is not None:
            self.profile.enable()
        try:
            return self.timed("sim.run_s", fn, *args)
        finally:
            if self.profile is not None:
                self.profile.disable()

    def close(self):
        """Close the cell: the user-mode CPU seconds it took."""
        self.spans.append((self.cells[-1], "cpu_s", self._t0,
                           time.perf_counter(),
                           _cpu_clocks()[0] - self._user0, 0.0))

    def end(self, makespan_s, snapshot, checked, p4_cell=False):
        """Close a cell that ran a driver: also its simulated makespan,
        its ``(attempted, failed)`` checked outcomes and the work its
        cluster counted."""
        from repro.obs import counter_total, histogram_family
        self.close()
        self.cells[-1]["makespan_s"] = makespan_s
        self.attempted += checked[0]
        self.failed += checked[1]
        for key, series in COUNTS.items():
            if key == "core.mps.bytes":
                hist = histogram_family(snapshot, series)
                self.counts[key] += hist["sum"] if hist else 0
            else:
                self.counts[key] += counter_total(snapshot, series)
        # application messages delivered; p4 cells have no MPS, so the
        # transport's count stands in (the p4 layer keeps none today: 0)
        self.msgs += counter_total(
            snapshot, "transport.messages_sent" if p4_cell
            else "mps.data_received")
        self.fallbacks += sum(counter_total(snapshot, s)
                              for s in FALLBACK_SERIES)

    def settle(self, samples):
        """Fill every cell's timings from its spans and the reference-loop
        ``samples`` (start, end, loop seconds) taken while they ran."""
        starts = [start for start, _, _ in samples]
        for cell, key, t0, t1, measured, kernel in self.spans:
            inside = samples[bisect.bisect_left(starts, t0):
                             bisect.bisect_right(starts, t1)]
            raw = measured - sum(end - start for start, end, _ in inside)
            near = samples[bisect.bisect_left(starts, t0 - SPEED_WINDOW_S):
                           bisect.bisect_right(starts, t1 + SPEED_WINDOW_S)]
            loop_s = statistics.mean(s for _, _, s in near or samples)
            cell["raw"][key] += raw
            if key in cell["kernel"]:
                cell["kernel"][key] += kernel
            cell["seconds"][key] += ((raw - kernel)
                                     * hostspeed.REFERENCE_LOOP_S / loop_s)


def _run_scenario_cells(p, workload, seed, quick):
    from repro.config import (ScenarioResult, ScenarioRun, build_cluster,
                              loads_scenario, run_scenario)
    from repro.registry import APP_DRIVERS
    for name, cluster, runtime, driver, full, small in \
            SCENARIO_CELLS[workload]:
        if quick:
            cluster = {**cluster, **QUICK_CLUSTER.get(workload, {})}
        params = {**full, **small} if quick else full
        text = json.dumps(_scenario_doc(f"e2e-{name}", cluster, runtime,
                                        driver, params, seed))
        p.begin(name)
        spec = p.timed("config.load_s", loads_scenario, text, "json")
        if spec.kernel == "sharded":
            # workers build their own slices inside the run: construction
            # cannot be timed from outside and lands in wall_s
            result = p.driven(run_scenario, spec)
            value, metrics = result.value, result.cluster.metrics
            # ScenarioResult.report() raises AttributeError on a sharded
            # result (no .medium on the merged view), so only the
            # snapshot is timed here
            snapshot = p.timed("obs.report_s", metrics.snapshot)
        else:
            run = ScenarioRun(spec)
            run.cluster = p.timed("net.build_cluster_s", build_cluster,
                                  spec.cluster, spec.obs)
            runtime_obj = p.timed("core.build_runtime_s",
                                  lambda: run.runtime)
            value = p.driven(APP_DRIVERS.get(driver), run)
            result = ScenarioResult(spec, value, run.cluster, runtime_obj)
            p.timed("obs.report_s", result.report)
            snapshot = p.timed("obs.report_s", run.cluster.metrics.snapshot)
        p.end(value["makespan_s"], snapshot,
              _check_value(driver, spec, value))


def _run_table_cells(p, seed, quick):
    """Every (platform, node count) cell of Tables 1-3, p4 and NCS, in
    the order ``repro.bench.tables`` runs them.  Cells are run one by one
    (``cell_spec`` + ``run_scenario``) rather than through ``table1()``
    so that each cell's cluster metrics can be read.  Returns the median
    error against the paper's own numbers, in percent."""
    from repro.bench import paper_data
    from repro.bench.tables import cell_spec
    from repro.config import run_scenario
    errors = []
    for table, app, full, small in TABLES:
        params = {**full, **small} if quick else full
        nodes = paper_data.TABLE_NODES[table]
        if quick:
            nodes = {"ethernet": (2,)}
        for platform, counts in nodes.items():
            for n in counts:
                for variant in ("p4", "ncs"):
                    p.begin(f"{table}.{variant}.{platform}.{n}")
                    spec = p.timed("config.load_s", cell_spec,
                                   f"{app}-{variant}", platform, n,
                                   seed=seed, **params)
                    result = p.driven(run_scenario, spec)
                    p.timed("obs.report_s", result.report)
                    snapshot = p.timed("obs.report_s",
                                       result.cluster.metrics.snapshot)
                    p.end(result.value.makespan_s, snapshot,
                          (1, 0 if result.value.correct else 1),
                          p4_cell=variant == "p4")
                    ref = getattr(paper_data,
                                  f"{table.upper()}_{variant.upper()}")
                    paper_s = ref[(platform, n)]
                    errors.append(abs(result.value.makespan_s - paper_s)
                                  / paper_s * 100.0)
    return statistics.median(errors)


def _import_program():
    import repro.bench.tables  # noqa: F401  (paper_tables' harness)
    from repro.config import ensure_components
    ensure_components()


def run_pass(workload, seed, quick=False, profile=False, prof_path=None):
    """One pass over ``workload`` in this (fresh) interpreter; returns
    the JSON-ready record ``run.py`` aggregates.  Its first cell is the
    import of the program, the others are the workload's."""
    load1 = os.getloadavg()[0]
    # what the interpreter's own launcher left in the children's account
    launcher = resource.getrusage(resource.RUSAGE_CHILDREN)
    p = _Pass(profile)
    sampler = hostspeed.Sampler()
    # a profiled pass is for attribution: periodic loops would only add
    # calls to ``other``
    sampler.start(periodic=not profile)

    # the import cell's CPU seconds count the interpreter's start-up too
    p.begin("import", user0=launcher.ru_utime)
    p.timed("config.import_s", _import_program)
    p.close()

    paper_err_pct = 0.0
    if workload == "paper_tables":
        paper_err_pct = _run_table_cells(p, seed, quick)
    else:
        _run_scenario_cells(p, workload, seed, quick)
    sampler.stop()
    p.settle(sampler.samples)

    #: the simulated statistics a simulator-speed change must not move
    stats = {f"makespan_s.{c['name']}": c["makespan_s"]
             for c in p.cells[1:]}
    stats.update({k: v for k, v in p.counts.items() if k not in ODOMETERS})

    me = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    # the children's ru_maxrss is that of the largest child waited for:
    # it counts only once a shard worker has outgrown the launcher
    worker_rss_kb = (workers.ru_maxrss
                     if workers.ru_maxrss > launcher.ru_maxrss else 0)
    record = {
        "load1": load1, "cells": p.cells,
        "speed_x": hostspeed.REFERENCE_LOOP_S / statistics.mean(
            s for _, _, s in sampler.samples),
        "coord_cpu_s": me.ru_utime + me.ru_stime,
        "worker_cpu_s": (workers.ru_utime + workers.ru_stime
                         - launcher.ru_utime - launcher.ru_stime),
        "rss_peak_mb": (me.ru_maxrss + worker_rss_kb) / 1024.0,
        "msgs": p.msgs, "attempted": p.attempted, "failed": p.failed,
        "stats": stats, "counts": p.counts, "fallbacks": p.fallbacks,
        "paper_err_pct": paper_err_pct,
    }
    if p.profile is not None:
        record["layers"] = layers.fold(p.profile)
        if prof_path:
            p.profile.dump_stats(prof_path)
    return record
