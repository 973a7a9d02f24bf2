"""Sharded conservative parallel simulation kernel.

``runtime.kernel = "sharded"`` partitions a spec-built cluster across
worker universes — one :class:`~repro.sim.KernelCore` calendar per host
group — and synchronizes them with the classic conservative
null-message/window scheme, using cross-shard link propagation delay as
lookahead.

Design
------
Every worker *materializes only its own shard* of the scenario's
topology blueprint (:func:`repro.config.build.build_blueprint`) —
``materialize(blueprint, owned_switches)`` builds real hosts and
switches for owned sites, ghost rows (tid-mirroring, event-silent) for
foreign hosts and boundary stubs for foreign switches at the cut.
Virtual circuits are established on first use in each universe that
meets them — a sender's, or one that imports a burst (:func:`_inject`)
— and agree bit for bit because a circuit's id and labels are a pure
function of ``(src, dst, service)`` (:mod:`repro.atm.signaling`).
Everything built per entity is built for owned entities only: failure
detectors and message-fault filters for owned pids, NIC collective
engines for owned adapters (the root engine where pid 0 lives).  Every
universe arms the whole fault plan at the same instants, so shard 0
holds the complete ``faults.*`` / ``fault:<i>`` record; a fault whose
target another shard owns touches nothing here, except that a crashed
ghost host is marked frozen for the resilience layer to read.  Worker
memory and construction time scale with the shard, not the cluster.
The only coupling between workers is the set of *cut
channels* — directed ATM trunk channels whose upstream node lives in one
shard and whose downstream node lives in another.  On the upstream side
the channel's one calendar entry per burst is moved up from its arrival
to the end of its serialization (``_lag = 0``) and the
:meth:`~repro.atm.link.Channel._dispatch` seam it ends in is overridden
to export the burst (as a :class:`CutEvent`) for ``now + prop_delay``
instead of delivering locally; the coordinator routes it to the
downstream worker, which re-materializes the burst on its replica
channel and delivers it at exactly the exported instant.

Windows: each round every worker reports its next local event time and
its outbox; the coordinator computes ``gm = min(peeks, pending
arrivals)`` and grants the horizon ``gm + L`` where ``L`` is the
smallest cut-channel propagation delay.  Any burst exported inside a
window drains at ``t >= gm`` and therefore arrives at ``t + prop >= gm
+ L`` — at or past the horizon — so no worker ever receives an event in
its past (``KernelCore.run_below`` leaves the clock strictly below the
horizon).  Cross-shard arrivals are totally ordered by the merge key
``(timestamp, shard, seq)``.

Supervision: every coordinator-side control-queue receive runs under a
watchdog (:class:`_Supervisor`) parameterized by the spec's
``[runtime.supervision]`` table — a wall-clock barrier deadline bounds
each window, with liveness polls in between so a dead worker is
detected in milliseconds rather than at deadline expiry.  Failures are
classified (``crashed`` / ``hung`` / ``poisoned``) into
:class:`ShardWorkerError` and handled by policy: relaunch the sharded
run (worker faults key on the launch attempt, so a retry is clean),
degrade to the single kernel (byte-identical by the determinism walls),
or raise.  Recoveries stamp the ``kernel.recovery.*`` counter family
and a ``supervisor`` trace point — substrate telemetry the behaviour
walls strip, which is what lets a recovered run still compare
byte-identical.  The deterministic chaos seam
(:class:`~repro.faults.WorkerCrash` / :class:`~repro.faults.WorkerStall`)
kills or stalls shard *k* exactly at window *n*, putting the supervisor
itself under test.

Constraints: a shard cut must be a switch-to-switch WAN trunk — host
TAXI links share a BER rng across both directions and a host can never
be split from its own adapter/switch, so plans that would cut one raise
:class:`~repro.config.spec.SpecError`.  HSM fabrics therefore never
straddle a shard boundary except over such a bridged WAN link.  Drivers
must drive the spec-built runtime (``rt.run()``); self-contained apps
and drivers that aggregate cross-pid state locally (``collective``,
``stream``) are rejected or unsupported.
"""

from __future__ import annotations

import json
import logging
import math
import multiprocessing
import os
import queue as _queue
import threading
import time
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Optional

from ..config.build import (ScenarioResult, ScenarioRun, _export_obs,
                            build_blueprint)
from ..config.spec import ScenarioSpec, SpecError, SupervisionSpec
from ..faults.plan import WorkerCrash, WorkerStall
from ..obs.recovery import (SUPERVISOR_ENTITY, stamp_recovery,
                            stamp_recovery_snapshot)
from ..registry import APP_DRIVERS, KERNELS
from .kernel import SimulationError
from .trace import Activity, Interval, Timeline

__all__ = [
    "CutEvent", "ShardPlan", "ShardFallbackWarning", "ShardWorkerError",
    "plan_shards", "merge_key", "merge_cut_events", "next_window",
    "run_scenario_sharded", "MergedMetrics", "MergedTracer",
    "ShardedClusterView",
]

logger = logging.getLogger(__name__)


class ShardFallbackWarning(UserWarning):
    """``runtime.shards > 1`` degraded to the single kernel."""


class ShardWorkerError(SimulationError):
    """A shard worker failed in the *execution substrate*, not the model.

    The supervisor classifies every control-plane failure into one
    ``reason``:

    * ``"crashed"`` — the worker process/thread died without reporting
      (pipe EOF, nonzero exit, or a thread that returned mid-protocol);
    * ``"hung"`` — the worker stayed alive but sent nothing within the
      barrier deadline (``runtime.supervision.barrier_deadline_s``);
    * ``"poisoned"`` — the control channel delivered a payload that
      could not be deserialized.

    ``window`` is the coordinator's 1-based round counter at the time of
    failure (0 = the hello phase, -1 = post-run teardown) and
    ``last_good`` the wall-clock :func:`time.monotonic` stamp of the
    worker's last healthy message — both are wall-clock/protocol facts,
    never simulated time, so supervision cannot perturb determinism.
    """

    def __init__(self, shard: int, window: int, reason: str,
                 detail: str = "", last_good: Optional[float] = None):
        self.shard = shard
        self.window = window
        self.reason = reason
        self.detail = detail
        self.last_good = last_good
        msg = f"shard {shard} worker {reason} at window {window}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


#: worker execution mode when none is passed: real processes where
#: ``fork`` exists (benchmarks want parallelism), threads elsewhere.
DEFAULT_MODE = "process" if hasattr(os, "fork") else "thread"


# --------------------------------------------------------------------------
# cross-shard events + pure merge helpers (property-tested in isolation)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CutEvent:
    """One burst crossing a shard cut, in wire-flat (picklable) form."""

    arrival: float          # absolute delivery instant in the dest universe
    src_shard: int
    seq: int                # per-source-shard export sequence (1-based)
    dest_shard: int
    channel: str            # cut channel name (identical in every universe)
    vc_id: int
    vci: int
    msg_id: int
    n_cells: int
    payload_bytes: int
    is_final: bool
    corrupted: bool
    enqueued_at: float
    payload: Any = None


def merge_key(ev: CutEvent) -> tuple[float, int, int]:
    """The deterministic total order over cross-shard events."""
    return (ev.arrival, ev.src_shard, ev.seq)


def merge_cut_events(streams) -> list[CutEvent]:
    """Merge per-shard outbox streams into one total order.

    The result depends only on :func:`merge_key` — never on the
    interleaving of the input streams — which is what makes the window
    protocol replay-stable.
    """
    out = [ev for stream in streams for ev in stream]
    out.sort(key=merge_key)
    return out


def next_window(peeks, pending_arrivals, lookahead: float):
    """``(gm, horizon)`` for one coordinator round.

    ``gm`` is the earliest thing anyone could do (a local event or an
    undelivered cross-shard arrival); the horizon grants every worker
    the right to process events strictly below ``gm + lookahead``.
    ``gm == inf`` means global quiescence: ``(inf, inf)``.
    """
    gm = min(list(peeks) + list(pending_arrivals), default=math.inf)
    if math.isinf(gm):
        return math.inf, math.inf
    return gm, gm + lookahead


# --------------------------------------------------------------------------
# shard planning
# --------------------------------------------------------------------------

@dataclass
class ShardPlan:
    """Which shard owns each pid/host/switch/channel, plus the cut set."""

    n_shards: int
    lookahead: float                      # min cut prop delay (inf: no cuts)
    pid_shard: dict[int, int]
    host_shard: dict[str, int]
    switch_shard: dict[str, int]
    channel_shard: dict[str, int]         # channel name -> upstream owner
    cut_dest: dict[str, int] = field(default_factory=dict)
    shard_loads: list = field(default_factory=list)    # est. event weight
    group_weights: dict = field(default_factory=dict)  # group key -> weight

    @property
    def cut_channels(self) -> list[str]:
        return sorted(self.cut_dest)

    def owned_pids(self, shard: int) -> list[int]:
        return sorted(p for p, s in self.pid_shard.items() if s == shard)


def plan_shards(cluster, shards: int, shard_hints=None,
                pid_weights=None) -> ShardPlan:
    """Partition ``cluster`` into at most ``shards`` host-group shards.

    A *host group* is the set of hosts attached to the same switch
    neighborhood.  Hinted groups (``shard_hints``: switch name -> shard
    index) are pinned first; the rest are placed by the blueprint cost
    model — heaviest group first onto the least-loaded shard (LPT),
    where a group's weight is the sum of its pids' ``pid_weights``
    (hosts x driver intensity; uniform 1.0 when None).  With uniform
    weights and no hints this reduces exactly to round-robin in min-pid
    order.  Topologies with a shared LAN medium or no ATM fabric
    collapse to one shard.

    ``cluster`` may be a real built :class:`~repro.net.topology.Cluster`
    or a :class:`~repro.net.blueprint.PlanView` over an unmaterialized
    blueprint — both produce the identical plan, because the plan reads
    only the fabric's name-level routing graph
    (:attr:`repro.atm.AtmFabric.routes`), which both fill identically.
    """
    hints = dict(shard_hints or {})
    weights = pid_weights or {}
    n = cluster.n_hosts
    host_names = [cluster.host(pid).name for pid in range(n)]
    fabric = getattr(cluster, "fabric", None)
    routes = fabric.routes if fabric is not None else None
    switches = set(fabric.switch_names) if fabric is not None else set()

    def channels():
        """``(name, upstream, downstream, edge data)`` per directed channel."""
        for _u, _v, data in routes.edges(data=True):
            a, b = data["ends"]
            yield f"{a}--{b}>", a, b, data
            yield f"{a}--{b}<", b, a, data

    def trivial() -> ShardPlan:
        switch_shard = dict.fromkeys(switches, 0)
        channel_shard = ({name: 0 for name, _up, _down, _d in channels()}
                         if fabric is not None else {})
        return ShardPlan(
            n_shards=1, lookahead=math.inf,
            pid_shard={pid: 0 for pid in range(n)},
            host_shard={h: 0 for h in host_names},
            switch_shard=switch_shard, channel_shard=channel_shard,
            shard_loads=[sum(weights.get(pid, 1.0) for pid in range(n))])

    if shards <= 1 or fabric is None or getattr(cluster, "lan", None) is not None:
        return trivial()

    # ---- host groups keyed by the adapter's sorted switch neighborhood
    groups: dict[tuple[str, ...], list[int]] = {}
    for pid, hname in enumerate(host_names):
        key = tuple(sorted(routes.neighbors(hname)))
        groups.setdefault(key, []).append(pid)
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))
    eff = min(shards, len(ordered))
    if eff <= 1:
        return trivial()

    for sw, s in hints.items():
        if sw not in switches:
            raise SpecError(
                f"runtime.shard_hints names unknown switch {sw!r}; "
                f"switches: {', '.join(sorted(switches))}")
        if not (0 <= s < eff):
            raise SpecError(
                f"runtime.shard_hints[{sw!r}] = {s} is out of range for "
                f"{eff} effective shard(s) (runtime.shards = {shards}, "
                f"{len(ordered)} host group(s))")

    # ---- assign groups: hints pin theirs first (pre-loading the
    # shards), then free groups go heaviest-first onto the least-loaded
    # shard (LPT).  Uniform weights degrade to round-robin: free groups
    # stay in min-pid order and each placement bumps one shard by the
    # same amount, so the least-loaded lowest-index shard cycles
    # 0, 1, ..., eff-1, 0, ...
    group_weights = {key: sum(weights.get(pid, 1.0) for pid in pids)
                     for key, pids in ordered}
    pid_shard: dict[int, int] = {}
    group_shard: list[tuple[tuple[str, ...], list[int], int]] = []
    loads = [0.0] * eff
    free: list[tuple[tuple[str, ...], list[int]]] = []
    for key, pids in ordered:
        hinted = sorted({hints[swn] for swn in key if swn in hints})
        if len(hinted) > 1:
            raise SpecError(
                f"runtime.shard_hints conflict for host group {key}: "
                f"hinted shards {hinted}")
        if hinted:
            s = hinted[0]
            loads[s] += group_weights[key]
            group_shard.append((key, pids, s))
            for pid in pids:
                pid_shard[pid] = s
        else:
            free.append((key, pids))
    for key, pids in sorted(free, key=lambda kv: (-group_weights[kv[0]],
                                                  min(kv[1]))):
        s = min(range(eff), key=lambda i: (loads[i], i))
        loads[s] += group_weights[key]
        group_shard.append((key, pids, s))
        for pid in pids:
            pid_shard[pid] = s
    host_shard = {host_names[pid]: s for pid, s in pid_shard.items()}

    # ---- host-attached switches follow the lowest-pid group they serve
    claims: dict[str, tuple[int, int]] = {}       # switch -> (min pid, shard)
    for key, pids, s in group_shard:
        for swn in key:
            cur = claims.get(swn)
            if cur is None or min(pids) < cur[0]:
                claims[swn] = (min(pids), s)
    switch_shard = {swn: s for swn, (_mp, s) in claims.items()}

    # ---- hostless switches (WAN backbones) join their nearest assigned
    # neighbor, preferring the shard with the smallest member pid
    shard_min_pid = {s: min(p for p, ps in pid_shard.items() if ps == s)
                     for s in set(pid_shard.values())}
    remaining = sorted(switches - set(switch_shard))
    while remaining:
        snapshot = dict(switch_shard)
        progressed = []
        for swn in remaining:
            cands = set()
            for label in routes.neighbors(swn):
                if label in snapshot:
                    cands.add(snapshot[label])
                elif label in host_shard:
                    cands.add(host_shard[label])
            if cands:
                switch_shard[swn] = min(
                    cands, key=lambda s: (shard_min_pid.get(s, n), s))
                progressed.append(swn)
        if not progressed:            # disconnected leftovers
            for swn in remaining:
                switch_shard[swn] = 0
            break
        remaining = [swn for swn in remaining if swn not in progressed]

    def node_shard(label: str) -> int:
        if label in switch_shard and label not in host_shard:
            return switch_shard[label]
        return host_shard[label]

    # ---- channel ownership + the cut set
    channel_shard: dict[str, int] = {}
    cut_dest: dict[str, int] = {}
    lookahead = math.inf
    for name, up, down, data in channels():
        su, sd = node_shard(up), node_shard(down)
        channel_shard[name] = su
        if su == sd:
            continue
        if up not in switches or down not in switches:
            raise SpecError(
                f"shard plan cuts {name!r}, a host link: hosts "
                "can never straddle a shard boundary — an HSM "
                "fabric may only be split across a switch-to-"
                "switch WAN trunk (adjust runtime.shard_hints)")
        if data["noisy"]:
            raise SpecError(
                f"shard plan cuts {name!r}, which models bit "
                "errors with a shared rng; only error-free WAN "
                "trunks can bridge shards")
        prop_delay_s = data["spec"].prop_delay_s
        if prop_delay_s <= 0:
            raise SpecError(
                f"shard plan cuts {name!r} with zero "
                "propagation delay: the conservative window "
                "needs positive lookahead on every cut")
        cut_dest[name] = sd
        lookahead = min(lookahead, prop_delay_s)
    return ShardPlan(n_shards=eff, lookahead=lookahead,
                     pid_shard=pid_shard, host_shard=host_shard,
                     switch_shard=switch_shard, channel_shard=channel_shard,
                     cut_dest=cut_dest, shard_loads=loads,
                     group_weights=group_weights)


# --------------------------------------------------------------------------
# worker side
# --------------------------------------------------------------------------

class _Aborted(BaseException):
    """Raised inside a worker when the coordinator aborts the run."""


class _SimulatedCrash(BaseException):
    """A :class:`~repro.faults.WorkerCrash` firing in a thread worker.

    Thread workers cannot ``os._exit`` (it would take the coordinator
    with them), so the chaos seam raises this instead and the worker
    body swallows it *without* sending anything — from the supervisor's
    side a dead thread and a dead process look the same: silence.
    """


class _QueueChannel:
    """Thread-mode stand-in for an mp ``Connection``.

    Mirrors the slice of the ``Connection`` API the supervisor uses:
    ``poll(timeout)`` peeks (buffering one message) so bounded-deadline
    receives work identically over queues and pipes.
    """

    def __init__(self, send_q: _queue.Queue, recv_q: _queue.Queue):
        self._send_q = send_q
        self._recv_q = recv_q
        self._buf: list = []

    def send(self, msg) -> None:
        self._send_q.put(msg)

    def poll(self, timeout: float = 0.0) -> bool:
        if self._buf:
            return True
        try:
            if timeout and timeout > 0:
                item = self._recv_q.get(timeout=timeout)
            else:
                item = self._recv_q.get_nowait()
        except _queue.Empty:
            return False
        self._buf.append(item)
        return True

    def recv(self):
        if self._buf:
            return self._buf.pop(0)
        return self._recv_q.get()

    def close(self) -> None:
        pass                        # queues have nothing to release


class _WorkerState:
    """Mutable per-worker protocol state shared by the runtime patches."""

    def __init__(self, shard_id: int, ctl, attempt: int = 0,
                 transport: str = "thread"):
        self.shard_id = shard_id
        self.ctl = ctl
        self.attempt = attempt      # sharded launch attempt (0 = first)
        self.transport = transport  # "thread" | "process"
        self.outbox: list[CutEvent] = []
        self.seq = 0
        self.window = 0             # 1-based once the report loop starts
        self.ran = False            # did the driver ever call rt.run()?
        self.finished = False
        self.t_final = 0.0
        self.channels: dict[str, Any] = {}
        self.worker_faults: tuple = ()


def _fire_worker_faults(state: _WorkerState) -> None:
    """The deterministic chaos seam: die or stall at a window boundary.

    Fires just before the worker reports for ``state.window``, so a
    :class:`~repro.faults.WorkerCrash` manifests as a *missing* report
    and a :class:`~repro.faults.WorkerStall` as a *late* one — exactly
    the two control-plane failures the supervisor classifies.  Keyed on
    the protocol round counter (and launch attempt), never wall-clock,
    so the same spec kills the same shard at the same point every run.
    """
    for ev in state.worker_faults:
        if not ev.matches(state.shard_id, state.window, state.attempt):
            continue
        if isinstance(ev, WorkerStall):
            time.sleep(ev.stall_s)
        elif isinstance(ev, WorkerCrash):
            if state.transport == "process":
                os._exit(66)
            raise _SimulatedCrash()


def _index_channels(fabric) -> dict[str, Any]:
    chans: dict[str, Any] = {}
    for _a, _b, data in fabric.graph.edges(data=True):
        link = data["link"]
        chans[link.fwd.name] = link.fwd
        chans[link.rev.name] = link.rev
    return chans


def _make_export(ch, dest_shard: int, state: _WorkerState) -> Callable:
    """An owned cut channel's ``_dispatch`` override: serialize + export."""

    def _export(burst) -> None:
        state.seq += 1
        state.outbox.append(CutEvent(
            arrival=ch.sim.now + ch.spec.prop_delay_s,
            src_shard=state.shard_id, seq=state.seq, dest_shard=dest_shard,
            channel=ch.name, vc_id=burst.vc.vc_id,
            vci=burst.vci, msg_id=burst.msg_id, n_cells=burst.n_cells,
            payload_bytes=burst.payload_bytes, is_final=burst.is_final,
            corrupted=burst.corrupted, enqueued_at=burst.enqueued_at,
            payload=burst.payload))
    return _export


def _inject(state: _WorkerState, cluster, rec: CutEvent) -> None:
    """Re-materialize an imported burst at exactly ``rec.arrival``.

    The burst's VC is rebound to this universe's replica (reassembly is
    keyed by VC object identity) — established here and now if this is
    the first this universe sees of the circuit — and delivery skips
    the replica channel's queue: serialization was already simulated
    upstream, only the propagation instant matters here.  ``call_at``
    plants the arrival at the exported float exactly, like a local hop.
    """
    from ..atm.cell import CellBurst
    vc = cluster.signaling.resolve(rec.vc_id)
    ch = state.channels[rec.channel]
    burst = CellBurst(vc=vc, vci=rec.vci, msg_id=rec.msg_id,
                      n_cells=rec.n_cells, payload_bytes=rec.payload_bytes,
                      is_final=rec.is_final, payload=rec.payload,
                      corrupted=rec.corrupted, enqueued_at=rec.enqueued_at,
                      vpi=vc.vpi)
    cluster.sim.call_at(rec.arrival, ch.endpoint.receive_burst, burst, ch)


def _patch_runtime(rt, cluster, plan: ShardPlan, state: _WorkerState) -> None:
    """Instance-patch ``rt.start``/``rt.run`` into shard-worker form."""
    from ..core.mps.error_control import MessageLost
    sim = cluster.sim
    shard = state.shard_id
    owned = plan.owned_pids(shard)
    state.channels = _index_channels(cluster.fabric)
    for name, dest in sorted(plan.cut_dest.items()):
        if plan.channel_shard[name] == shard:
            ch = state.channels[name]
            ch._dispatch = _make_export(ch, dest, state)
            ch._lag = 0.0   # export when serialization ends, as ever

    def start():
        if rt._started:
            raise RuntimeError("runtime already started")
        rt._started = True
        rt._procs = [None] * len(rt.nodes)
        rt._finish_times = [None] * len(rt.nodes)
        for pid in owned:
            proc = rt.nodes[pid].scheduler.start()
            rt._procs[pid] = proc
            proc.add_callback(
                lambda ev, i=pid: rt._finish_times.__setitem__(i, sim.now))
        return [rt._procs[pid] for pid in owned]

    def run(until=None, max_events=None,
            raise_thread_errors=True, raise_message_lost=True):
        if state.finished:
            raise SpecError(
                "the sharded kernel drives runtime.run() exactly once "
                "per scenario; restructure the driver to a single run")
        if max_events is not None:
            raise SpecError("max_events is not supported on the sharded "
                            "kernel (there is no global event counter)")
        state.ran = True
        if not rt._started:
            rt.start()
        ctl = state.ctl
        ctl.send(("hello", until))
        makespan = 0.0
        while True:
            state.window += 1
            _fire_worker_faults(state)
            done = [t for t in rt._finish_times if t is not None]
            ctl.send(("report", sim.peek(), tuple(state.outbox), sim._now,
                      max(done) if done else None))
            state.outbox.clear()
            msg = ctl.recv()
            kind = msg[0]
            if kind == "window":
                horizon, arrivals = msg[1], msg[2]
                for rec in arrivals:
                    _inject(state, cluster, rec)
                sim.run_below(horizon)
            elif kind == "final":
                state.t_final, makespan = msg[1], msg[2]
                state.finished = True
                break
            elif kind == "abort":
                raise _Aborted()
            else:  # pragma: no cover - protocol invariant
                raise SimulationError(
                    f"unexpected coordinator message {kind!r}")
        # align every universe's clock before telemetry close/export
        sim._now = state.t_final
        # owned-only epilogue, mirroring NcsRuntime.run
        if raise_thread_errors:
            for pid in owned:
                for thread in rt.nodes[pid].scheduler.threads.values():
                    if thread.error is not None:
                        raise thread.error
        for pid in owned:
            proc = rt._procs[pid]
            if proc is not None and proc.triggered and not proc.ok:
                _ = proc.value
        if raise_message_lost:
            lost = [m for pid in owned
                    for m in rt.nodes[pid].mps.lost_messages]
            if rt.resilience is not None:
                lost = [m for m in lost if not rt.resilience.forgives(m)]
            if lost:
                m = lost[0]
                raise MessageLost(
                    f"{len(lost)} message(s) permanently lost (first: "
                    f"{m.kind.value} {m.msg_uid} from process "
                    f"{m.from_process} to process {m.to_process})")
        unfinished = [rt._procs[pid] for pid in owned
                      if rt._procs[pid] is not None
                      and not rt._procs[pid].triggered]
        if rt.resilience is not None:
            unfinished = [rt._procs[pid] for pid in owned
                          if rt._procs[pid] is not None
                          and not rt._procs[pid].triggered
                          and not rt.nodes[pid].mps.host.frozen]
        if unfinished and until is None:
            names = ", ".join(p.name for p in unfinished)
            raise SimulationError(
                f"deadlock: schedulers never finished: {names}")
        return makespan

    rt.start = start
    rt.run = run


def _serialize_result(value, cluster, rt) -> dict:
    """A worker's contribution, flattened to plain picklable structures."""
    tracer = cluster.tracer
    return {
        "value": value,
        "view": ShardedClusterView(cluster, rt),
        "snapshot": cluster.metrics.snapshot(),
        "trace": {
            "timelines": {
                entity: [(iv.start, iv.end, iv.activity.value, iv.label)
                         for iv in tl.intervals]
                for entity, tl in tracer.timelines.items()},
            "events": list(tracer.events),
        },
    }


def _pid_weights(spec: ScenarioSpec, n_hosts: int):
    """Blueprint cost model: estimated event weight per pid.

    A site's weight is its hosts times driver intensity; point-to-point
    drivers (``pingpong``, ``stream``) load only pids 0 and 1, so their
    sites should not also absorb an equal share of bystander hosts.
    Everything else drives all pids uniformly (``None`` = all 1.0).
    """
    driver = spec.app.driver if spec.app is not None else None
    if driver in ("pingpong", "stream"):
        return {pid: (1.0 if pid < 2 else 1 / 16) for pid in range(n_hosts)}
    return None


def _plan(spec: ScenarioSpec, bp) -> ShardPlan:
    """The shard plan for ``bp``: computed from the blueprint alone,
    identically in the coordinator and in every worker."""
    from ..net.blueprint import PlanView
    return plan_shards(PlanView(bp), spec.shards, spec.shard_hints,
                       pid_weights=_pid_weights(spec, bp.n_hosts))


def _run_worker(spec: ScenarioSpec, shard_id: int, ctl,
                attempt: int = 0, transport: str = "thread") -> None:
    """One shard worker: materialize the owned shard, drive it by
    windows."""
    from ..net.blueprint import materialize
    try:
        driver = APP_DRIVERS.get(spec.app.driver)
        run = ScenarioRun(spec)
        state = _WorkerState(shard_id, ctl, attempt=attempt,
                             transport=transport)
        if spec.faults is not None:
            state.worker_faults = tuple(
                ev for ev in spec.faults.to_plan().worker_events
                if ev.shard == shard_id and ev.attempt == attempt)
        bp = build_blueprint(spec.cluster, spec.obs)
        plan = _plan(spec, bp)
        # pre-seeding run.cluster routes the partial cluster through
        # build_runtime's normal bring-up (faults, barriers)
        run.cluster = cluster = materialize(bp, owned_switches={
            swn for swn, s in plan.switch_shard.items() if s == shard_id})
        rt = run.runtime
        _patch_runtime(rt, cluster, plan, state)
        value = driver(run)
        if not state.ran:
            raise SpecError(
                f"driver {spec.app.driver!r} never drove the spec-built "
                "runtime; the sharded kernel requires a runtime driver "
                "(self-contained apps build their own cluster)")
        cluster.sim._now = state.t_final
        cluster.tracer.close_all()
        payload = _serialize_result(value, cluster, rt)
        try:
            ctl.send(("done", payload))
        except Exception as exc:
            ctl.send(("error", RuntimeError(
                f"shard {shard_id}: result not transferable: {exc!r}")))
    except _SimulatedCrash:
        return                      # die silently, like the real thing
    except _Aborted:
        ctl.send(("aborted",))
    except BaseException as exc:  # noqa: BLE001 - reported to coordinator
        try:
            ctl.send(("error", exc))
        except Exception:
            ctl.send(("error", RuntimeError(
                f"shard {shard_id}: {type(exc).__name__}: {exc}")))


def _worker_process_main(doc_json: str, shard_id: int, conn,
                         attempt: int = 0) -> None:
    """Forked-child entry: rebuild the spec and run the worker body."""
    from ..config.build import ensure_components
    ensure_components()
    spec = ScenarioSpec.from_dict(json.loads(doc_json))
    _run_worker(spec, shard_id, conn, attempt=attempt, transport="process")


# --------------------------------------------------------------------------
# coordinator + supervision
# --------------------------------------------------------------------------

class _Supervisor:
    """Watchdog wrapping every coordinator-side control-queue receive.

    Each :meth:`recv` is bounded by the spec's barrier deadline and
    interleaved with liveness polls every ``liveness_poll_s``, so a
    crashed worker is detected within one poll interval — not after the
    full deadline — while a wedged-but-alive worker is declared
    ``hung`` only once the deadline truly expires.  All timing is
    wall-clock (:func:`time.monotonic`): the supervisor never reads or
    feeds simulated time, which is what keeps a supervised run
    byte-identical to an unsupervised one.
    """

    def __init__(self, ctls, workers, mode: str, spec: SupervisionSpec):
        self.ctls = ctls
        self.workers = workers
        self.mode = mode
        self.spec = spec
        self.window = 0                 # current coordinator round
        now = time.monotonic()
        self.last_good = [now] * len(ctls)

    def fail(self, shard: int, reason: str,
             detail: str = "") -> ShardWorkerError:
        return ShardWorkerError(shard=shard, window=self.window,
                                reason=reason, detail=detail,
                                last_good=self.last_good[shard])

    def recv(self, shard: int, timeout: Optional[float] = None):
        """One supervised receive; raises :class:`ShardWorkerError`."""
        budget = self.spec.barrier_deadline_s if timeout is None else timeout
        deadline = time.monotonic() + budget
        ctl = self.ctls[shard]
        while True:
            remaining = deadline - time.monotonic()
            step = min(self.spec.liveness_poll_s, max(remaining, 0.0))
            try:
                ready = ctl.poll(step)
            except (EOFError, OSError) as exc:
                raise self.fail(shard, "crashed",
                                f"control channel failed: {exc!r}")
            if ready:
                try:
                    msg = ctl.recv()
                except EOFError:
                    raise self.fail(shard, "crashed",
                                    "worker closed its control channel "
                                    "without reporting") from None
                except OSError as exc:
                    raise self.fail(shard, "crashed",
                                    f"control channel failed: {exc!r}")
                except Exception as exc:
                    raise self.fail(shard, "poisoned",
                                    f"undecodable control payload: {exc!r}")
                self.last_good[shard] = time.monotonic()
                return msg
            if not self.workers[shard].is_alive():
                # one last zero-timeout peek: the worker may have sent
                # its message and exited between our poll and this check
                try:
                    if ctl.poll(0):
                        continue
                except (EOFError, OSError):
                    pass
                if self.mode == "process":
                    code = self.workers[shard].exitcode
                    detail = f"worker process exited with code {code}"
                else:
                    detail = "worker thread exited without reporting"
                raise self.fail(shard, "crashed", detail)
            if remaining <= 0:
                raise self.fail(
                    shard, "hung",
                    f"no report within the {budget:g}s barrier deadline "
                    "(worker still alive)")

    def abort(self, failed: Optional[int], active, errors) -> None:
        """Stop every worker after a failure, draining survivors.

        The abort is sent to the *failed* shard too: a stalled thread
        worker eventually wakes, reads it and exits cleanly instead of
        blocking forever on a control queue nobody serves anymore.
        Survivor drains are bounded by the worker grace period — a
        worker that wedges while aborting is simply left for teardown.
        """
        for s in active:
            if s == failed:
                continue
            try:
                self.ctls[s].send(("abort",))
            except Exception:
                pass
        if failed is not None:
            try:
                self.ctls[failed].send(("abort",))
            except Exception:
                pass
        for s in active:
            if s == failed:
                continue
            while True:
                try:
                    msg = self.recv(s, timeout=self.spec.worker_grace_s)
                except ShardWorkerError:
                    break           # died/wedged mid-abort: teardown's job
                if msg[0] in ("aborted", "done"):
                    break
                if msg[0] == "error":
                    errors.setdefault(s, msg[1])
                    break


def _coordinate(ctls, workers, plan: ShardPlan,
                supervision: SupervisionSpec, mode: str) -> list[dict]:
    """Drive the window protocol; return per-shard result payloads.

    Worker-*reported* errors (driver exceptions, spec violations) abort
    the survivors and re-raise the worker's own exception, exactly as
    before supervision existed.  Worker *silence* — crash, hang,
    poisoned channel — surfaces as :class:`ShardWorkerError` so the
    recovery policy in :func:`run_scenario_sharded` can act on it.
    """
    S = plan.n_shards
    sup = _Supervisor(ctls, workers, mode, supervision)
    active = list(range(S))
    errors: dict[int, BaseException] = {}

    def fail_over(exc: ShardWorkerError):
        sup.abort(exc.shard, active, errors)
        raise exc

    def reported(errors) -> None:
        sup.abort(None, [s for s in active if s not in errors], errors)
        raise errors[min(errors)]

    hellos: dict[int, Any] = {}
    for s in active:
        try:
            msg = sup.recv(s)
        except ShardWorkerError as exc:
            fail_over(exc)
        if msg[0] == "error":
            errors[s] = msg[1]
        else:
            hellos[s] = msg[1]
    if errors:
        reported(errors)
    until = hellos[0]
    if any(hellos[s] != until for s in active):
        errors[0] = SpecError(
            f"workers disagree on run(until=...): {sorted(hellos.items())}")
        reported(errors)

    pending: list[list[CutEvent]] = [[] for _ in range(S)]
    while True:
        sup.window += 1
        reports: dict[int, tuple] = {}
        for s in active:
            try:
                msg = sup.recv(s)
            except ShardWorkerError as exc:
                fail_over(exc)
            if msg[0] == "error":
                errors[s] = msg[1]
            else:
                reports[s] = msg
        if errors:
            reported(errors)
        for s in active:
            for rec in reports[s][2]:
                pending[rec.dest_shard].append(rec)
        peeks = [reports[s][1] for s in active]
        arrivals = [rec.arrival for box in pending for rec in box]
        gm, horizon = next_window(peeks, arrivals, plan.lookahead)
        if math.isinf(gm) or (until is not None and gm > until):
            if until is not None and not math.isinf(gm):
                t_final = until
            else:
                t_final = max(reports[s][3] for s in active)
            done = [reports[s][4] for s in active
                    if reports[s][4] is not None]
            makespan = max(done) if done else t_final
            for s in active:
                ctls[s].send(("final", t_final, makespan))
            break
        if until is not None:
            horizon = min(horizon, math.nextafter(until, math.inf))
        for s in active:
            box = merge_cut_events([pending[s]])
            pending[s] = []
            ctls[s].send(("window", horizon, tuple(box)))

    payloads: list[Optional[dict]] = [None] * S
    for s in active:
        try:
            msg = sup.recv(s)
        except ShardWorkerError as exc:
            fail_over(exc)
        if msg[0] == "error":
            errors[s] = msg[1]
        elif msg[0] == "done":
            payloads[s] = msg[1]
    if errors:
        raise errors[min(errors)]
    return payloads  # type: ignore[return-value]


# --------------------------------------------------------------------------
# deterministic merges + single-universe facades
# --------------------------------------------------------------------------

def _parse_labels(label_str: str) -> dict[str, str]:
    if not label_str:
        return {}
    return dict(kv.split("=", 1) for kv in label_str.split(","))


def _merge_leaf(name: str, label_str: str, snaps: list[dict],
                plan: ShardPlan):
    """One metric series, resolved to its owning shard (or summed)."""
    labels = _parse_labels(label_str)
    if "pid" in labels:
        owner = plan.pid_shard.get(int(labels["pid"]), 0)
    elif "host" in labels:
        owner = plan.host_shard.get(labels["host"], 0)
    elif "switch" in labels:
        owner = plan.switch_shard.get(labels["switch"], 0)
    elif "link" in labels:
        owner = plan.channel_shard.get(labels["link"], 0)
    elif name.startswith("sim."):
        vals = [s.get(name, {}).get(label_str, 0) for s in snaps]
        if all(isinstance(v, (int, float)) for v in vals):
            return sum(vals)
        owner = 0
    elif name.startswith("faults."):
        owner = 0
    else:
        # no owner label: only shards that materialized the entity
        # publish the series, so take the largest present value — right
        # for a series one shard writes, which is why every per-entity
        # series carries its owner (pid, host, switch or link) as a label
        vals = [s[name][label_str] for s in snaps
                if label_str in s.get(name, {})]
        if vals and all(isinstance(v, (int, float)) for v in vals):
            return max(vals)
        owner = 0
    present = [s for s in snaps if label_str in s.get(name, {})]
    base = present[0][name][label_str] if present else 0
    return snaps[owner].get(name, {}).get(label_str, base)


def _merge_snapshots(snaps: list[dict], plan: ShardPlan) -> dict:
    """Rebuild the single-kernel metric snapshot from per-shard views.

    Each series is taken wholesale from the shard that owns its labeled
    entity.  A shard only publishes what it materialized, so the merged
    snapshot is the union across shards in first-seen order.  Unlabeled
    ``sim.*`` meters are summed (each worker counts its own calendar),
    ``faults.*`` come from shard 0 (fault timers fire identically
    everywhere).
    """
    out: dict[str, dict[str, Any]] = {}
    for snap in snaps:
        for name, series in snap.items():
            dst = out.setdefault(name, {})
            for label_str in series:
                if label_str not in dst:
                    dst[label_str] = _merge_leaf(name, label_str, snaps,
                                                 plan)
    return out


def _entity_shard(entity: str, plan: ShardPlan) -> int:
    """Which shard's tracer records are authoritative for ``entity``."""
    if entity.startswith("fault:"):
        return 0
    if ":" in entity:
        kind, _, rest = entity.partition(":")
        if kind == "nic":
            return plan.host_shard.get(rest, 0)
        if kind in ("ncs", "ec", "detector", "failover") and rest.isdigit():
            return plan.pid_shard.get(int(rest), 0)
        if kind == "resilience":
            return plan.pid_shard.get(0, 0)          # coordinator home
        return 0
    host = entity.split("/", 1)[0]
    if host in plan.host_shard:
        return plan.host_shard[host]
    return plan.switch_shard.get(host, 0)


def _merge_traces(traces: list[dict], plan: ShardPlan):
    """Owner-filtered union of timelines + shard-ordered event concat.

    ``repro.obs.export.iter_records`` stable-sorts records by
    ``(t, kind, entity)``, so as long as each entity's records come
    from exactly one shard (preserving that shard's per-entity order)
    the exported Chrome trace is identical to the single-kernel one.
    """
    timelines: dict[str, Timeline] = {}
    events: list[tuple] = []
    for s, tr in enumerate(traces):
        for entity, rows in tr["timelines"].items():
            if _entity_shard(entity, plan) == s:
                tl = Timeline(entity)
                tl.intervals = [Interval(a, b, Activity(act), lab)
                                for a, b, act, lab in rows]
                timelines[entity] = tl
        events.extend(ev for ev in tr["events"]
                      if _entity_shard(ev[1], plan) == s)
    return {e: timelines[e] for e in sorted(timelines)}, events


def _merge_values(values: list):
    """Merge per-shard driver return values into the single-kernel one.

    Rules: equal values pass through; dicts merge per key; lists keep
    the longest variant (per-pid accumulators are empty on ghosts);
    unequal numbers keep the max (counts only grow where the pid is
    real); ``None`` ghosts defer to any real value.  Drivers that fold
    cross-pid state into scalars locally (``collective``'s ok-flags,
    ``stream``'s mean latency) are outside this contract — use per-pid
    structures instead.
    """
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    head = vals[0]
    try:
        if all(bool(v == head) for v in vals[1:]):
            return head
    except Exception:
        pass
    if all(isinstance(v, dict) for v in vals):
        return {k: _merge_values([v.get(k) for v in vals]) for k in head}
    if all(isinstance(v, list) for v in vals):
        return max(vals, key=len)
    if all(isinstance(v, (int, float)) for v in vals):
        return max(vals)
    return head


class MergedMetrics:
    """A read-only :class:`~repro.obs.registry.MetricsRegistry` facade
    over the merged snapshot (enough surface for exports, fleet KPI
    extraction and ``repro.run``'s summaries)."""

    def __init__(self, snapshot: dict):
        self._snapshot = snapshot
        self.enabled = True

    def snapshot(self) -> dict:
        return self._snapshot

    def total(self, name: str):
        total = 0
        for leaf in self._snapshot.get(name, {}).values():
            if isinstance(leaf, (int, float)):
                total += leaf
            elif isinstance(leaf, dict):
                total += leaf.get("sum", 0)
        return total

    def value(self, name: str, default=0, **labels):
        key = ",".join(f"{k}={v}" for k, v in
                       sorted((k, str(v)) for k, v in labels.items()))
        return self._snapshot.get(name, {}).get(key, default)


class MergedTracer:
    """A :class:`~repro.sim.Tracer` facade over merged shard traces."""

    def __init__(self, timelines: dict[str, Timeline], events: list[tuple]):
        self.timelines = timelines
        self.events = events
        self.enabled = True

    def close_all(self) -> None:
        pass                       # workers closed their intervals already

    def timeline(self, entity: str) -> Timeline:
        tl = self.timelines.get(entity)
        if tl is None:
            tl = self.timelines[entity] = Timeline(entity)
        return tl

    def points(self, kind=None, entity=None) -> list[tuple]:
        return [e for e in self.events
                if (kind is None or e[2] == kind)
                and (entity is None or e[1] == entity)]


class ShardedClusterView:
    """The slice of ``Cluster`` the post-run consumers actually touch:
    the merged telemetry (filled in by the coordinator) plus the entity
    names :func:`repro.diagnostics.cluster_report` is keyed by.

    A worker builds it from its own universe, which knows every name
    (ghost rows and route-only switches carry theirs; a topology is
    homogeneous in host rail and transport), and ships it home.
    """

    def __init__(self, cluster, rt):
        ns = SimpleNamespace
        real = next(n for n in rt.nodes if n.transport is not None)
        atm_api = True if cluster.stacks[real.pid].atm_api else None
        self.tracer: Optional[MergedTracer] = None
        self.metrics: Optional[MergedMetrics] = None
        self.medium = cluster.medium
        self.lan = True if cluster.lan is not None else None
        self.fabric = (None if cluster.fabric is None else ns(
            switches=dict.fromkeys(cluster.fabric.switch_names)))
        self.stacks = [ns(host=ns(name=s.host.name), atm_api=atm_api)
                       for s in cluster.stacks]
        #: the ``runtime`` twin: what the report reads of each NCS node
        self.runtime = ns(nodes=[
            ns(pid=pid, transport=ns(name=real.transport.name))
            for pid in range(len(self.stacks))])

    @property
    def n_hosts(self) -> int:
        return len(self.stacks)


# --------------------------------------------------------------------------
# the registered kernel
# --------------------------------------------------------------------------

def _launch_threads(spec: ScenarioSpec, n: int, attempt: int = 0):
    ctls, workers = [], []
    for s in range(n):
        to_worker: _queue.Queue = _queue.Queue()
        from_worker: _queue.Queue = _queue.Queue()
        worker_ctl = _QueueChannel(from_worker, to_worker)
        ctls.append(_QueueChannel(to_worker, from_worker))
        workers.append(threading.Thread(
            target=_run_worker, args=(spec, s, worker_ctl),
            kwargs={"attempt": attempt, "transport": "thread"},
            name=f"shard-{s}", daemon=True))
    for t in workers:
        t.start()
    return ctls, workers


def _launch_processes(spec: ScenarioSpec, n: int, attempt: int = 0):
    ctx = multiprocessing.get_context("fork")
    doc = spec.canonical_json()
    ctls, workers = [], []
    for s in range(n):
        parent_conn, child_conn = ctx.Pipe()
        p = ctx.Process(target=_worker_process_main,
                        args=(doc, s, child_conn, attempt),
                        name=f"shard-{s}")
        ctls.append(parent_conn)
        workers.append(p)
    for p in workers:
        p.start()
    return ctls, workers


def _shutdown_workers(ctls, workers, mode: str, grace: float) -> list[int]:
    """Deterministic teardown: abort, join with a grace period, reap.

    Every worker gets an explicit ``("abort",)`` before the join — a
    worker still in its protocol loop exits at its next receive instead
    of leaking, and one that already finished just ignores queue
    garbage.  Process workers that outlive the grace period are
    ``terminate()``d then ``kill()``ed; thread workers cannot be killed,
    so their shard ids are *returned* for the caller to act on (raise on
    the success path, tolerate on the failure path — a stalled chaos
    thread wakes, reads its abort and exits on its own).
    """
    for ctl in ctls:
        try:
            ctl.send(("abort",))
        except Exception:
            pass
    for w in workers:
        w.join(timeout=grace)
    leaked = [s for s, w in enumerate(workers) if w.is_alive()]
    if mode == "process":
        for s in leaked:              # pragma: no cover - crash cleanup
            workers[s].terminate()
        for s in leaked:              # pragma: no cover - crash cleanup
            workers[s].join(timeout=grace)
            if workers[s].is_alive():
                workers[s].kill()
                workers[s].join(timeout=grace)
        for ctl in ctls:
            try:
                ctl.close()
            except Exception:
                pass
        leaked = [s for s in leaked if workers[s].is_alive()]
    return leaked


def _fallback_single(spec: ScenarioSpec, reason: str, detail: str,
                     failures=(), retries: int = 0) -> ScenarioResult:
    """Run the single kernel — loudly when ``shards > 1`` degrades.

    ``reason`` is a short slug (``"trivial-plan"``, ``"partial-cluster"``,
    ``"worker-crashed"``, ...) stamped as the ``reason=`` label on the
    ``kernel.shard_fallback`` counter, so fleets can tell a topology
    that legitimately collapses apart from a recovery degradation;
    ``detail`` is the human sentence for the warning.  When the
    fallback *recovers* from worker failures, the ``kernel.recovery.*``
    family is stamped too.
    """
    degraded = spec.shards > 1
    if degraded:
        warnings.warn(ShardFallbackWarning(
            f"scenario {spec.name!r}: runtime.shards = {spec.shards} "
            f"falls back to the single kernel [{reason}]: {detail}"),
            stacklevel=3)
        logger.info("scenario %r: shard fallback [%s]: %s",
                    spec.name, reason, detail)
    result = KERNELS.get("single")(spec)
    if degraded:
        metrics = getattr(result.cluster, "metrics", None)
        if metrics is not None and hasattr(metrics, "counter"):
            metrics.counter(
                "kernel.shard_fallback",
                help="sharded-kernel runs degraded to the single kernel",
                reason=reason).inc()
        if failures:
            stamp_recovery(metrics, getattr(result.cluster, "tracer", None),
                           failures, retries=retries, fallback_reason=reason)
    return result


@KERNELS.register(
    "sharded",
    help="conservative parallel kernel: one worker universe per host group")
def run_scenario_sharded(spec: ScenarioSpec,
                         mode: Optional[str] = None) -> ScenarioResult:
    """Execute ``spec`` across shard workers and merge one result view.

    ``mode`` is ``"process"`` (forked workers, real parallelism) or
    ``"thread"`` (in-process workers, used by tests and platforms
    without ``fork``); default :data:`DEFAULT_MODE`.  When the plan
    collapses to one shard the registered ``single`` kernel runs
    instead, bit-identically (with a :class:`ShardFallbackWarning` if
    the spec asked for more).

    Execution is supervised: worker failures (crash, hang, poisoned
    channel) are classified into :class:`ShardWorkerError` and handled
    per ``spec.supervision.policy`` — relaunch the sharded run up to
    ``max_retries`` times, degrade to the single kernel, or raise.
    Either recovery is deterministic; a recovered run's behaviour is
    byte-identical to an undisturbed one, with the recovery itself
    visible in ``kernel.recovery.*``.

    Planning reads only the topology blueprint (a
    :class:`~repro.net.blueprint.PlanView` over the declarative graph):
    no cluster is built in the coordinator.  A spec whose cluster table
    names no complete blueprint (the self-contained table apps build
    their own platform cluster) runs on the single kernel.
    """
    from ..config.build import ensure_components
    ensure_components()
    if spec.app is None:
        raise SpecError(
            f"scenario {spec.name!r} has no [app] table; nothing to run "
            "(specs without an app can still be built via build_runtime)")
    APP_DRIVERS.get(spec.app.driver)          # fail fast on unknown names
    try:
        bp = build_blueprint(spec.cluster, spec.obs)
    except SpecError:
        # self-contained drivers leave the spec's cluster table partial
        # — there is nothing to partition, so the single kernel runs
        # (and re-raises if the spec is genuinely broken)
        return _fallback_single(
            spec, "partial-cluster",
            "the spec's cluster table is partial (self-contained "
            "drivers build their own cluster)")
    plan = _plan(spec, bp)
    if plan.n_shards <= 1:
        return _fallback_single(
            spec, "trivial-plan",
            "the topology collapses to one shard (a shared LAN "
            "medium, no ATM fabric, or a single host group)")
    logger.info(
        "scenario %r: %d shard(s), lookahead %.6gs, loads %s",
        spec.name, plan.n_shards, plan.lookahead,
        [round(w, 3) for w in plan.shard_loads])
    mode = mode or DEFAULT_MODE
    if mode not in ("thread", "process"):
        raise SpecError(f"unknown sharded-kernel mode {mode!r}; "
                        "expected 'thread' or 'process'")
    launch = _launch_threads if mode == "thread" else _launch_processes
    supervision = spec.supervision
    failures: list[ShardWorkerError] = []
    attempt = 0
    while True:
        ctls, workers = launch(spec, plan.n_shards, attempt)
        try:
            payloads = _coordinate(ctls, workers, plan, supervision, mode)
        except ShardWorkerError as err:
            _shutdown_workers(ctls, workers, mode,
                              supervision.worker_grace_s)
            failures.append(err)
            logger.warning("scenario %r: attempt %d: %s",
                           spec.name, attempt, err)
            if attempt < supervision.retries_allowed:
                attempt += 1
                continue
            if supervision.falls_back:
                return _fallback_single(
                    spec, f"worker-{err.reason}", str(err),
                    failures=failures, retries=attempt)
            raise
        except BaseException:
            # worker-reported errors (driver bugs, spec violations) and
            # coordinator crashes: tear down and re-raise untouched —
            # recovery is only for substrate failures
            _shutdown_workers(ctls, workers, mode,
                              supervision.worker_grace_s)
            raise
        leaked = _shutdown_workers(ctls, workers, mode,
                                   supervision.worker_grace_s)
        if leaked:
            raise ShardWorkerError(
                shard=leaked[0], window=-1, reason="hung",
                detail=(f"worker thread(s) {leaked} never joined within "
                        f"the {supervision.worker_grace_s:g}s grace "
                        "period after a completed run"))
        break
    value = _merge_values([p["value"] for p in payloads])
    snapshot = _merge_snapshots([p["snapshot"] for p in payloads], plan)
    # KPI-stamp the plan choice (behavior walls strip "kernel." names)
    snapshot["kernel.shards"] = {"": plan.n_shards}
    if math.isfinite(plan.lookahead):
        snapshot["kernel.lookahead_s"] = {"": plan.lookahead}
    snapshot["kernel.shard_load"] = {
        f"shard={s}": w for s, w in enumerate(plan.shard_loads)}
    timelines, events = _merge_traces([p["trace"] for p in payloads], plan)
    if failures:
        # the run *recovered*: say so in the snapshot and on the trace.
        # kernel.* series and the supervisor entity are substrate
        # telemetry — behaviour walls strip both, preserving the
        # byte-identity guarantee for recovered runs.
        stamp_recovery_snapshot(snapshot, failures, retries=attempt)
        events.extend((0.0, SUPERVISOR_ENTITY, "kernel.recovery", str(f))
                      for f in failures)
    view = payloads[0]["view"]
    view.tracer = MergedTracer(timelines, events)
    view.metrics = MergedMetrics(snapshot)
    result = ScenarioResult(spec, value, view, view.runtime)
    _export_obs(result)
    return result
