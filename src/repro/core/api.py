"""The NCS public API: runtime bring-up and the Fig 10 program model.

The paper's generic application model::

    NCS_init(flow, error)                 # environment + system threads
    tid1 = NCS_t_create(Thread1, arg, priority)
    ...
    NCS_start()                           # run the threads

maps to::

    runtime = NcsRuntime(cluster, mode=ServiceMode.P4, flow=..., error=...)
    runtime.t_create(pid, thread_fn, args, priority)
    runtime.start()
    runtime.run()

One :class:`NcsRuntime` spans the whole cluster: it instantiates, per
process, an MTS scheduler, a transport for the chosen service mode and
an MPS with its system threads.  ``run()`` drives the simulation to
completion and re-raises the first thread failure, so tests and
benchmarks never silently swallow application bugs.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..net.topology import Cluster
from ..p4.api import P4Params
from ..registry import TRANSPORTS
from ..sim import SimProcess, SimulationError
from .mts.scheduler import DEFAULT_PRIORITY, MtsScheduler
from .mps.collectives import make_collectives
from .mps.core import NcsMps
from .mps.error_control import ErrorControl, MessageLost, make_error_control
from .mps.flow_control import FlowControl, make_flow_control
from .mps.message import is_process
from .mps.qos import QosContract, ServiceMode, flow_control_for
from .mps.transports import NcsTransport  # noqa: F401  (re-export surface)

__all__ = ["NcsRuntime", "NcsNode"]


class NcsNode:
    """Everything NCS attaches to one OS process."""

    def __init__(self, runtime: "NcsRuntime", pid: int):
        self.runtime = runtime
        self.pid = pid
        cluster = runtime.cluster
        self.scheduler = MtsScheduler(cluster.process(pid))
        mode = runtime.mode
        key = mode.value if isinstance(mode, ServiceMode) else mode
        if key is None or not isinstance(key, str):
            raise ValueError(
                f"service mode must name a registered transport "
                f"({', '.join(TRANSPORTS.names())}); got {mode!r}")
        # unknown names raise UnknownNameError (a ValueError) listing
        # the registered transports
        factory = TRANSPORTS.get(key)
        self.transport: NcsTransport = factory(runtime, pid)
        self.mps = NcsMps(
            self.scheduler, cluster, self.transport,
            flow_control=runtime.make_fc(),
            error_control=runtime.make_ec(),
            collectives=make_collectives(runtime.collectives, runtime, pid))


class NcsRuntime:
    """Cluster-wide NCS bring-up (``NCS_init`` writ large)."""

    def __init__(self, cluster: Cluster,
                 mode: ServiceMode | str = ServiceMode.P4,
                 flow: Optional[str | QosContract] = None,
                 error: Optional[str] = None,
                 p4_params: Optional[P4Params] = None,
                 flow_kwargs: Optional[dict] = None,
                 error_kwargs: Optional[dict] = None,
                 resilience: Optional[Any] = None,
                 collectives: str = "host"):
        self.cluster = cluster
        self.sim = cluster.sim
        #: collective strategy name (repro.registry.COLLECTIVES);
        #: "nic" offloads barrier/bcast/reduce to the SBA-200 engines
        self.collectives = collectives
        #: optional ClusterResilience — must be set *before* the nodes
        #: are built (the hsm-failover transport builder reads its
        #: breaker parameters off the runtime)
        self.resilience = resilience
        if isinstance(mode, str):
            try:
                mode = ServiceMode(mode)
            except ValueError:
                # not one of the paper's three tiers: keep the string and
                # let the transport registry resolve (or reject) it, so
                # third-party transports plug in by name alone
                pass
        self.mode = mode
        self.p4_params = p4_params or P4Params()
        self._flow_spec = flow
        self._error_spec = error
        self._flow_kwargs = flow_kwargs or {}
        self._error_kwargs = error_kwargs or {}
        self.nodes = [NcsNode(self, pid) for pid in range(cluster.n_hosts)]
        if resilience is not None:
            resilience.attach(self)
        #: the pids :meth:`start` starts: every one, except in a sharded
        #: worker, which runs only the pids its shard owns
        self.owned_pids = range(cluster.n_hosts)
        self._started = False
        self._procs: dict[int, SimProcess] = {}
        self._finish_times: dict[int, float] = {}

    # each node needs its own strategy instances (they hold per-node state)
    def make_fc(self) -> FlowControl:
        spec = self._flow_spec
        if isinstance(spec, QosContract):
            return flow_control_for(spec)
        if isinstance(spec, FlowControl):
            raise TypeError(
                "pass a flow-control *name* or QosContract; instances "
                "cannot be shared across processes")
        return make_flow_control(spec, **self._flow_kwargs)

    def make_ec(self) -> ErrorControl:
        spec = self._error_spec
        if isinstance(spec, ErrorControl):
            raise TypeError(
                "pass an error-control *name*; instances cannot be "
                "shared across processes")
        return make_error_control(spec, **self._error_kwargs)

    # --------------------------------------------------------------- threads
    def node(self, pid: int) -> NcsNode:
        return self.nodes[pid]

    def t_create(self, pid: int, fn: Callable[..., Generator],
                 args: tuple = (), priority: int = DEFAULT_PRIORITY,
                 name: str = "") -> int:
        """``NCS_t_create`` on process ``pid``; returns the tid."""
        if not is_process(pid, len(self.nodes)):
            raise ValueError(f"NCS_t_create: no such process {pid!r}")
        return self.nodes[pid].scheduler.t_create(fn, args, priority,
                                                  name=name)

    def register_barrier(self, barrier_id: int, parties: int) -> None:
        """Declare a cluster-wide barrier (all processes must agree)."""
        if parties < 1:
            raise ValueError("parties must be >= 1")
        for node in self.nodes:
            node.mps.barrier_parties[barrier_id] = parties

    # ------------------------------------------------------------------ run
    def start(self) -> list[SimProcess]:
        """``NCS_start`` on every process of :attr:`owned_pids`."""
        if self._started:
            raise RuntimeError("runtime already started")
        self._started = True
        for pid in self.owned_pids:
            proc = self._procs[pid] = self.nodes[pid].scheduler.start()
            proc.add_callback(
                lambda ev, pid=pid: self._finish_times.__setitem__(
                    pid, self.sim.now))
        return list(self._procs.values())

    def advance(self, until: Optional[float] = None,
                max_events: Optional[int] = None) -> float:
        """Run the calendar for :meth:`run`; return the makespan.

        This is the one step of :meth:`run` that depends on the kernel.
        A sharded worker replaces it on its runtime with the window
        protocol (:class:`repro.sim.sharded.worker.ShardWorker`), and
        every check :meth:`run` makes afterwards is the same on both
        kernels.
        """
        self.sim.run(until=until, max_events=max_events)
        return max(self._finish_times.values(), default=self.sim.now)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            raise_thread_errors: bool = True,
            raise_message_lost: bool = True) -> float:
        """Start (if needed), run the simulation, return the makespan.

        The makespan is the time the last scheduler finished — i.e. the
        end of the slowest process's last user thread, which is how the
        paper's tables measure "execution time".  (The simulation itself
        may run slightly longer while protocol timers — delayed ACKs,
        retransmission timeouts — drain; that tail is not application
        time and is excluded.)

        With ``raise_message_lost`` (the default), a message that error
        control permanently gave up on raises :class:`MessageLost` here —
        checked *before* the deadlock diagnostic, because the lost
        message is usually why peers are still waiting.  Pass False to
        inspect ``node.mps.lost_messages`` yourself (e.g. chaos sweeps
        that tolerate partitions).
        """
        if not self._started:
            self.start()
        makespan = self.advance(until, max_events)
        # surface application failures first: a crashed thread is usually
        # the *cause* of any peers left waiting
        if raise_thread_errors:
            self.raise_thread_errors()
        for proc in self._procs.values():
            if proc.triggered and not proc.ok:
                _ = proc.value   # re-raise the scheduler's own failure
        # ... and a delivery that died on its way up to a receiver
        for node in self.nodes:
            adapter = node.mps.host.interfaces.get("atm")
            if getattr(adapter, "first_delivery_error", None) is not None:
                raise adapter.first_delivery_error
        if raise_message_lost:
            lost = [m for node in self.nodes
                    for m in node.mps.lost_messages]
            if self.resilience is not None:
                # losses to a crashed/confirmed-dead destination are the
                # handled cost of a survived failure, not an error
                lost = [m for m in lost if not self.resilience.forgives(m)]
            if lost:
                m = lost[0]
                raise MessageLost(
                    f"{len(lost)} message(s) permanently lost (first: "
                    f"{m.kind.value} {m.msg_uid} from process "
                    f"{m.from_process} to process {m.to_process})")
        unfinished = [p for p in self._procs.values() if not p.triggered]
        if self.resilience is not None:
            # a crashed (frozen) host's scheduler can never finish; with
            # resilience armed that is a survived failure, not a deadlock
            unfinished = [
                p for pid, p in self._procs.items()
                if not p.triggered and not self.nodes[pid].mps.host.frozen]
        if unfinished and until is None:
            names = ", ".join(p.name for p in unfinished)
            raise SimulationError(
                f"deadlock: schedulers never finished: {names}")
        return makespan

    def raise_thread_errors(self) -> None:
        for node in self.nodes:
            for thread in node.scheduler.threads.values():
                if thread.error is not None:
                    raise thread.error

    def thread_result(self, pid: int, tid: int) -> Any:
        return self.nodes[pid].scheduler.thread(tid).result
