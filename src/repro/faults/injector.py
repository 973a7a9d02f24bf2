"""The fault injector: arms a :class:`~repro.faults.plan.FaultPlan`
against a built cluster.

The injector schedules every event's begin (and, for transient faults,
its heal) on the simulation calendar via ``sim.call_at``, flips the
fault hooks the network/host layers expose (``Channel.fail``,
``Host.freeze``, ``AtmSwitch.stall_port``, ``NcsMps.rx_fault``, ...),
and records what it did in three places:

* ``injector.log`` — a deterministic ``(t, edge, description)`` list;
* the cluster tracer — one ``Activity.FAULT`` interval per event (entity
  ``fault:<index>``), so fault windows land on the same timelines as
  the compute/communicate intervals of Fig 16;
* the layers' own registry counters (``atm.link_bursts_faulted``,
  ``ethernet.frames_dropped``, ``mps.messages_faulted``...) keep
  counting as usual.

Message-level faults (:class:`Partition`, :class:`MessageLoss`) filter
at the NCS arrival point and therefore need the :class:`NcsRuntime`;
physical faults work on a bare cluster.  All randomness comes from
dedicated per-process streams of the cluster's seeded registry
(``faults.msgloss.<pid>``), so arming a plan never perturbs any other
draw — the foundation of the bit-identical-trace guarantee.

Each shard of the sharded kernel arms the whole plan on its whole copy
of the cluster; a fault on a host another shard runs flips hooks that
no traffic of this universe crosses.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from ..atm.link import DuplexLink
from ..config.spec import sha256
from ..net.topology import Cluster
from ..sim import Activity, Tracer
from .plan import (
    BerSpike, FaultEvent, FaultPlan, HostCrash, LinkOutage, MessageLoss,
    Partition, SwitchPortStall,
)

__all__ = ["FaultInjector", "trace_signature"]


class FaultInjector:
    """Arms a fault plan against one cluster (and optionally a runtime)."""

    def __init__(self, cluster: Cluster, plan: FaultPlan,
                 runtime: Optional[Any] = None):
        self.cluster = cluster
        self.plan = plan
        self.runtime = runtime
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        #: deterministic injection log: (time, "begin"|"end", description)
        self.log: list[tuple[float, str, str]] = []
        #: currently active partitions (each a tuple of groups)
        self._partitions: list[tuple[tuple[int, ...], ...]] = []
        #: currently active message-loss events
        self._msgloss: list[MessageLoss] = []
        #: open windows per fault hook, ``id(target)`` -> depth
        self._depth: Counter = Counter()
        #: open BER spikes, latest last
        self._spikes: list[BerSpike] = []
        self._armed = False
        # telemetry handles (no-ops when the registry is disabled)
        _m = self.sim.metrics
        self._m_begun = _m.counter(
            "faults.events_begun", help="fault events that have started")
        self._m_healed = _m.counter(
            "faults.events_healed", help="transient fault events that ended")

    # ------------------------------------------------------------------ arm
    def arm(self) -> "FaultInjector":
        """Validate the plan and put every event on the calendar."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        needs_runtime = any(isinstance(e, (Partition, MessageLoss))
                            for e in self.plan)
        if needs_runtime and self.runtime is None:
            raise ValueError(
                "this plan contains message-level faults (Partition/"
                "MessageLoss); pass the NcsRuntime to FaultInjector")
        for ev in self.plan:
            self._validate(ev)
        if needs_runtime:
            self._install_mps_filters()
        for i, ev in enumerate(self.plan):
            self.sim.call_at(ev.at, self._begin, ev, i)
            if ev.ends_at is not None:
                self.sim.call_at(ev.ends_at, self._end, ev, i)
        self._armed = True
        return self

    def _validate(self, ev: FaultEvent) -> None:
        n = self.cluster.n_hosts
        host = getattr(ev, "host", None)
        if host is not None and not (0 <= host < n):
            raise ValueError(f"{ev.describe()}: no such host {host}")
        if isinstance(ev, Partition):
            for g in ev.groups:
                for pid in g:
                    if not (0 <= pid < n):
                        raise ValueError(
                            f"{ev.describe()}: no such process {pid}")
        if isinstance(ev, MessageLoss) and ev.pids is not None:
            for pid in ev.pids:
                if not (0 <= pid < n):
                    raise ValueError(f"{ev.describe()}: no such process {pid}")
        if isinstance(ev, SwitchPortStall) and self.cluster.fabric is None:
            raise ValueError("switch-port stalls need an ATM cluster")

    # ------------------------------------------------------- event dispatch
    def _record(self, edge: str, ev: FaultEvent, index: int) -> None:
        self.log.append((self.sim.now, edge, ev.describe()))
        entity = f"fault:{index}"
        if edge == "begin":
            self._m_begun.inc()
            self.tracer.begin(entity, Activity.FAULT, ev.describe())
        else:
            self._m_healed.inc()
            self.tracer.end(entity)

    def _begin(self, ev: FaultEvent, index: int) -> None:
        self._record("begin", ev, index)
        if isinstance(ev, BerSpike):
            self._spikes.append(ev)
            self._apply_ber(ev.host)
        elif isinstance(ev, Partition):
            self._partitions.append(ev.groups)
        elif isinstance(ev, MessageLoss):
            self._msgloss.append(ev)
        else:
            for target, down, _up in self._hooks(ev):
                self._depth[id(target)] += 1
                if self._depth[id(target)] == 1:
                    down()

    def _end(self, ev: FaultEvent, index: int) -> None:
        self._record("end", ev, index)
        if isinstance(ev, BerSpike):
            self._spikes.remove(ev)
            self._apply_ber(ev.host)
        elif isinstance(ev, Partition):
            self._partitions.remove(ev.groups)
        elif isinstance(ev, MessageLoss):
            self._msgloss.remove(ev)
        else:
            for target, _down, up in self._hooks(ev):
                self._depth[id(target)] -= 1
                if self._depth[id(target)] == 0:
                    up()

    def _hooks(self, ev: FaultEvent):
        """``(target, down, up)`` for every hook ``ev`` holds down while
        its window is open.  Windows that overlap on a target — of one
        kind or of two (a host crash and a NIC outage) — are counted
        per target: it goes down with the first and heals with the
        last."""
        if isinstance(ev, LinkOutage):
            if ev.scope in ("all", "atm"):
                for link in self._links(ev.host):
                    yield link, link.fail, link.restore
            nic = self._nic(ev.host)
            if ev.scope in ("all", "nic") and nic is not None:
                yield nic, nic.fail, nic.restore
        elif isinstance(ev, HostCrash):
            host = self.cluster.host(ev.host)
            yield host, host.freeze, host.unfreeze
            for iface in host.interfaces.values():
                yield iface, iface.fail, iface.restore
        elif isinstance(ev, SwitchPortStall):
            switch, channel = self._switch_port(ev.host)
            yield (channel, lambda: switch.stall_port(channel),
                   lambda: switch.unstall_port(channel))
        else:  # pragma: no cover - plan types are closed
            raise TypeError(f"unknown fault event {ev!r}")

    def _apply_ber(self, host_idx: int) -> None:
        """Put the latest open spike's rate in force (none open: clear
        it) on the host's ATM links and on the one Ethernet segment."""
        ber = next((ev.ber for ev in reversed(self._spikes)
                    if ev.host == host_idx), None)
        for link in self._links(host_idx):
            link.fwd.ber_override = link.rev.ber_override = ber
        lan = self.cluster.lan
        if lan is not None and self._spikes:
            lan.set_fault_ber(self._spikes[-1].ber)
        elif lan is not None:
            lan.clear_fault_ber()

    # -------------------------------------------------------- fabric lookup
    def _adapter(self, host_idx: int):
        """The host's ATM adapter (None: the host has no ATM rail)."""
        return self.cluster.host(host_idx).interfaces.get("atm")

    def _links(self, host_idx: int) -> list[DuplexLink]:
        """Every duplex link attached to the host's ATM adapter (on the
        star topology, exactly the host↔switch TAXI)."""
        adapter = self._adapter(host_idx)
        if adapter is None:
            return []
        return [edge.link for edge
                in self.cluster.fabric.routes[adapter.host_name].values()]

    def _nic(self, host_idx: int):
        return self.cluster.host(host_idx).interfaces.get("ethernet")

    def _switch_port(self, host_idx: int):
        """The switch output channel feeding ``host`` (endpoint = its
        adapter)."""
        adapter = self._adapter(host_idx)
        fabric = self.cluster.fabric
        for other, edge in fabric.routes[adapter.host_name].items():
            link: DuplexLink = edge.link
            for channel in (link.fwd, link.rev):
                if channel.endpoint is adapter:
                    return fabric.switches[other], channel
        raise ValueError(f"host {host_idx} has no switch uplink")

    # -------------------------------------------------- message-level hooks
    def _install_mps_filters(self) -> None:
        for node in self.runtime.nodes:
            if node.mps.rx_fault is not None:
                raise RuntimeError(
                    f"process {node.pid} already has an rx_fault filter")
            rng = self.cluster.rngs.stream(f"faults.msgloss.{node.pid}")
            node.mps.rx_fault = self._make_filter(node.pid, rng)

    def _make_filter(self, pid: int, rng):
        def rx_fault(msg) -> bool:
            if self._blocked(msg.from_process, pid):
                return True
            for ev in self._msgloss:
                if ((ev.pids is None or pid in ev.pids)
                        and rng.random() < ev.p):
                    return True
            return False
        return rx_fault

    def _blocked(self, src: int, dst: int) -> bool:
        """True while an active partition separates the two processes."""
        for groups in self._partitions:
            src_g = next((g for g in groups if src in g), None)
            dst_g = next((g for g in groups if dst in g), None)
            if src_g is not None and dst_g is not None and src_g is not dst_g:
                return True
        return False


def trace_signature(tracer: Tracer) -> str:
    """A stable digest of everything a run's tracer recorded.

    Two runs with the same seed, plan and workload must produce the
    same signature — the chaos suite's bit-identical-trace assertion.
    Intervals still open (an unhealed permanent fault) are hashed as
    open, so closing order cannot mask a divergence.
    """
    h = sha256()
    for t, entity, kind, payload in tracer.events:
        h.update(repr((t, entity, kind, payload)).encode())
    for name in sorted(tracer.timelines):
        tl = tracer.timelines[name]
        h.update(repr((name, tl.gantt_row(),
                       tl._open_start, tl._open_activity)).encode())
    return h.hexdigest()
