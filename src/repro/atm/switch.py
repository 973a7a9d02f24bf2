"""Output-buffered ATM switch (the FORE switch of the paper's testbed).

The switch terminates some set of incoming channels and forwards bursts
according to its VC table: ``(in_channel, vpi, vci) -> (out_channel,
out_vci)``.  A label with no row is first offered to
:attr:`AtmSwitch.on_miss` — the fabric's hook that establishes an
on-demand circuit at its first cell (:mod:`repro.atm.signaling`).
Forwarding charges a fixed cut-through latency per burst — no calendar
entry of its own: the output channel is told when the burst reaches it
(``Channel.send(at=...)``) — and respects a per-output-port buffer
budget measured in cells; bursts that would overflow the buffer are
dropped (and counted), which AAL5 reassembly at the receiving adapter
turns into a lost PDU for the error-control layer to recover.

A second, **multicast group table** maps an incoming ``(channel, vci)``
to a *set* of output legs: a matching burst is replicated once per leg
at the output ports (each copy subject to that port's buffer budget
independently, as in a real output-buffered fabric).  Entries are
programmed by :meth:`repro.atm.signaling.SignalingController.
create_multicast` and are what lets a NIC-resident collective engine
(:mod:`repro.atm.collective`) reach every member with a single PDU on
the wire.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..sim import Simulator, check_param
from .cell import CellBurst
from .link import Channel

__all__ = ["AtmSwitch", "VcRoute"]


@dataclass(frozen=True)
class VcRoute:
    """One VC-table entry."""

    out_channel: Channel
    out_vci: int


class AtmSwitch:
    """A named switch with a VC table over its attached channels."""

    def __init__(self, sim: Simulator, name: str,
                 switching_latency_s: float = 10e-6,
                 output_buffer_cells: Optional[int] = 8192):
        check_param("switching_latency_s", switching_latency_s)
        if output_buffer_cells is not None and output_buffer_cells < 1:
            raise ValueError("output buffer must hold at least one cell")
        self.sim = sim
        self.name = name
        self.switching_latency_s = switching_latency_s
        self.output_buffer_cells = output_buffer_cells
        self._table: dict[tuple[int, int, int], VcRoute] = {}
        #: multicast group table: (in_channel, vpi, vci) -> replication legs
        self._mcast: dict[tuple[int, int, int], tuple[VcRoute, ...]] = {}
        #: ``fn(vpi, vci) -> bool``: asked to program the circuit an
        #: unknown label names; True means "look it up again"
        self.on_miss: Optional[Callable[[int, int], bool]] = None
        #: fault state: a failed switch discards everything it receives
        self.up = True
        #: bursts on no VC route: the one switch count with no series
        self.bursts_unroutable = 0
        # multicast telemetry is created lazily by program_multicast so
        # metric snapshots of non-multicast runs are unchanged
        self._m_mcast_in = None
        self._m_mcast_replicas = None
        # telemetry handles (no-ops when the registry is disabled)
        _m = sim.metrics
        self._m_forwarded = _m.counter(
            "atm.bursts_forwarded", help="bursts switched to an output port",
            switch=name)
        self._m_dropped = _m.counter(
            "atm.bursts_dropped", help="bursts lost to output-buffer overflow",
            switch=name)
        self._m_sw_faulted = _m.counter(
            "atm.switch_bursts_faulted",
            help="bursts discarded by switch faults", switch=name)

    # ---------------------------------------------------------- fault hooks
    def fail(self) -> None:
        """Power-fail the whole switch: every arriving burst is discarded
        (its PDU is lost; error control above recovers or gives up)."""
        self.up = False

    def restore(self) -> None:
        """Power the switch back on; later bursts forward normally."""
        self.up = True

    def stall_port(self, out_channel: Channel) -> None:
        """Wedge one output port: cells queue on ``out_channel`` without
        draining, so sustained traffic overflows this port's buffer and
        is dropped — the paper-era FORE failure mode of a stuck TAXI
        transmitter."""
        out_channel.stall()

    def unstall_port(self, out_channel: Channel) -> None:
        """Unwedge a stalled output port; its queue drains in order."""
        out_channel.unstall()

    # ------------------------------------------------------------- VC table
    def program(self, in_channel: Channel, in_vci: int,
                out_channel: Channel, out_vci: int, vpi: int = 0) -> None:
        """Install a VC-table entry (done by signaling / PVC setup)."""
        key = (id(in_channel), vpi, in_vci)
        if key in self._table:
            raise ValueError(
                f"switch {self.name}: VCI {in_vci} already mapped on "
                f"{in_channel.name}")
        self._table[key] = VcRoute(out_channel, out_vci)

    def unprogram(self, in_channel: Channel, in_vci: int,
                  vpi: int = 0) -> None:
        """Remove a VC-table entry (idempotent)."""
        self._table.pop((id(in_channel), vpi, in_vci), None)

    def lookup(self, in_channel: Channel, in_vci: int,
               vpi: int = 0) -> VcRoute:
        """The unicast route for an incoming ``(channel, vpi, vci)``."""
        try:
            return self._table[(id(in_channel), vpi, in_vci)]
        except KeyError:
            raise KeyError(
                f"switch {self.name}: no VC route for VPI/VCI "
                f"{vpi}/{in_vci} on {in_channel.name}") from None

    # ------------------------------------------------------- multicast table
    def program_multicast(self, in_channel: Channel, in_vci: int,
                          legs: Sequence[tuple[Channel, int]],
                          vpi: int = 0) -> None:
        """Install a multicast group entry: an arriving burst on
        ``(in_channel, in_vci)`` is replicated onto every ``(out_channel,
        out_vci)`` leg.  Legs may not repeat an output channel (one copy
        per port, as in FORE's spanning-tree replication)."""
        if not legs:
            raise ValueError(
                f"switch {self.name}: multicast group needs >= 1 leg")
        seen: set[int] = set()
        for out_channel, _ in legs:
            if id(out_channel) in seen:
                raise ValueError(
                    f"switch {self.name}: duplicate multicast leg on "
                    f"{out_channel.name}")
            seen.add(id(out_channel))
        key = (id(in_channel), vpi, in_vci)
        if key in self._mcast or key in self._table:
            raise ValueError(
                f"switch {self.name}: VCI {in_vci} already mapped on "
                f"{in_channel.name}")
        self._mcast[key] = tuple(VcRoute(ch, vci) for ch, vci in legs)
        if self._m_mcast_replicas is None:
            _m = self.sim.metrics
            self._m_mcast_in = _m.counter(
                "atm.mcast_bursts_in",
                help="bursts arriving on a multicast group VC",
                switch=self.name)
            self._m_mcast_replicas = _m.counter(
                "atm.mcast_replicas",
                help="burst copies fanned out by the multicast group table",
                switch=self.name)

    def unprogram_multicast(self, in_channel: Channel, in_vci: int,
                            vpi: int = 0) -> None:
        """Remove a multicast group entry (idempotent)."""
        self._mcast.pop((id(in_channel), vpi, in_vci), None)

    # ------------------------------------------------------------ forwarding
    def receive_burst(self, burst: CellBurst, channel: Channel) -> None:
        """Switch one arriving burst: replicate it if its VC is a
        multicast group, else forward per the unicast VC table."""
        if not self.up:
            self._m_sw_faulted.inc()
            return
        # when the burst reaches its output port(s)
        arrives = self.sim.now + self.switching_latency_s
        key = (id(channel), burst.vpi, burst.vci)
        legs = self._mcast.get(key)
        route = self._table.get(key)
        if legs is None and route is None and self.on_miss is not None \
                and self.on_miss(burst.vpi, burst.vci):
            legs = self._mcast.get(key)
            route = self._table.get(key)
        if legs is not None:
            self._m_mcast_in.inc()
            for leg in legs:
                out = leg.out_channel
                if (self.output_buffer_cells is not None
                        and out.queued_cells + burst.n_cells
                        > self.output_buffer_cells):
                    self._m_dropped.inc()
                    continue
                replica = dataclasses.replace(burst, vci=leg.out_vci)
                self._m_forwarded.inc()
                self._m_mcast_replicas.inc()
                out.send(replica, at=arrives)
            return
        if route is None:
            # cells on an unprovisioned/torn-down VC are silently
            # discarded, as real switches do
            self.bursts_unroutable += 1
            return
        out = route.out_channel
        if (self.output_buffer_cells is not None
                and out.queued_cells + burst.n_cells > self.output_buffer_cells):
            self._m_dropped.inc()
            return
        burst.vci = route.out_vci
        self._m_forwarded.inc()
        out.send(burst, at=arrives)
