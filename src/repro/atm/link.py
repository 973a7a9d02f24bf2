"""Point-to-point ATM links (TAXI, SONET OC-3/OC-48, DS-3).

A :class:`DuplexLink` is two independent directed :class:`Channel` s.
Each channel owns a FIFO of :class:`CellBurst` s drained by a background
process: a burst occupies the channel for its serialization time (or the
SAR pacing time if larger), then arrives at the far endpoint after the
propagation delay.  Cut-through behaviour across multi-hop paths comes
from splitting PDUs into multiple bursts (the adapter's ``train_cells``),
so a downstream hop can start forwarding while upstream cells are still
in flight.

Bit errors: with ``ber > 0`` each burst is independently corrupted with
probability ``1-(1-ber)^bits``; corruption marks the burst so AAL5
reassembly fails the whole PDU at the receiver — the error-control
machinery (TCP or the NCS error-control thread) then recovers.

Fault hooks (driven by :mod:`repro.faults`): a channel can be taken
*down* (every burst it carries is marked corrupted, so no PDU survives
the outage — which keeps reassembly state consistent even when an
outage starts or ends mid-PDU), given a transient BER override, or
*stalled* (the drain process pauses, modelling a wedged switch port;
upstream queues grow until the port is released).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from ..sim import Event, Simulator, Store
from .cell import CellBurst

__all__ = ["LinkSpec", "Channel", "DuplexLink",
           "TAXI_140", "OC3", "OC48", "DS3"]


@dataclass(frozen=True)
class LinkSpec:
    """Static description of a link type."""

    name: str
    bandwidth_bps: float
    prop_delay_s: float = 5e-6
    ber: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.prop_delay_s < 0:
            raise ValueError("propagation delay must be non-negative")
        if not (0.0 <= self.ber < 1.0):
            raise ValueError("bit error rate must be in [0, 1)")

    def with_delay(self, prop_delay_s: float) -> "LinkSpec":
        """Copy of this spec with a different propagation delay."""
        return LinkSpec(self.name, self.bandwidth_bps, prop_delay_s, self.ber)

    def with_ber(self, ber: float) -> "LinkSpec":
        """Copy of this spec with a different bit error rate."""
        return LinkSpec(self.name, self.bandwidth_bps, self.prop_delay_s, ber)


# Paper §2 line rates.  LAN propagation is microseconds; the WAN presets
# get their delays from the topology builder (upstate-downstate NY is
# ~2-4 ms of fiber).
TAXI_140 = LinkSpec("TAXI-140", 140e6, 5e-6)
OC3 = LinkSpec("OC-3", 149.76e6, 25e-6)
OC48 = LinkSpec("OC-48", 2.4e9, 1e-3)
DS3 = LinkSpec("DS-3", 45e6, 2e-3)


class BurstSink(Protocol):
    """Anything that can terminate a channel (switch port or adapter)."""

    def receive_burst(self, burst: CellBurst, channel: "Channel") -> None:
        """Accept a burst arriving off ``channel``."""
        ...


class Channel:
    """One direction of a link."""

    def __init__(self, sim: Simulator, name: str, spec: LinkSpec,
                 rng: Optional[np.random.Generator] = None):
        self.sim = sim
        self.name = name
        self.spec = spec
        self._rng = rng
        self.endpoint: Optional[BurstSink] = None
        self._q: Store = Store(sim, name=f"chan:{name}")
        self.queued_cells = 0
        self.busy_until = 0.0
        #: fault state (see module docstring)
        self.up = True
        self.ber_override: Optional[float] = None
        self._stalled = False
        self._stall_release: Optional[Event] = None
        #: counters
        self.bursts_carried = 0
        self.bursts_corrupted = 0
        self.bursts_faulted = 0
        # telemetry handle (no-op when the registry is disabled)
        self._m_link_faulted = sim.metrics.counter(
            "atm.link_bursts_faulted",
            help="bursts lost/corrupted by link faults", link=name)
        sim.process(self._drain(), name=f"chan:{name}")

    def connect(self, endpoint: BurstSink) -> None:
        """Attach the receiving endpoint (switch port or adapter), once."""
        if self.endpoint is not None:
            raise ValueError(f"channel {self.name} already connected")
        self.endpoint = endpoint

    # ---------------------------------------------------------- fault hooks
    def fail(self) -> None:
        """Take the channel down: every burst in flight or sent during the
        outage arrives corrupted (AAL5 reassembly then kills its PDU)."""
        self.up = False

    def restore(self) -> None:
        """Bring the channel back up; later bursts arrive clean again."""
        self.up = True

    @property
    def effective_ber(self) -> float:
        """Bit error rate in force: a fault override, else the spec's."""
        return self.spec.ber if self.ber_override is None else self.ber_override

    def stall(self) -> None:
        """Freeze the drain process (a wedged output port): queued bursts
        stop moving until :meth:`unstall`; upstream buffers back up."""
        if not self._stalled:
            self._stalled = True
            self._stall_release = Event(self.sim, name=f"unstall:{self.name}")

    def unstall(self) -> None:
        """Release a stalled drain; queued bursts resume in order."""
        if self._stalled:
            self._stalled = False
            release, self._stall_release = self._stall_release, None
            assert release is not None
            release.succeed(None)

    # --------------------------------------------------------------- sending
    def tx_time(self, burst: CellBurst) -> float:
        """Serialization time of ``burst`` at this channel's line rate."""
        return burst.wire_bytes * 8 / self.spec.bandwidth_bps

    def send(self, burst: CellBurst, extra_service_s: float = 0.0) -> None:
        """Queue a burst; ``extra_service_s`` models sender-side pacing
        (e.g. the SBA-200's per-cell i960 SAR time) that extends the
        occupancy beyond raw serialization."""
        if self.endpoint is None:
            raise RuntimeError(f"channel {self.name} has no endpoint")
        self.queued_cells += burst.n_cells
        self._q.try_put((burst, extra_service_s))

    def _drain(self):
        while True:
            burst, extra = yield self._q.get()
            while self._stalled:
                yield self._stall_release
            service = max(self.tx_time(burst), extra)
            yield self.sim.timeout(service)
            self.queued_cells -= burst.n_cells
            self.busy_until = self.sim.now
            if not self.up:
                burst.corrupted = True
                self.bursts_faulted += 1
                self._m_link_faulted.inc()
            else:
                ber = self.effective_ber
                if ber > 0.0 and self._rng is not None:
                    bits = burst.wire_bytes * 8
                    p_bad = 1.0 - (1.0 - ber) ** bits
                    if self._rng.random() < p_bad:
                        burst.corrupted = True
                        self.bursts_corrupted += 1
            self.bursts_carried += 1
            self._dispatch(burst)

    def _dispatch(self, burst: CellBurst) -> None:
        """Hand one serialized burst to the propagation leg.

        This is the sharded-kernel seam: the default arms the one timer
        of the in-universe propagation leg, while ``repro.sim.sharded``
        overrides it per-instance on channels that cross a shard cut so
        the burst is exported to the owning worker's outbox instead of
        being delivered locally.
        """
        self.sim.call_in(self.spec.prop_delay_s,
                         self.endpoint.receive_burst, burst, self)


class DuplexLink:
    """A bidirectional link: two channels with shared spec."""

    def __init__(self, sim: Simulator, name: str, spec: LinkSpec,
                 rng_a: Optional[np.random.Generator] = None,
                 rng_b: Optional[np.random.Generator] = None):
        self.name = name
        self.spec = spec
        self.fwd = Channel(sim, f"{name}>", spec, rng_a)
        self.rev = Channel(sim, f"{name}<", spec, rng_b)

    def channels(self) -> tuple[Channel, Channel]:
        """The (forward, reverse) channel pair."""
        return self.fwd, self.rev

    def fail(self) -> None:
        """Cut the fiber: both directions go down."""
        self.fwd.fail()
        self.rev.fail()

    def restore(self) -> None:
        """Splice the fiber: both directions come back up."""
        self.fwd.restore()
        self.rev.restore()
