"""Point-to-point ATM links (TAXI, SONET OC-3/OC-48, DS-3).

A :class:`DuplexLink` is two independent directed :class:`Channel` s.
Each channel is a FIFO server whose departures are arithmetic, not
events: every service time (serialization, or the SAR pacing time if
larger) is known when a burst is sent, so :meth:`Channel.send` computes
``start = max(at, free_at)`` and ``finish = start + service`` on the
spot and puts *one* entry on the calendar, the landing at the far
endpoint at ``finish + prop_delay_s`` — queued or not.  The depth of the
output buffer is state read on demand (:attr:`Channel.queued_cells`).
Cut-through behaviour across multi-hop paths comes from splitting PDUs
into multiple bursts (the adapter's ``train_cells``), so a downstream
hop can start forwarding while upstream cells are still in flight.

Bit errors: with ``ber > 0`` each burst is independently corrupted with
probability ``1-(1-ber)^bits``; corruption marks the burst so AAL5
reassembly fails the whole PDU at the receiver — the error-control
machinery (TCP or the NCS error-control thread) then recovers.

Fault hooks (driven by :mod:`repro.faults`): a channel can be taken
*down* (every burst it carries is marked corrupted, so no PDU survives
the outage — which keeps reassembly state consistent even when an
outage starts or ends mid-PDU), given a transient BER override, or
*stalled* (a wedged switch port; upstream queues grow until the port is
released).  Faults cut the arithmetic short: a landing reads the state
in force when its serialization *ended* (each flip records its
instant), and a stall withdraws the landings of bursts not yet begun
and re-times them at release.  At a tie the fault comes first, as the
injector's timers (armed before the run) always did: a flip or stall at
the very instant a serialization ends or would begin applies to it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol

from ..sim import Simulator, check_param
from .cell import CellBurst

if TYPE_CHECKING:
    import numpy as np

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
        check_param("bandwidth_bps", self.bandwidth_bps, positive=True)
        check_param("prop_delay_s", self.prop_delay_s)
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
        #: a burst lands this long after its serialization ends (the
        #: sharded kernel zeroes it where :meth:`_dispatch` exports)
        self._lag = spec.prop_delay_s
        self._free_at = 0.0     # when the transmitter is next idle
        self._last_at = 0.0
        #: bursts not landed nor seen to have left the buffer, in order:
        #: ``(at, start, finish, burst, service, landing timer)``
        self._sent: deque = deque()
        self._sent_cells = 0
        #: the last depth reading ``(now, newest record seen, cells of
        #: the records seen still inside the switching latency)``
        self._kept: tuple = (None, None, 0)
        #: ``(burst, service, at)`` kept back by a stall, else None
        self._held: Optional[list] = None
        #: fault state ``(since, up, ber_override)``; the last is current
        self._flips: list[tuple] = [(0.0, True, None)]
        #: counters
        self.bursts_carried = 0
        self.bursts_corrupted = 0
        # telemetry handle (no-op when the registry is disabled)
        self._m_link_faulted = sim.metrics.counter(
            "atm.link_bursts_faulted",
            help="bursts lost/corrupted by link faults", link=name)

    def connect(self, endpoint: BurstSink) -> None:
        """Attach the receiving endpoint (switch port or adapter), once."""
        if self.endpoint is not None:
            raise ValueError(f"channel {self.name} already connected")
        self.endpoint = endpoint

    # ---------------------------------------------------------- fault hooks
    @property
    def up(self) -> bool:
        """False during an outage."""
        return self._flips[-1][1]

    @property
    def ber_override(self) -> Optional[float]:
        """A transient bit error rate replacing the spec's, or None."""
        return self._flips[-1][2]

    @ber_override.setter
    def ber_override(self, ber: Optional[float]) -> None:
        self._flips.append((self.sim.now, self.up, ber))

    def fail(self) -> None:
        """Take the channel down: every burst whose serialization ends
        during the outage arrives corrupted (AAL5 reassembly then kills
        its PDU)."""
        self._flips.append((self.sim.now, False, self.ber_override))

    def restore(self) -> None:
        """Bring the channel back up; later bursts arrive clean again."""
        self._flips.append((self.sim.now, True, self.ber_override))

    def stall(self) -> None:
        """Wedge the port: a burst in service finishes, the ones behind
        it stop moving until :meth:`unstall`; upstream buffers back up."""
        if self._held is not None:
            return
        now, sent, self._held = self.sim.now, self._sent, []
        self._kept = (None, None, 0)    # the records it saw may go
        while sent and sent[-1][1] >= now:
            at, start, _, burst, service, timer = sent.pop()
            # free again when this one would have begun: at its
            # predecessor's finish, or idle before its own arrival
            self._free_at = start
            self.sim.cancel(timer)
            self._sent_cells -= burst.n_cells
            self._held.append((burst, service, at))
        self._held.reverse()

    def unstall(self) -> None:
        """Release a stalled port; held bursts resume in order."""
        held, self._held = self._held, None
        for burst, service, at in held or ():
            self._serve(burst, service, max(at, self.sim.now))

    # --------------------------------------------------------------- sending
    def tx_time(self, burst: CellBurst) -> float:
        """Serialization time of ``burst`` at this channel's line rate."""
        return burst.wire_bytes * 8 / self.spec.bandwidth_bps

    def send(self, burst: CellBurst, extra_service_s: float = 0.0,
             at: Optional[float] = None) -> None:
        """Queue a burst that reaches the port at ``at`` (now, unless a
        switch names the end of its switching latency);
        ``extra_service_s`` models sender-side pacing (e.g. the
        SBA-200's per-cell i960 SAR time) that extends the occupancy
        beyond raw serialization."""
        if self.endpoint is None:
            raise RuntimeError(f"channel {self.name} has no endpoint")
        if at is None:
            at = self.sim.now
        # the arithmetic is FIFO's: one upstream node, one latency
        assert at >= self._last_at, (self.name, at, self._last_at)
        self._last_at = at
        service = max(self.tx_time(burst), extra_service_s)
        if self._held is not None:
            self._held.append((burst, service, at))
        else:
            self._serve(burst, service, at)

    def _serve(self, burst: CellBurst, service: float, at: float) -> None:
        start = max(at, self._free_at)
        finish = self._free_at = start + service
        timer = self.sim.call_at(finish + self._lag, self._land,
                                 burst, finish)
        self._sent.append((at, start, finish, burst, service, timer))
        self._sent_cells += burst.n_cells

    @property
    def queued_cells(self) -> int:
        """Cells in the output buffer now: of bursts that have reached
        the port (``at <= now``: one still inside the switching latency
        has not) and not left it (``finish <= now`` has), held or not.

        A k-way fan-in reads the depth once per burst at one instant, so
        a reading resumes from the newest record the instant's last
        reading saw: each record is walked once per instant.  Nothing
        with ``finish <= now`` is sent at ``now``, and ``at`` never
        falls, so only :meth:`stall` can invalidate what was seen."""
        now, sent = self.sim.now, self._sent
        while sent and sent[0][2] <= now:
            self._sent_cells -= sent.popleft()[3].n_cells
        cells = self._sent_cells
        if sent and sent[-1][0] > now:
            kept_at, seen, ahead = self._kept
            if kept_at != now:
                seen, ahead = None, 0
            for rec in reversed(sent):
                if rec is seen or rec[0] <= now:
                    break
                ahead += rec[3].n_cells
            self._kept = (now, sent[-1], ahead)
            cells -= ahead
        if self._held:
            cells += sum(b.n_cells for b, _, at in self._held if at <= now)
        return cells

    def _land(self, burst: CellBurst, finish: float) -> None:
        """A hop's one calendar entry: the fault verdict as of
        ``finish``, then the burst is the far end's."""
        sent, flips = self._sent, self._flips
        if sent and sent[0][3] is burst:    # no depth reading dropped it
            sent.popleft()
            self._sent_cells -= burst.n_cells
        while len(flips) > 1 and flips[1][0] <= finish:
            del flips[0]        # finishes only grow
        _since, up, ber = flips[0]
        if not up:
            burst.corrupted = True
            self._m_link_faulted.inc()
        else:
            if ber is None:
                ber = self.spec.ber
            if ber > 0.0 and self._rng is not None:
                bits = burst.wire_bytes * 8
                p_bad = 1.0 - (1.0 - ber) ** bits
                if self._rng.random() < p_bad:
                    burst.corrupted = True
                    self.bursts_corrupted += 1
        self.bursts_carried += 1
        self._dispatch(burst)

    def _dispatch(self, burst: CellBurst) -> None:
        """Hand a landed burst to the far endpoint.

        This is the sharded-kernel seam: ``repro.sim.sharded`` overrides
        it per-instance on channels that cross a shard cut (and zeroes
        ``_lag``) so the burst is exported to the owning worker's outbox
        when its serialization ends instead of being delivered locally.
        """
        self.endpoint.receive_burst(burst, self)


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
