"""Shared-medium Ethernet LAN model.

One 10 Mbps coax/hub segment connects every workstation of the paper's
SUN/Ethernet configuration.  The defining property — the one that makes
the p4 JPEG times of Table 2 *grow* with node count — is that the medium
serializes all transmissions: while any NIC transmits, everyone else
defers.

The model is 1-persistent CSMA with FIFO deferral (a capacity-1
:class:`~repro.sim.Resource`), an inter-frame gap, and an optional
collision model that charges a jam + binary-exponential-backoff penalty
when several stations were queued at transmit time.  The default is the
deterministic collision-free variant; the collision model exists as an
ablation (and is exercised by the tests).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..sim import Event, Resource, RngRegistry, Simulator, Store
from .frame import ETHERNET_IFG_BITS, EthernetFrame

__all__ = ["EthernetLan", "EthernetNic"]

#: 512 bit-times: the 802.3 slot time used by the backoff model.
SLOT_BITS = 512


class EthernetLan:
    """The shared segment.  Attach NICs, then send frames through them."""

    def __init__(self, sim: Simulator, bandwidth_bps: float = 10e6,
                 prop_delay_s: float = 10e-6,
                 collisions: bool = False,
                 rngs: Optional[RngRegistry] = None):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if prop_delay_s < 0:
            raise ValueError("propagation delay must be non-negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_s = prop_delay_s
        self.collisions = collisions
        rngs = rngs or RngRegistry()
        self._rng = rngs.stream("ethernet.backoff")
        self._fault_rng = rngs.stream("ethernet.faults")
        self.medium = Resource(sim, capacity=1, name="ether-medium")
        self.nics: dict[str, "EthernetNic"] = {}
        #: fault state: segment outage / transient BER (frames are lost
        #: whole — TCP above retransmits, as it would on real coax)
        self.up = True
        self.fault_ber = 0.0
        #: counters for tests/benchmarks
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.collision_events = 0
        # telemetry handles (no-ops when the registry is disabled)
        _m = sim.metrics
        self._m_delivered = _m.counter(
            "ethernet.frames_delivered", help="frames carried end to end")
        self._m_dropped = _m.counter(
            "ethernet.frames_dropped", help="frames lost to faults/outages")
        self._m_collisions = _m.counter(
            "ethernet.collision_events", help="CSMA/CD collision episodes")

    # ---------------------------------------------------------- fault hooks
    def fail(self) -> None:
        """Sever the segment: frames in flight and frames sent during the
        outage are lost."""
        self.up = False

    def restore(self) -> None:
        self.up = True

    def set_fault_ber(self, ber: float) -> None:
        """A noisy segment: each frame is independently dropped with
        probability ``1-(1-ber)^bits`` (drawn from a dedicated RNG stream
        so enabling faults never perturbs the backoff draws)."""
        if not (0.0 <= ber < 1.0):
            raise ValueError("bit error rate must be in [0, 1)")
        self.fault_ber = ber

    def clear_fault_ber(self) -> None:
        self.fault_ber = 0.0

    # -------------------------------------------------------------- topology
    def attach(self, nic: "EthernetNic") -> None:
        if nic.address in self.nics:
            raise ValueError(f"duplicate Ethernet address {nic.address!r}")
        self.nics[nic.address] = nic

    # ------------------------------------------------------------------ time
    def tx_time(self, wire_bytes: int) -> float:
        return wire_bytes * 8 / self.bandwidth_bps

    @property
    def ifg_time(self) -> float:
        return ETHERNET_IFG_BITS / self.bandwidth_bps

    def _backoff_time(self, attempt: int) -> float:
        """Truncated binary exponential backoff, slot-time granularity."""
        k = min(attempt, 10)
        slots = int(self._rng.integers(0, 2 ** k))
        return slots * SLOT_BITS / self.bandwidth_bps

    # ------------------------------------------------------------- transmit
    def transmit(self, frame: EthernetFrame) -> Generator[Event, Any, None]:
        """Occupy the medium for one frame and deliver it (generator)."""
        if frame.dst not in self.nics:
            raise KeyError(f"no NIC with address {frame.dst!r} on this LAN")
        attempt = 0
        medium = self.medium
        while True:
            contended = not medium.try_acquire()
            if contended:
                yield medium.request()
            if self.collisions and contended and attempt < 16:
                # We deferred behind someone: with the paper-era loads this
                # is when real CSMA/CD would have collided.  Charge a jam
                # time plus backoff, release, and retry.
                self.collision_events += 1
                self._m_collisions.inc()
                attempt += 1
                yield self.sim.timeout(SLOT_BITS / self.bandwidth_bps)
                medium.release()
                yield self.sim.timeout(self._backoff_time(attempt))
                continue
            break
        yield self.sim.timeout(self.tx_time(frame.wire_bytes))
        # Schedule delivery at the far end after propagation; the medium is
        # held a further inter-frame gap before the next sender may start
        # (should the two ever tie, the gap ends first).
        gap = self.sim.timeout(self.ifg_time)
        self.sim.call_in(self.prop_delay_s, self._deliver, frame)
        yield gap
        medium.release()

    def _deliver(self, frame: EthernetFrame) -> None:
        nic = self.nics[frame.dst]
        if not self.up or not nic.up:
            self.frames_dropped += 1
            self._m_dropped.inc()
            return
        if self.fault_ber > 0.0:
            bits = frame.wire_bytes * 8
            p_bad = 1.0 - (1.0 - self.fault_ber) ** bits
            if self._fault_rng.random() < p_bad:
                self.frames_dropped += 1
                self._m_dropped.inc()
                return
        if nic.rx_fault is not None and nic.rx_fault(frame):
            self.frames_dropped += 1
            self._m_dropped.inc()
            return
        self.frames_delivered += 1
        self._m_delivered.inc()
        nic._receive(frame)


class EthernetNic:
    """A station NIC: a transmit queue drained by a background process.

    Upper layers call :meth:`enqueue`; the drain process arbitrates for
    the shared medium frame by frame.  Received frames are handed to the
    registered receive handler (the IP layer).
    """

    def __init__(self, sim: Simulator, lan: EthernetLan, address: str):
        self.sim = sim
        self.lan = lan
        self.address = address
        self._txq: Store = Store(sim, name=f"ethertx:{address}")
        self._rx_handler: Optional[Callable[[EthernetFrame], None]] = None
        self._seq = 0
        #: fault state: a down NIC is deaf and mute (host crash / cable pull)
        self.up = True
        #: injected receive filter: ``fn(frame) -> True`` drops the frame
        #: (targeted receive-side loss — see repro.faults)
        self.rx_fault: Optional[Callable[[EthernetFrame], bool]] = None
        lan.attach(self)
        sim.process(self._drain(), name=f"ethernic:{address}")
        #: counters
        self.frames_sent = 0
        self.frames_received = 0

    # ---------------------------------------------------------- fault hooks
    def fail(self) -> None:
        self.up = False

    def restore(self) -> None:
        self.up = True

    @property
    def tx_queue_len(self) -> int:
        return len(self._txq)

    def set_receive_handler(self, fn: Callable[[EthernetFrame], None]) -> None:
        self._rx_handler = fn

    def enqueue(self, dst: str, payload: Any, payload_bytes: int) -> None:
        """Queue one frame for transmission (non-blocking for the caller:
        the NIC proceeds in the background, which is exactly what lets
        computation overlap communication)."""
        if dst not in self.lan.nics:
            raise KeyError(f"no NIC with address {dst!r} on this LAN")
        self._seq += 1
        frame = EthernetFrame(self.address, dst, payload, payload_bytes,
                              seq=self._seq)
        self._txq.try_put(frame)

    def _drain(self):
        while True:
            frame = yield self._txq.get()
            if not self.up:
                # a crashed host's queued frames never make the wire
                self.lan.frames_dropped += 1
                self.lan._m_dropped.inc()
                continue
            yield from self.lan.transmit(frame)
            self.frames_sent += 1

    def _receive(self, frame: EthernetFrame) -> None:
        self.frames_received += 1
        if self._rx_handler is not None:
            self._rx_handler(frame)
