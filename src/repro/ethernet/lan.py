"""Shared-medium Ethernet LAN model.

One 10 Mbps coax/hub segment connects every workstation of the paper's
SUN/Ethernet configuration.  The defining property — the one that makes
the p4 JPEG times of Table 2 *grow* with node count — is that the medium
serializes all transmissions: while any NIC transmits, everyone else
defers.

The model is 1-persistent CSMA with FIFO deferral, an inter-frame gap,
and an optional collision model that charges a jam + binary-exponential-
backoff penalty when a station had to defer.  The default is the
deterministic collision-free variant; the collision model exists as an
ablation (and is exercised by the tests).

The medium is a FIFO server whose departures are floats, like
:class:`repro.atm.link.Channel`; no process runs per NIC.  A NIC asks
for it in the call that hands it a frame; a frame that starts at ``S``
arms its delivery at ``E + prop`` and its gap end at ``E + ifg``
(``E = S + tx``), which picks the next holder, as a jam end and a
backoff retry do.  A request made at an instant where one of those is
still due runs after it.  Faults are read at delivery.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..sim import RngRegistry, Simulator, check_param
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
        check_param("bandwidth_bps", bandwidth_bps, positive=True)
        check_param("prop_delay_s", prop_delay_s)
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_s = prop_delay_s
        self.collisions = collisions
        rngs = rngs or RngRegistry()
        self._rng = rngs.stream("ethernet.backoff")
        self._fault_rng = rngs.stream("ethernet.faults")
        self.nics: dict[str, "EthernetNic"] = {}
        #: the medium: held by a frame or a jam until its end's entry,
        #: which hands it to the first NIC that found it held
        self.busy = False
        self._waiters: deque = deque()
        #: instant -> entries still due then; requests held back for them
        self._due: dict[float, int] = {}
        self._later: list = []
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

    # ---------------------------------------------------------------- medium
    def _request(self, nic: "EthernetNic") -> None:
        """``nic`` has taken a frame: drop it (and what is queued behind
        it) if the NIC is down, else ask for the medium."""
        if self.sim.now in self._due:
            self._later.append((self._request, nic))
            return
        while not nic.up:
            # a crashed host's queued frames never make the wire
            self.frames_dropped += 1
            self._m_dropped.inc()
            if not nic._next():
                return
        self._ask(nic)

    def _ask(self, nic: "EthernetNic") -> None:
        if self.busy:
            self._waiters.append(nic)
        else:
            self.busy = True
            self._seize(nic, contended=False)

    def _seize(self, nic: "EthernetNic", contended: bool) -> None:
        now = self.sim.now
        if contended and self.collisions and nic._attempt < 16:
            # We deferred behind someone: with the paper-era loads this
            # is when real CSMA/CD would have collided.  Charge a jam
            # time plus backoff, then retry.
            self.collision_events += 1
            self._m_collisions.inc()
            nic._attempt += 1
            self._arm(now + SLOT_BITS / self.bandwidth_bps, self._jam_end, nic)
            return
        nic._attempt = 0
        frame = nic._frame
        end = now + self.tx_time(frame.wire_bytes)
        # should the gap end and the delivery ever tie, the gap ends first
        self._arm(end + self.ifg_time, self._gap_end, nic)
        self._arm(end + self.prop_delay_s, self._deliver, frame, due=False)

    def _arm(self, when: float, fn: Callable, arg: Any,
             due: bool = True) -> None:
        """The segment's calendar entries: ``fn(arg)`` at ``when``; a
        gap end, jam end or retry counts as due there until it has run."""
        if due:
            self._due[when] = self._due.get(when, 0) + 1
            fn, arg = self._fire, (fn, arg)
        self.sim.call_at(when, fn, arg)

    def _fire(self, entry: tuple) -> None:
        fn, arg = entry
        fn(arg)
        due, now = self._due, self.sim.now
        left = due.pop(now) - 1
        if left:
            due[now] = left
        else:
            while self._later:
                fn, arg = self._later.pop(0)
                fn(arg)

    def _release(self) -> None:
        if self._waiters:
            self._seize(self._waiters.popleft(), contended=True)
        else:
            self.busy = False

    def _gap_end(self, nic: "EthernetNic") -> None:
        self._release()
        nic.frames_sent += 1
        if nic._next():
            self._later.append((self._request, nic))

    def _jam_end(self, nic: "EthernetNic") -> None:
        backoff = self._backoff_time(nic._attempt)
        if backoff:
            self._arm(self.sim.now + backoff, self._ask, nic)
        else:
            self._later.append((self._ask, nic))
        # the retry before the next holder's jam end: at a tie it runs first
        self._release()

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
    """A station NIC: a transmit queue behind the frame being sent.

    Upper layers call :meth:`enqueue`; the segment takes the NIC's
    frames one by one.  Received frames are handed to the registered
    receive handler (the IP layer).
    """

    def __init__(self, sim: Simulator, lan: EthernetLan, address: str):
        self.sim = sim
        self.lan = lan
        self.address = address
        self._txq: deque = deque()
        #: the frame the NIC is sending or asking to send, and its tries
        self._frame: Optional[EthernetFrame] = None
        self._attempt = 0
        self._rx_handler: Optional[Callable[[EthernetFrame], None]] = None
        self._seq = 0
        #: fault state: a down NIC is deaf and mute (host crash / cable pull)
        self.up = True
        #: injected receive filter: ``fn(frame) -> True`` drops the frame
        #: (targeted receive-side loss — see repro.faults)
        self.rx_fault: Optional[Callable[[EthernetFrame], bool]] = None
        lan.attach(self)
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
        if self._frame is None:
            self._frame = frame
            self.lan._request(self)
        else:
            self._txq.append(frame)

    def _next(self) -> bool:
        """Take the next queued frame; False when there is none."""
        self._frame = self._txq.popleft() if self._txq else None
        return self._frame is not None

    def _receive(self, frame: EthernetFrame) -> None:
        self.frames_received += 1
        if self._rx_handler is not None:
            self._rx_handler(frame)
