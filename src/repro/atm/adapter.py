"""FORE SBA-200 SBus ATM adapter model.

Paper §2: "The SBA-200 has a dedicated Intel i960 processor (running at
25 MHz) to support segmentation and reassembly functions and to manage
data transfer between the adaptor and the host computer.  The SBA-200
also has special hardware for AAL CRC and special-purpose DMA hardware.
140 Mbps TAXI interface is provided between the workstations and the ATM
switch."

Model:

* **DMA engine** — a FIFO server moving data host↔adapter at
  ``dma_bandwidth_bps`` without consuming host CPU (:meth:`Sba200Adapter.dma`).
  This is what makes the Fig 2 multiple-buffer pipeline work: the host
  CPU fills buffer *k+1* while the DMA/SAR engine drains buffer *k*.
* **SAR engine** — the i960 spends ``i960_per_cell_s`` per cell; the TAXI
  channel is occupied for ``max(serialization, SAR)`` per burst, so the
  adapter can be either line-rate-bound or i960-bound.
* **AAL CRC hardware** — CRC costs the host nothing.  The model moves
  cell bursts and never splits bytes, so no CRC is computed on the
  datapath (the byte-level SAR of :mod:`repro.atm.aal` computes one for
  the benchmark's direct-call loop and the AAL5 tests).
* **Reassembly** — bursts accumulate per ``(vc, msg_id)``; a corrupted
  burst poisons the PDU exactly as a failed AAL5 CRC would.  Completed
  messages are DMA'd to host memory and handed to the receive handler.
* **Firmware hook** — :attr:`Sba200Adapter.collective_rx` lets an
  on-adapter protocol engine (:mod:`repro.atm.collective`) intercept a
  reassembled PDU *before* the host-bound DMA: PDUs it consumes never
  touch the host CPU, which is the whole point of NIC-offloaded
  collectives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from ..sim import Event, Simulator, Store, check_param, check_size
from ..sim.kernel import _run_call
from .aal import AAL5
from .cell import CellBurst
from .link import Channel

__all__ = ["Sba200Adapter"]


@dataclass
class _RxState:
    """Per-(vc, msg) reassembly record."""

    bytes_ok: int = 0
    corrupted: bool = False
    payload: Any = None
    bursts: int = 0


class Sba200Adapter:
    """The host-side ATM interface."""

    def __init__(self, sim: Simulator, host_name: str,
                 i960_per_cell_s: float = 3.0e-6,
                 dma_bandwidth_bps: float = 160e6,
                 train_cells: int = 256):
        """Model one SBA-200: i960 SAR engine + SBus DMA + TAXI uplink."""
        check_param("i960_per_cell_s", i960_per_cell_s)
        check_param("dma_bandwidth_bps", dma_bandwidth_bps, positive=True)
        if train_cells < 1:
            raise ValueError("train_cells must be >= 1")
        self.sim = sim
        self.host_name = host_name
        self.i960_per_cell_s = i960_per_cell_s
        self.dma_bandwidth_bps = dma_bandwidth_bps
        self.train_cells = train_cells
        self.uplink: Optional[Channel] = None       # adapter -> switch
        #: DMA transfers asked for, ``(completion, seconds, value)``;
        #: the head is in service
        self._dma_queue: Deque[tuple] = deque()
        self._msg_seq = 0
        self._rx: dict[tuple[int, int], _RxState] = {}
        #: delivered messages: fn(vc, payload, payload_bytes, msg_id)
        self.rx_handler: Optional[Callable[..., None]] = None
        #: failed messages (AAL5 CRC): fn(vc, msg_id)
        self.rx_error_handler: Optional[Callable[..., None]] = None
        #: fault state: a down adapter corrupts everything it reassembles
        self.up = True
        #: injected receive filter: ``fn(burst) -> True`` poisons the
        #: burst's PDU (targeted receive-side loss — see repro.faults)
        self.rx_fault: Optional[Callable[[CellBurst], bool]] = None
        #: firmware intercept for reassembled PDUs, consulted *before*
        #: the host-bound DMA: ``fn(vc, payload, nbytes, msg_id,
        #: corrupted) -> True`` consumes the PDU on the adapter
        #: (see repro.atm.collective)
        self.collective_rx: Optional[Callable[..., bool]] = None
        #: per-shaped-VC burst queues (vc_id -> Store), drained by pacers
        self._shapers: dict[int, Store] = {}
        #: completed PDUs waiting for (the head: in) their host-bound
        #: DMA; ``None`` until the first one
        self._rx_jobs: Optional[Deque[tuple]] = None
        #: deliveries whose handler raised, and the first error (which
        #: ``NcsRuntime.run`` raises); the drain goes on with the next PDU
        self.delivery_errors = 0
        self.first_delivery_error: Optional[BaseException] = None
        # telemetry handles (no-ops when the registry is disabled)
        _m = sim.metrics
        self._m_pdus_sent = _m.counter(
            "atm.pdus_sent", help="AAL PDUs segmented onto the uplink",
            host=host_name)
        self._m_pdus_received = _m.counter(
            "atm.pdus_received", help="AAL PDUs reassembled and delivered",
            host=host_name)
        self._m_pdus_failed = _m.counter(
            "atm.pdus_failed", help="PDUs dropped by AAL5 CRC/loss",
            host=host_name)
        self._m_cells_sent = _m.counter(
            "atm.cells_sent", help="cells segmented", host=host_name)
        self._m_cells_received = _m.counter(
            "atm.cells_received", help="cells reassembled", host=host_name)
        self._m_bursts_faulted = _m.counter(
            "atm.bursts_faulted", help="bursts poisoned by injected faults",
            host=host_name)

    # --------------------------------------------------------------- wiring
    def attach_uplink(self, channel: Channel) -> None:
        """Connect this adapter's TAXI transmitter to ``channel``."""
        if self.uplink is not None:
            raise ValueError(f"adapter {self.host_name} already has an uplink")
        self.uplink = channel

    def alloc_msg_id(self) -> int:
        """Return a fresh adapter-local message id for SAR framing."""
        self._msg_seq += 1
        return self._msg_seq

    # ------------------------------------------------------------------ DMA
    def dma_time(self, nbytes: int) -> float:
        """Seconds the SBus DMA engine needs to move ``nbytes``."""
        return nbytes * 8 / self.dma_bandwidth_bps

    def dma(self, nbytes: int, fn: Callable[..., Any], *args: Any) -> None:
        """Move ``nbytes`` over the SBus DMA engine, then run ``fn(*args)``.

        The engine is a FIFO server consuming no host CPU: a transfer
        completes ``dma_time(nbytes)`` after the previous one asked for
        before it, or after the ask if the engine is idle.  Its
        completion is one calendar entry, armed when the transfer enters
        service (the completion of its predecessor); ``fn`` runs there,
        and an exception it raises propagates out of ``Simulator.run``
        annotated with the call, as from ``Simulator.call_in``.
        """
        self._dma_ask(nbytes, (fn, args), _run_call)

    def dma_transfer(self, nbytes: int):
        """Generator: :meth:`dma` for a caller that waits; it resumes on
        the transfer's completion entry itself."""
        done = self._dma_ask(nbytes, None)
        yield done
        self.sim.recycle(done)

    def _dma_ask(self, nbytes: int, value: Any, *then: Callable) -> Event:
        check_size("nbytes", nbytes)
        done = self.sim.event(name="dma")
        done.callbacks += (self._dma_next, *then)
        queue = self._dma_queue
        queue.append((done, self.dma_time(nbytes), value))
        if len(queue) == 1:
            done.succeed(value, queue[0][1])
        return done

    def _dma_next(self, _done) -> None:
        """First callback of every completion: the next transfer enters
        service at the instant this one ends, before anything the
        completion runs can ask for another."""
        queue = self._dma_queue
        queue.popleft()
        if queue:
            done, seconds, value = queue[0]
            done.succeed(value, seconds)

    # ----------------------------------------------------------------- send
    def send_pdu(self, vc: Any, payload_bytes: int, msg_id: int,
                 is_final: bool = True, payload: Any = None) -> None:
        """Segment one AAL5 PDU and stream its cell trains onto the TAXI
        uplink.  Non-blocking for the caller: the SAR engine and wire
        proceed in simulated background time."""
        if self.uplink is None:
            raise RuntimeError(f"adapter {self.host_name} has no uplink")
        n_cells = AAL5.pdu_cells(payload_bytes)
        self._m_pdus_sent.inc()
        self._m_cells_sent.inc(n_cells)
        remaining_cells = n_cells
        remaining_bytes = payload_bytes
        while remaining_cells > 0:
            take = min(self.train_cells, remaining_cells)
            last_train = (take == remaining_cells)
            if last_train:
                chunk_bytes = remaining_bytes
            else:
                # Attribute payload bytes proportionally to interior trains.
                chunk_bytes = min(remaining_bytes, take * 48)
            burst = CellBurst(
                vc=vc, vci=vc.src_vci, msg_id=msg_id, n_cells=take,
                payload_bytes=chunk_bytes,
                is_final=is_final and last_train,
                payload=payload if (is_final and last_train) else None,
                enqueued_at=self.sim.now, vpi=vc.vpi,
            )
            self._emit(vc, burst)
            remaining_cells -= take
            remaining_bytes -= chunk_bytes

    def _emit(self, vc: Any, burst: CellBurst) -> None:
        """Hand a burst to the wire — directly for best-effort VCs,
        through the per-VC leaky-bucket pacer for shaped ones.

        Shaping spaces burst *submissions* so a contracted VC never
        injects cells above its PCR, without occupying the shared TAXI
        link during the gaps (other VCs interleave freely)."""
        pcr = getattr(vc, "pcr_cells_s", None)
        if not pcr:
            self.uplink.send(burst,
                             extra_service_s=burst.n_cells
                             * self.i960_per_cell_s)
            return
        q = self._shapers.get(vc.vc_id)
        if q is None:
            q = self._shapers[vc.vc_id] = Store(
                self.sim, name=f"shaper:{self.host_name}:{vc.vc_id}")
            self.sim.process(self._pacer(q, pcr),
                             name=f"shaper:{self.host_name}:{vc.vc_id}")
        q.try_put(burst)

    def _pacer(self, q: Store, pcr_cells_s: float):
        while True:
            burst = yield q.get()
            self.uplink.send(burst,
                             extra_service_s=burst.n_cells
                             * self.i960_per_cell_s)
            yield burst.n_cells / pcr_cells_s

    # ---------------------------------------------------------- fault hooks
    def fail(self) -> None:
        """Take the adapter down (host crash): any PDU whose bursts touch
        the outage reassembles corrupted, exactly like an AAL5 CRC hit."""
        self.up = False

    def restore(self) -> None:
        """Bring a failed adapter back up."""
        self.up = True

    # -------------------------------------------------------------- receive
    def receive_burst(self, burst: CellBurst, channel: Channel) -> None:
        """Reassemble one arriving burst into its per-(vc, msg) PDU.

        On the final burst the PDU is first offered to
        :attr:`collective_rx` (firmware path — consumed PDUs never reach
        the host), then either reported to :attr:`rx_error_handler` if
        corrupted or queued for DMA delivery to :attr:`rx_handler`.
        """
        if not self.up or (self.rx_fault is not None and self.rx_fault(burst)):
            burst.corrupted = True
            self._m_bursts_faulted.inc()
        vc = burst.vc
        key = (id(vc), burst.msg_id)
        st = self._rx.get(key)
        if st is None:
            st = self._rx[key] = _RxState()
        st.bursts += 1
        self._m_cells_received.inc(burst.n_cells)
        if burst.corrupted:
            st.corrupted = True
        else:
            st.bytes_ok += burst.payload_bytes
        if burst.payload is not None:
            st.payload = burst.payload
        if burst.is_final:
            del self._rx[key]
            hook = self.collective_rx
            if hook is not None and hook(vc, st.payload, st.bytes_ok,
                                         burst.msg_id, st.corrupted):
                return
            if st.corrupted:
                self._m_pdus_failed.inc()
                if self.rx_error_handler is not None:
                    self.rx_error_handler(vc, burst.msg_id)
                return
            self._m_pdus_received.inc()
            job = (vc, st.payload, st.bytes_ok, burst.msg_id)
            jobs = self._rx_jobs
            if jobs is None:
                # the first delivery asks one zero-delay hop late: the
                # boot slot of the drain process this replaced
                self._rx_jobs = deque((job,))
                self.sim.call_in(0.0, self._rx_ask)
            else:
                jobs.append(job)
                if len(jobs) == 1:
                    self._rx_ask()

    def _rx_ask(self) -> None:
        self.dma(self._rx_jobs[0][2], self._rx_done)

    def _rx_done(self) -> None:
        """The head PDU is in host memory: hand it to the handler, then
        ask for the next one's DMA (one outstanding: reassembly order).
        A handler's error is counted and the first one kept; the next
        PDU is delivered all the same."""
        jobs = self._rx_jobs
        try:
            if self.rx_handler is not None:
                self.rx_handler(*jobs[0])
        except Exception as exc:
            self.delivery_errors += 1
            if self.first_delivery_error is None:
                self.first_delivery_error = exc
        jobs.popleft()
        if jobs:
            self._rx_ask()
