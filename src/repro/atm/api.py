"""FORE-style ATM Application Programmer Interface.

This is the thin user-level API the paper builds NCS's High Speed Mode
on: open a connection (a VC), send an arbitrary-size buffer, receive a
buffer.  It knows nothing about threads or message passing — those live
in ``repro.core``.

Large sends are framed into AAL5 PDUs of at most ``MAX_PDU_BYTES``; the
API's default send path is the *single-buffer* datapath (copy everything,
then hand to the adapter).  The pipelined multiple-buffer datapath of
Fig 2 lives in :mod:`repro.core.mps.buffers` and drives these same
primitives chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..hosts import Host
from ..sim import Activity, Event, Store
from .adapter import Sba200Adapter
from .signaling import Service, VirtualChannel

__all__ = ["AtmApi", "AtmMessage", "MAX_PDU_BYTES"]

#: AAL5 limits PDUs to 65535 bytes; stay at a round 64 KiB - trailer.
MAX_PDU_BYTES = 65000


@dataclass
class AtmMessage:
    """A message delivered by the ATM API."""

    vc_id: int
    payload: Any
    nbytes: int
    msg_id: int


class AtmApi:
    """Per-host handle to the SBA-200 (one instance per host)."""

    def __init__(self, host: Host):
        self.host = host
        self.sim = host.sim
        self.adapter: Sba200Adapter = host.interface("atm")
        #: per-VC receive queues of unserved circuits, keyed by vc_id
        self._rx: dict[int, Store] = {}
        #: service -> consumer of every message on its circuits
        self._servers: dict[Service, Callable[[AtmMessage], None]] = {}
        if self.adapter.rx_handler is not None:
            raise RuntimeError(
                f"adapter on {host.name} already claimed by another API")
        self.adapter.rx_handler = self._on_message

    # -------------------------------------------------------------- receive
    def serve(self, service: Service,
              consumer: Callable[[AtmMessage], None]) -> None:
        """Call ``consumer(message)`` for every message on a ``service``
        circuit that terminates here, from the adapter's delivery, at
        the instant its DMA into host memory completes: no queue and no
        process per circuit."""
        if service in self._servers:
            raise RuntimeError(
                f"{service.name} circuits on {self.host.name} already "
                "have a consumer")
        self._servers[service] = consumer

    def rx_queue(self, vc: VirtualChannel) -> Store:
        """Receive queue of a circuit whose service has no consumer,
        created on first use."""
        q = self._rx.get(vc.vc_id)
        if q is None:
            q = self._rx[vc.vc_id] = Store(self.sim, name=f"atmrx:{vc.vc_id}")
        return q

    def _on_message(self, vc: VirtualChannel, payload: Any, nbytes: int,
                    msg_id: int) -> None:
        msg = AtmMessage(vc.vc_id, payload, nbytes, msg_id)
        consumer = self._servers.get(vc.service)
        if consumer is not None:
            consumer(msg)
        else:
            self.rx_queue(vc).try_put(msg)

    def recv(self, vc: VirtualChannel) -> Event:
        """Event firing with the next :class:`AtmMessage` on this VC.

        No CPU cost is charged here; the caller (socket layer or NCS
        receive thread) charges its own datapath costs when it copies the
        message out of the kernel buffers.
        """
        return self.rx_queue(vc).get()

    # ----------------------------------------------------------------- send
    def pdu_sizes(self, nbytes: int) -> list[int]:
        """How a message is framed into AAL5 PDUs."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return [0]
        sizes = []
        left = nbytes
        while left > 0:
            take = min(MAX_PDU_BYTES, left)
            sizes.append(take)
            left -= take
        return sizes

    def send(self, vc: VirtualChannel, payload: Any, nbytes: int,
             charge_copy: bool = True):
        """Generator: send ``nbytes`` on ``vc`` (single-buffer datapath).

        Costs charged to the host CPU: one kernel entry (syscall) plus a
        user→kernel copy of the whole message (2 bus accesses per word),
        then a DMA hand-off per PDU.  Completion means "accepted by the
        adapter"; the wire proceeds asynchronously.
        """
        if vc.src is not self.adapter:
            raise ValueError(
                f"VC {vc.vc_id} does not originate at host {self.host.name}")
        os, cpu = self.host.os, self.host.cpu
        yield from self.host.cpu_busy(os.syscall_time, Activity.OVERHEAD,
                                      "atm:syscall")
        if charge_copy:
            yield from self.host.cpu_busy(cpu.copy_time(nbytes, 2),
                                          Activity.COMMUNICATE, "atm:copy")
        msg_id = self.adapter.alloc_msg_id()
        sizes = self.pdu_sizes(nbytes)
        for i, size in enumerate(sizes):
            final = i == len(sizes) - 1
            yield from self.adapter.dma_transfer(size)
            self.adapter.send_pdu(vc, size, msg_id=msg_id, is_final=final,
                                  payload=payload if final else None)
        return msg_id

    def submit_chunk(self, vc: VirtualChannel, nbytes: int, msg_id: int,
                     is_final: bool, payload: Any = None) -> None:
        """Low-level hook for the Fig 2 pipeline: hand one already-DMA'd
        chunk to the SAR engine (no CPU charged here)."""
        self.adapter.send_pdu(vc, nbytes, msg_id=msg_id, is_final=is_final,
                              payload=payload)
