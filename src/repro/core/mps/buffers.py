"""The Fig 2 multiple input/output buffer pipeline.

"NCS copies data to be sent to the first output buffer and then signals
the network interface.  The network interface starts transferring the
data in the first buffer while NCS is filling the second output buffer."

:class:`BufferPipeline` owns ``k`` kernel-resident output buffers
(mmap()ed, so filling one needs no syscall).  ``pipelined_send`` runs in
the *sender's* CPU context: it fills a buffer (CPU copy), signals the
adapter (which DMAs and SARs the chunk in background simulated time) and
immediately starts on the next buffer if one is free.  With ``k = 1``
the copy and the transfer strictly alternate — the degenerate case the
Fig 2 benchmark compares against.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from ...hosts import Host, KernelBufferPool
from ...sim import Activity, Event, Resource
from .datapath import DatapathModel, NCS_DATAPATH

__all__ = ["BufferPipeline"]


class BufferPipeline:
    """Pipelined message transmission through k kernel buffers."""

    def __init__(self, host: Host, adapter, pool: Optional[KernelBufferPool] = None,
                 datapath: DatapathModel = NCS_DATAPATH):
        self.host = host
        self.sim = host.sim
        self.adapter = adapter
        self.pool = pool or host.kernel_buffers
        self.datapath = datapath
        #: the k output buffers; holding one slot = owning one buffer
        self._buffers = Resource(host.sim, capacity=self.pool.count,
                                 name=f"iobuf:{host.name}")
        #: chunks currently in flight (diagnostics / tests)
        self.chunks_in_flight = 0
        self.max_chunks_in_flight = 0
        #: chunks whose hand-off to SAR raised (fault injection):
        #: diagnostics only — they never propagate
        self.chunk_errors = 0
        self.last_chunk_error: Optional[BaseException] = None
        #: filled chunks waiting for (the head: in) their DMA to the
        #: adapter; ``None`` until the first one
        self._jobs: Optional[Deque[tuple]] = None
        #: :meth:`drained` events waiting for the last chunk in flight
        self._drained: list[Event] = []

    def pipelined_send(self, vc, payload: Any, nbytes: int
                       ) -> Generator[Event, Any, None]:
        """Generator (caller's CPU context): send ``nbytes`` on ``vc``.

        Returns when the *user buffer is free* (every chunk copied into a
        kernel buffer) — the point at which ``NCS_send`` may unblock the
        sending thread.  The chunks drain in the background; a caller
        that wants to know when the last one was handed to the SAR
        engine asks :meth:`drained`.
        """
        chunks = self.pool.chunks(nbytes)
        msg_id = self.adapter.alloc_msg_id()
        cpu, os_ = self.host.cpu, self.host.os
        # one kernel entry per message: a trap, because the buffers are
        # mmap()ed (no syscall per buffer — paper §4.2)
        yield from self.host.cpu_busy(self.datapath.entry_cost(os_),
                                      Activity.OVERHEAD, "ncs:trap")
        for i, chunk in enumerate(chunks):
            # wait for a free output buffer (with k buffers, copy i+1
            # overlaps the DMA/SAR/wire of chunk i)
            if not self._buffers.try_acquire():
                req = self._buffers.request()
                yield req
                self.sim.recycle(req)
            yield from self.host.cpu_busy(
                self.datapath.comm_copy_time(cpu, chunk),
                Activity.COMMUNICATE, "ncs:fill-buffer")
            is_final = i == len(chunks) - 1
            self.chunks_in_flight += 1
            self.max_chunks_in_flight = max(self.max_chunks_in_flight,
                                            self.chunks_in_flight)
            job = (vc, chunk, msg_id, is_final, payload if is_final else None)
            jobs = self._jobs
            if jobs is None:
                # the first chunk asks one zero-delay hop late: the boot
                # slot of the drain process this replaced
                self._jobs = deque((job,))
                self.sim.call_in(0.0, self._ask)
            else:
                jobs.append(job)
                if len(jobs) == 1:
                    self._ask()

    def drained(self) -> Event:
        """An event that fires once no chunk is in flight (at once, if
        none is): for a caller that times the pipeline."""
        ev = self.sim.event(name=f"drained:{self.host.name}")
        if self.chunks_in_flight:
            self._drained.append(ev)
        else:
            ev.succeed(None)
        return ev

    def _ask(self) -> None:
        self.adapter.dma(self._jobs[0][1], self._chunk_done)

    def _chunk_done(self) -> None:
        """The head chunk is on the adapter: hand it to SAR, free its
        buffer for the next fill, then ask for the next chunk's DMA.
        One transfer is outstanding at a time, so chunks leave in the
        order they were filled; a chunk whose hand-off raises is
        counted and the rest go on."""
        jobs = self._jobs
        vc, chunk_bytes, msg_id, is_final, payload = jobs[0]
        try:
            self.adapter.send_pdu(vc, chunk_bytes, msg_id=msg_id,
                                  is_final=is_final, payload=payload)
        except Exception as exc:
            self.chunk_errors += 1
            self.last_chunk_error = exc
        self.chunks_in_flight -= 1
        self._buffers.release()
        if not self.chunks_in_flight:
            while self._drained:
                self._drained.pop(0).succeed(None)
        jobs.popleft()
        if jobs:
            self._ask()
