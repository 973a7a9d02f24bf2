"""Pluggable collective strategies: host-side trees vs NIC offload.

This is the MPS half of the collective seam.  Every process's
:class:`~repro.core.mps.core.NcsMps` owns one
:class:`CollectiveStrategy`; the scheduler routes ``Barrier``,
``CollectiveBcast`` and ``CollectiveReduce`` ops through it.

* :class:`HostCollectives` (``collectives = "host"``, the default) keeps
  the paper-faithful behavior: barriers travel as ``BARRIER_ARRIVE`` /
  ``BARRIER_RELEASE`` control messages coordinated by process 0's MPS,
  and the group helpers (:mod:`repro.core.mps.group`) compose
  broadcasts/reductions from ordinary Send/Recv ops.  Bit-identical to
  the pre-seam code.

* :class:`NicCollectives` (``collectives = "nic"``) hands the whole
  operation to the adapter-firmware engines of
  :mod:`repro.atm.collective`: the calling thread blocks on submission
  and is woken straight from the NIC's completion interrupt — no MPS
  system-thread traffic, no error-control ACKs, dramatically fewer host
  events per collective (the ROADMAP item-3 / Quadrics-Myrinet design).

Strategies are registered in :data:`repro.registry.COLLECTIVES` and
selected per scenario via the ``collectives`` runtime key.
"""

from __future__ import annotations

from typing import Any, Optional

from ...registry import COLLECTIVES
from ...sim import Activity
from ..mts import ops
from ..mts.thread import NcsThread
from .error_control import MessageLost  # noqa: F401  (re-export surface)
from .message import ANY_THREAD, ControlKind, NcsMessage

__all__ = ["CollectiveStrategy", "HostCollectives", "NicCollectives",
           "make_collectives"]


class CollectiveStrategy:
    """How one process executes barrier/bcast/reduce.

    ``offloads`` tells the group helpers whether to emit offload ops
    (``CollectiveBcast``/``CollectiveReduce``) instead of composing
    Send/Recv trees.  Handlers follow the ``MtsScheduler.op_handlers``
    convention: return True when the thread was blocked.
    """

    #: group helpers emit offload ops when True
    offloads = False

    def bind(self, mps: Any) -> None:
        """Attach to one process's MPS (called once at node build)."""
        self.mps = mps

    def handle_barrier(self, thread: NcsThread, op: ops.Barrier) -> bool:
        """Execute one ``Barrier`` op."""
        raise NotImplementedError

    def handle_bcast(self, thread: NcsThread,
                     op: ops.CollectiveBcast) -> bool:
        """Execute one offloaded broadcast."""
        raise NotImplementedError

    def handle_reduce(self, thread: NcsThread,
                      op: ops.CollectiveReduce) -> bool:
        """Execute one offloaded reduction."""
        raise NotImplementedError


class HostCollectives(CollectiveStrategy):
    """Host-side collectives over MPS control messages (the default)."""

    offloads = False

    def handle_barrier(self, thread: NcsThread, op: ops.Barrier) -> bool:
        """Delegate to the MPS barrier service (process-0 coordinator)."""
        return self.mps._handle_barrier(thread, op)

    def handle_bcast(self, thread: NcsThread,
                     op: ops.CollectiveBcast) -> bool:
        """Reject: host broadcasts are composed from Send ops."""
        raise RuntimeError(
            "CollectiveBcast reached the host strategy; use group.bcast "
            "(it composes Send ops unless the strategy offloads)")

    def handle_reduce(self, thread: NcsThread,
                      op: ops.CollectiveReduce) -> bool:
        """Reject: host reductions are composed from Send/Recv ops."""
        raise RuntimeError(
            "CollectiveReduce reached the host strategy; use group.reduce "
            "(it composes Send/Recv ops unless the strategy offloads)")


class NicCollectives(CollectiveStrategy):
    """NIC-offloaded collectives on the SBA-200 firmware engines."""

    offloads = True

    def __init__(self, fabric: Any):
        self.fabric = fabric
        self.engine: Any = None

    def bind(self, mps: Any) -> None:
        """Claim this process's engine and wire host-bound delivery."""
        super().bind(mps)
        engine = self.fabric.engine(mps.pid)
        engine.tracer = mps.host.tracer
        engine.deliver_data = self._deliver_data
        self.engine = engine

    # ----------------------------------------------------------- barrier
    def handle_barrier(self, thread: NcsThread, op: ops.Barrier) -> bool:
        """Block the thread and ring the adapter's barrier doorbell."""
        mps = self.mps
        parties = mps.barrier_parties.get(op.barrier_id, op.parties)
        if parties < 1:
            raise ValueError(
                f"barrier {op.barrier_id} has no registered parties; "
                "use NcsRuntime.register_barrier or pass parties=")
        tid = thread.tid
        handle = ops.Wake("nic-barrier")
        mps.scheduler.block(thread, handle)
        self.engine.barrier(
            op.barrier_id, parties, (mps.pid, tid),
            lambda value, exc: self._finish(
                tid, handle, value, exc, ControlKind.BARRIER_ARRIVE))
        return True

    # ------------------------------------------------------------- bcast
    def handle_bcast(self, thread: NcsThread,
                     op: ops.CollectiveBcast) -> bool:
        """DMA the payload to the adapter, multicast it, block until
        every target's adapter acknowledged delivery."""
        mps = self.mps
        targets = sorted({pid for pid in op.targets if pid != mps.pid})
        for pid in targets:
            if not (0 <= pid < mps.cluster.n_hosts):
                raise ValueError(f"NCS_bcast: no such process {pid}")
        if not targets:
            thread.resume_value = None
            return False
        # origin-side accounting mirrors the host bcast: one logical
        # DATA message per destination process
        for _ in targets:
            mps._m_sent.inc()
            mps._m_bytes.observe(op.size)
        tid = thread.tid
        handle = ops.Wake("nic-bcast", Activity.COMMUNICATE)
        mps.scheduler.block(thread, handle)
        host = mps.host
        engine = self.engine

        def _submit():
            # one syscall to ring the doorbell, then the payload DMAs
            # host memory -> adapter without consuming host CPU
            yield from host.cpu_busy(host.os.syscall_time,
                                     Activity.COMMUNICATE, "nic-bcast")
            yield from engine.adapter.dma_transfer(op.size)
            engine.bcast(
                (mps.pid, tid), op.data, op.size, op.tag, tuple(targets),
                lambda value, exc: self._finish(
                    tid, handle, value, exc, ControlKind.DATA))

        mps.sim.spawn(_submit(), name=f"nic-bcast:{mps.pid}")
        return True

    def _deliver_data(self, origin: tuple, data: Any, size: int,
                      tag: int, sent_at: float) -> None:
        """Firmware handed us a broadcast payload: DMA it into host
        memory and mail it to this process's MPS, where the ordinary
        receive system thread matches it against posted ``NCS_recv`` s."""
        mps = self.mps
        origin_pid, origin_tid = origin
        msg = NcsMessage(
            from_thread=origin_tid, from_process=origin_pid,
            to_thread=ANY_THREAD, to_process=mps.pid,
            data=data, size=size, tag=tag,
            msg_uid=mps._next_uid(), sent_at=sent_at)
        adapter = self.engine.adapter

        def _land():
            yield from adapter.dma_transfer(size)
            mps.deliver_data(msg)

        mps.sim.spawn(_land(), name=f"nic-deliver:{mps.pid}")

    # ------------------------------------------------------------ reduce
    def handle_reduce(self, thread: NcsThread,
                      op: ops.CollectiveReduce) -> bool:
        """Block the thread and contribute to the firmware reduction."""
        mps = self.mps
        root_tid, root_pid = op.root
        tid = thread.tid
        handle = ops.Wake("nic-reduce")
        mps.scheduler.block(thread, handle)
        self.engine.reduce(
            op.tag, len(op.members), (mps.pid, tid), op.data, op.op,
            (root_pid, root_tid),
            lambda value, exc: self._finish(
                tid, handle, value, exc, ControlKind.DATA))
        return True

    # -------------------------------------------------------- completion
    def _finish(self, tid: int, handle: ops.Wake, value: Any,
                exc: Optional[BaseException],
                kind: ControlKind) -> None:
        """NIC completion interrupt: wake the blocked thread.

        A permanently-lost request is recorded exactly like a host-path
        loss (``mps.lost_messages`` + ``mps.messages_lost``), so
        ``NcsRuntime.run`` surfaces it at end of run even when the
        application swallowed the thread-level exception.
        """
        mps = self.mps
        if exc is not None:
            mps.lost_messages.append(NcsMessage(
                from_thread=tid, from_process=mps.pid,
                to_thread=ANY_THREAD, to_process=0,
                data=None, size=0, kind=kind,
                msg_uid=mps._next_uid()))
            mps._m_lost.inc()
            mps.host.tracer.point(f"ncs:{mps.pid}", "message-lost",
                                  (kind.value, "nic-collective"))
        handle.wake(value, exc)


@COLLECTIVES.register(
    "host", help="host-side trees over MPS control messages (default)")
def _make_host(runtime: Any, pid: int) -> HostCollectives:
    return HostCollectives()


@COLLECTIVES.register(
    "nic", help="SBA-200 firmware barrier/bcast/reduce over switch "
                "multicast (host bypass)")
def _make_nic(runtime: Any, pid: int) -> NicCollectives:
    from ...atm.collective import NicCollectiveFabric
    fabric = getattr(runtime, "_nic_collective_fabric", None)
    if fabric is None:
        fabric = NicCollectiveFabric(runtime.cluster)
        runtime._nic_collective_fabric = fabric
    return NicCollectives(fabric)


def make_collectives(spec: Optional[str], runtime: Any,
                     pid: int) -> CollectiveStrategy:
    """Resolve a collective strategy by registered name (None -> host)."""
    factory = COLLECTIVES.get(spec or "host")
    return factory(runtime, pid)
