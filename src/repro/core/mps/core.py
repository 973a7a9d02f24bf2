"""NCS_MPS: the message-passing subsystem (paper §4, Fig 8).

One ``NcsMps`` per OS process.  It installs two **system threads** at
the highest priority — exactly the architecture of Fig 8:

* the **send thread** drains the send-request queue: flow-control gate,
  hand the message to the transport until it calls back, then wake the
  compute thread that issued ``NCS_send`` (which was blocked, but only
  *it*, never the process);
* the **receive thread** matches arrived messages against posted
  ``NCS_recv`` requests, charges the kernel→user copy, and wakes the
  requester.

A system thread with nothing to do *parks* (``ctx.park()``); whoever
gives it work — ``_enqueue_send``, a posted receive,
:meth:`NcsMps.deliver_data` — makes it runnable on the spot
(``MtsScheduler.signal``): the paper's "activate" moves a descriptor
from the blocked to the runnable queue of one address space, and costs
no calendar entry here either.  A thread blocked in an op (``NCS_send``,
``NCS_recv``, a barrier) waits on a wake handle its op handler queued
and the completion path wakes.

Optional **flow-control** and **error-control** threads (Fig 5/Fig 8)
are installed when the chosen strategies need background work.

Control traffic (barrier arrive/release, window credits, error-control
ACKs, remote exceptions) travels as ``NcsMessage`` s with a non-DATA
``kind`` and is consumed inside MPS — applications only ever see DATA.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from ...net.topology import Cluster
from ...sim import Activity, Mailbox
from ..mts import ops
from ..mts.scheduler import MtsScheduler, SYSTEM_PRIORITY
from ..mts.thread import NcsThread
from .collectives import CollectiveStrategy, HostCollectives
from .error_control import ErrorControl, MessageLost, NoErrorControl
from .exceptions import RecvTimeout, RemoteException
from .flow_control import FlowControl, NoFlowControl
from .message import ANY_THREAD, ControlKind, NcsMessage
from .transports import LOCAL_COPY_ACCESSES, NcsTransport

__all__ = ["NcsMps", "SendRequest", "RecvRequest", "RELIABLE_KINDS"]

#: pid of the barrier coordinator
BARRIER_COORDINATOR = 0
#: nominal wire size of MPS control messages
CONTROL_BYTES = 8

#: ``mps.delivery_latency_s`` histogram bucket bounds — log-ish spacing
#: from adapter-level microseconds up to WAN/retransmission seconds, fine
#: enough for meaningful p50/p99 extraction (repro.obs.kpi)
LATENCY_BUCKETS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                   1e-1, 3e-1, 1.0, 3.0)

#: message kinds the EC thread tracks (acked, deduplicated and
#: retransmitted).  ACK/NACK are excluded: acking acks never converges —
#: a lost ACK is recovered by the duplicate-suppressed retransmission it
#: provokes.
RELIABLE_KINDS = frozenset({
    ControlKind.DATA, ControlKind.BARRIER_ARRIVE,
    ControlKind.BARRIER_RELEASE, ControlKind.CREDIT, ControlKind.THROW,
})


@dataclass
class SendRequest:
    """One queued transmission (application data or MPS control)."""

    msg: NcsMessage
    notify: Optional[Callable[[], None]] = None


@dataclass(eq=False)
class RecvRequest:
    """One posted ``NCS_recv`` and the handle its thread waits on.
    Compared by identity: a thread's next receive may equal this one
    field by field and is still another."""

    thread: NcsThread
    from_thread: int
    from_process: int
    tag: int
    handle: ops.Wake


class NcsMps:
    """The per-process message-passing subsystem."""

    def __init__(self, scheduler: MtsScheduler, cluster: Cluster,
                 transport: NcsTransport,
                 flow_control: Optional[FlowControl] = None,
                 error_control: Optional[ErrorControl] = None,
                 collectives: Optional[CollectiveStrategy] = None):
        self.scheduler = scheduler
        self.cluster = cluster
        self.sim = cluster.sim
        self.pid = scheduler.process.pid
        self.host = scheduler.host
        self.transport = transport
        self.fc = flow_control or NoFlowControl()
        self.ec = error_control or NoErrorControl()
        self.collectives = collectives or HostCollectives()
        scheduler.mps = self
        self.fc.bind(self)
        self.ec.bind(self)
        self.collectives.bind(self)
        # message plumbing
        self.mailbox = Mailbox(self.sim, name=f"ncs:{self.pid}")
        self.send_q: Deque[SendRequest] = deque()
        self.recv_reqs: list[RecvRequest] = []
        self._send_inflight = 0
        self._msg_seq = 0
        #: injected arrival filter (repro.faults): ``fn(msg) -> True``
        #: discards an inter-process message as if the network lost it
        self.rx_fault: Optional[Callable[[NcsMessage], bool]] = None
        #: per-node failure detector (repro.resilience); installed by
        #: ``ClusterResilience.attach`` when a ResilienceSpec enables it
        self.resilience: Optional[Any] = None
        #: exceptions (remote throws, lost-message reports) waiting for a
        #: thread's next recv
        self._poison: dict[int, BaseException] = {}
        # barrier service state (only used on the coordinator)
        self.barrier_parties: dict[int, int] = {}
        self._barrier_arrived: dict[int, list[tuple[int, int]]] = {}
        #: tid -> the handle a thread waiting for a barrier release
        #: blocks on
        self._barrier_blocked: dict[int, ops.Wake] = {}
        #: messages error control gave up on
        self.lost_messages: list[NcsMessage] = []
        # telemetry handles (no-ops when the registry is disabled)
        _m = self.sim.metrics
        self._m_sent = _m.counter(
            "mps.data_sent", help="DATA messages queued by NCS_send/bcast",
            pid=self.pid)
        self._m_received = _m.counter(
            "mps.data_received", help="DATA messages delivered to NCS_recv",
            pid=self.pid)
        self._m_faulted = _m.counter(
            "mps.messages_faulted",
            help="arrivals discarded by injected network loss", pid=self.pid)
        self._m_lost = _m.counter(
            "mps.messages_lost",
            help="messages error control permanently gave up on",
            pid=self.pid)
        self._m_bytes = _m.histogram(
            "mps.message_bytes", help="DATA message size distribution",
            buckets=(64, 1024, 8 * 1024, 64 * 1024, 1024 * 1024),
            pid=self.pid)
        self._m_latency = _m.histogram(
            "mps.delivery_latency_s",
            help="NCS_send issue to NCS_recv delivery, simulated seconds",
            buckets=LATENCY_BUCKETS, pid=self.pid)
        # wire up
        transport.set_delivery_handler(self._on_arrival)
        scheduler.op_handlers.update({
            ops.Send: self._handle_send, ops.Recv: self._handle_recv,
            ops.Probe: self._handle_probe, ops.Bcast: self._handle_bcast,
            ops.Throw: self._handle_throw,
            ops.Barrier: self.collectives.handle_barrier,
            ops.CollectiveBcast: self.collectives.handle_bcast,
            ops.CollectiveReduce: self.collectives.handle_reduce})
        self._send_thread = self._system_thread(self._send_body, "sys-send")
        self._recv_thread = self._system_thread(self._recv_body, "sys-recv")
        for strategy, name in ((self.fc, "sys-fc"), (self.ec, "sys-ec")):
            body = strategy.thread_body(None, self)
            if body is not None:
                strategy.thread = self._system_thread(body, name)

    def _system_thread(self, body: Callable, name: str) -> NcsThread:
        scheduler = self.scheduler
        return scheduler.threads[scheduler.t_create(
            body, (), SYSTEM_PRIORITY, name=name, is_system=True)]

    @property
    def has_pending_work(self) -> bool:
        """True while the send machinery still owes work — the scheduler
        must not shut down mid-transmission (e.g. a barrier release or
        credit queued just as the last user thread finished) or while
        error control still holds unacknowledged messages."""
        return (bool(self.send_q) or self._send_inflight > 0
                or self.ec.has_pending())

    # ------------------------------------------------------------ op handling
    def _next_uid(self) -> tuple[int, int]:
        self._msg_seq += 1
        return (self.pid, self._msg_seq)

    def _queue_data(self, thread: NcsThread, to_thread: int, to_process: int,
                    op: Any, notify: Callable[[], None],
                    deadline: Optional[float] = None) -> None:
        """Count one DATA message of a Send/Bcast op and queue it."""
        self._m_sent.inc()
        self._m_bytes.observe(op.size)
        self._enqueue_send(SendRequest(NcsMessage(
            from_thread=thread.tid, from_process=self.pid,
            to_thread=to_thread, to_process=to_process,
            data=op.data, size=op.size, tag=op.tag, msg_uid=self._next_uid(),
            deadline=deadline, sent_at=self.sim.now), notify))

    def _handle_send(self, thread: NcsThread, op: ops.Send) -> bool:
        if not (0 <= op.to_process < self.cluster.n_hosts):
            raise ValueError(f"NCS_send: no such process {op.to_process}")
        handle = ops.Wake("ncs-send", Activity.COMMUNICATE)
        self._queue_data(thread, op.to_thread, op.to_process, op,
                         handle.wake, op.deadline)
        return self.scheduler.block(thread, handle)

    def _handle_bcast(self, thread: NcsThread, op: ops.Bcast) -> bool:
        targets = list(op.targets)
        if op.dedup_processes:
            targets = [(ANY_THREAD, tpid) for tpid in dict.fromkeys(
                tpid for _ttid, tpid in targets)]
        # the whole list before the first message: a rejected broadcast
        # must not have reached the targets listed ahead of the bad one
        for _ttid, tpid in targets:
            if not (0 <= tpid < self.cluster.n_hosts):
                raise ValueError(f"NCS_bcast: no such process {tpid}")
        if not targets:
            thread.resume_value = None
            return False
        remaining = {"n": len(targets)}
        handle = ops.Wake("ncs-send", Activity.COMMUNICATE)

        def one_done():
            remaining["n"] -= 1
            if remaining["n"] == 0:
                handle.wake()

        for ttid, tpid in targets:
            self._queue_data(thread, ttid, tpid, op, one_done)
        return self.scheduler.block(thread, handle)

    def _handle_recv(self, thread: NcsThread, op: ops.Recv) -> bool:
        poison = self._poison.pop(thread.tid, None)
        if poison is not None:
            thread.resume_exc = poison
            return False
        req = RecvRequest(thread, op.from_thread, op.from_process, op.tag,
                          ops.Wake("ncs-recv", Activity.COMMUNICATE))
        self.recv_reqs.append(req)
        self.scheduler.block(thread, req.handle)
        self.scheduler.signal(self._recv_thread)
        if op.timeout is not None:
            self.sim.call_in(op.timeout, self._expire_recv, req, op.timeout)
        return True

    def _expire_recv(self, req: RecvRequest, seconds: float) -> None:
        if req in self.recv_reqs:
            self.recv_reqs.remove(req)
            req.handle.wake(exc=RecvTimeout(seconds))

    def _handle_probe(self, thread: NcsThread, op: ops.Probe) -> bool:
        thread.resume_value = self.mailbox.poll(
            lambda m: m.matches(op.from_thread, op.from_process,
                                thread.tid, self.pid, op.tag))
        return False

    def _handle_barrier(self, thread: NcsThread, op: ops.Barrier) -> bool:
        parties = self.barrier_parties.get(op.barrier_id, op.parties)
        if parties < 1:
            raise ValueError(
                f"barrier {op.barrier_id} has no registered parties; "
                "use NcsRuntime.register_barrier or pass parties=")
        handle = self._barrier_blocked[thread.tid] = ops.Wake("ncs-barrier")
        self._enqueue_send(SendRequest(NcsMessage(
            from_thread=thread.tid, from_process=self.pid,
            to_thread=ANY_THREAD, to_process=BARRIER_COORDINATOR,
            data=(op.barrier_id, parties, self.pid, thread.tid),
            size=CONTROL_BYTES, kind=ControlKind.BARRIER_ARRIVE,
            msg_uid=self._next_uid())))
        return self.scheduler.block(thread, handle)

    def _handle_throw(self, thread: NcsThread, op: ops.Throw) -> bool:
        self._enqueue_send(SendRequest(NcsMessage(
            from_thread=thread.tid, from_process=self.pid,
            to_thread=op.to_thread, to_process=op.to_process,
            data=op.exc, size=CONTROL_BYTES, kind=ControlKind.THROW,
            msg_uid=self._next_uid())))
        thread.resume_value = None
        return False

    # -------------------------------------------------------------- sending
    @property
    def _shut_down(self) -> bool:
        """True once this process's scheduler (and with it the send
        system thread) has exited."""
        proc = self.scheduler._proc
        return proc is not None and proc.triggered

    def _enqueue_send(self, req: SendRequest) -> None:
        if self._shut_down:
            # The send thread will never run again, but the transport
            # still works: service the request from the interrupt path.
            # This is what keeps a process acking retransmissions that
            # arrive after its application threads finished — without
            # it, a sender whose ACKs were lost near the end of the run
            # would spuriously declare the message lost.
            msg = req.msg
            if msg.to_process == self.pid:
                self._on_arrival(msg)
            else:
                self.transport.start_send(msg)
                if self.ec.wants_acks and msg.kind in RELIABLE_KINDS:
                    self.ec.on_sent(msg)
            if req.notify is not None:
                req.notify()
            return
        self.send_q.append(req)
        self.scheduler.signal(self._send_thread)

    def send_control_credit(self, dest_pid: int, nbytes: int) -> None:
        """Receive-side window FC: hand a credit back to the sender."""
        self._enqueue_send(SendRequest(NcsMessage(
            from_thread=ANY_THREAD, from_process=self.pid,
            to_thread=ANY_THREAD, to_process=dest_pid,
            data=nbytes, size=CONTROL_BYTES, kind=ControlKind.CREDIT,
            msg_uid=self._next_uid())))

    def on_message_lost(self, msg: NcsMessage) -> None:
        """Error control exhausted its retries: the message is permanently
        lost.  Record it, trace it, and surface :class:`MessageLost` to
        the thread that originated the message — failing its pending
        receive or barrier wait immediately, else poisoning its next
        receive — so applications see a clean exception instead of a
        silent hang.  (``NcsRuntime.run`` additionally re-raises at the
        end of the run; see ``raise_message_lost``.)"""
        self.lost_messages.append(msg)
        self._m_lost.inc()
        self.host.tracer.point(f"ncs:{self.pid}", "message-lost",
                               (msg.kind.value, msg.msg_uid))
        exc = MessageLost(
            f"{msg.kind.value} message {msg.msg_uid} from thread "
            f"{msg.from_thread} on process {self.pid} to process "
            f"{msg.to_process} was lost after retransmission gave up")
        tid = msg.from_thread
        thread = self.scheduler.threads.get(tid)
        if thread is None or not thread.alive or thread.is_system:
            return
        for i, req in enumerate(self.recv_reqs):
            if req.thread.tid == tid:
                del self.recv_reqs[i]
                req.handle.wake(exc=exc)
                return
        if msg.kind is ControlKind.BARRIER_ARRIVE:
            handle = self._barrier_blocked.pop(tid, None)
            if handle is not None:
                handle.wake(exc=exc)
                return
        self._poison.setdefault(tid, exc)

    def _send_body(self, ctx):
        """The send system thread (Fig 8)."""
        while True:
            if not self.send_q:
                yield ctx.park()
                continue
            req = self.send_q.popleft()
            self._send_inflight += 1
            try:
                msg = req.msg
                if (msg.kind is ControlKind.DATA
                        and msg.to_process != self.pid):
                    gate = self.fc.acquire(msg.to_process, msg.size)
                    if gate is not None:
                        yield gate
                if msg.to_process == self.pid:
                    # intra-process: one memcpy, no transport (the FFT's
                    # last exchange step is local for exactly this reason)
                    yield ops.Compute(
                        self.host.cpu.copy_time(msg.size, LOCAL_COPY_ACCESSES),
                        label="ncs:local-copy", activity=Activity.COMMUNICATE)
                    self._on_arrival(msg)
                else:
                    # reason "wait-event": what the trace golden pins
                    accepted = ops.Wake()
                    self.transport.start_send(msg, accepted.wake)
                    yield accepted
                    if self.ec.wants_acks and msg.kind in RELIABLE_KINDS:
                        self.ec.on_sent(msg)
                if req.notify is not None:
                    req.notify()
            finally:
                self._send_inflight -= 1

    # ------------------------------------------------------------- receiving
    def deliver_data(self, msg: NcsMessage) -> None:
        """A DATA message landed here (from a transport or the adapter's
        collective engine): queue it and wake the receive thread."""
        self.mailbox.deliver(msg)
        self.scheduler.signal(self._recv_thread)

    def _on_arrival(self, msg: NcsMessage) -> None:
        """Transport delivery (no CPU charged here; the receive thread
        charges the copy)."""
        if msg.from_process != self.pid:
            if self.rx_fault is not None and self.rx_fault(msg):
                # injected network loss: the message simply never arrives
                # (error control, if armed, will retransmit it)
                self._m_faulted.inc()
                self.host.tracer.point(f"ncs:{self.pid}", "rx-fault",
                                       (msg.kind.value, msg.msg_uid))
                return
            if self.ec.wants_acks and msg.kind in RELIABLE_KINDS:
                # ack + dedup every tracked kind, DATA and control alike —
                # a retransmitted barrier arrival must not count twice
                dup = self.ec.is_duplicate(msg)
                self._enqueue_send(SendRequest(NcsMessage(
                    from_thread=ANY_THREAD, from_process=self.pid,
                    to_thread=ANY_THREAD, to_process=msg.from_process,
                    data=msg.msg_uid, size=CONTROL_BYTES,
                    kind=ControlKind.ACK, msg_uid=self._next_uid())))
                if dup:
                    return
        if msg.kind is not ControlKind.DATA:
            self._handle_control(msg)
            return
        self.deliver_data(msg)

    def _handle_control(self, msg: NcsMessage) -> None:
        kind = msg.kind
        if kind is ControlKind.HEARTBEAT:
            if self.resilience is not None:
                self.resilience.on_heartbeat(msg.from_process, msg.data)
        elif kind is ControlKind.CREDIT:
            self.fc.on_credit(msg.from_process, msg.data)
        elif kind is ControlKind.ACK:
            self.ec.on_ack(msg.data)
        elif kind is ControlKind.NACK:
            self.ec.on_nack(msg.data)
        elif kind is ControlKind.BARRIER_ARRIVE:
            self._coordinate_barrier(msg)
        elif kind is ControlKind.BARRIER_RELEASE:
            barrier_id, tid = msg.data
            handle = self._barrier_blocked.pop(tid, None)
            if handle is not None:
                handle.wake()
        elif kind is ControlKind.THROW:
            self._deliver_throw(msg)
        else:  # pragma: no cover - enum is closed
            raise RuntimeError(f"unknown control kind {kind}")

    def _coordinate_barrier(self, msg: NcsMessage) -> None:
        barrier_id, parties, pid, tid = msg.data
        arrived = self._barrier_arrived.setdefault(barrier_id, [])
        arrived.append((pid, tid))
        if len(arrived) >= parties:
            self._barrier_arrived[barrier_id] = []
            for rpid, rtid in arrived:
                self._enqueue_send(SendRequest(NcsMessage(
                    from_thread=ANY_THREAD, from_process=self.pid,
                    to_thread=rtid, to_process=rpid,
                    data=(barrier_id, rtid), size=CONTROL_BYTES,
                    kind=ControlKind.BARRIER_RELEASE,
                    msg_uid=self._next_uid())))

    def _deliver_throw(self, msg: NcsMessage) -> None:
        exc = RemoteException(msg.from_thread, msg.from_process, msg.data)
        # fail a pending recv of the target thread, else poison the next
        for i, req in enumerate(self.recv_reqs):
            if msg.to_thread in (ANY_THREAD, req.thread.tid):
                del self.recv_reqs[i]
                req.handle.wake(exc=exc)
                return
        if msg.to_thread != ANY_THREAD:
            self._poison[msg.to_thread] = exc

    def _find_match(self) -> Optional[tuple[RecvRequest, NcsMessage]]:
        for req in self.recv_reqs:
            msg = self.mailbox.take(
                lambda m, r=req: m.matches(r.from_thread, r.from_process,
                                           r.thread.tid, self.pid, r.tag))
            if msg is not None:
                return req, msg
        return None

    def _recv_body(self, ctx):
        """The receive system thread (Fig 8)."""
        while True:
            match = self._find_match()
            if match is None:
                yield ctx.park()
                continue
            req, msg = match
            self.recv_reqs.remove(req)
            if msg.from_process == self.pid:
                cost = self.host.cpu.copy_time(msg.size, LOCAL_COPY_ACCESSES)
            else:
                cost = self.transport.recv_cost_for(msg)
            yield ops.Compute(cost, label="ncs:recv-copy",
                              activity=Activity.COMMUNICATE)
            if self.fc.wants_credits and msg.from_process != self.pid:
                self.fc.on_data_delivered(msg)
            self._m_received.inc()
            if msg.sent_at is not None:
                self._m_latency.observe(self.sim.now - msg.sent_at)
            req.handle.wake(msg)

    # --------------------------------------------------------------- cleanup
    def on_thread_exit(self, thread: NcsThread) -> None:
        """Scheduler callback when any thread finishes."""
        self._poison.pop(thread.tid, None)
        self.recv_reqs = [r for r in self.recv_reqs if r.thread is not thread]
