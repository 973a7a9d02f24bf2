"""Operations an NCS thread may yield to the scheduler.

NCS threads are generators.  Each ``yield`` hands the scheduler an *op*
describing what the thread wants: consume CPU, communicate, block,
manage other threads.  This is the moral equivalent of the QuickThreads
context switch: the thread's stack (the generator frame) is suspended
and the scheduler decides what runs next.

There is one way to block: yield a :class:`Wake` handle, the paper's
``NCS_block`` over the blocked queue of Fig 9, and stay blocked until
somebody calls the handle's :meth:`Wake.wake`.  Every wait is a
spelling of it: :class:`Sleep` is a handle the scheduler wakes after a
delay; ``ctx.block()`` / ``NCS_unblock`` and ``ctx.park()`` /
``MtsScheduler.signal`` use the two handles each thread owns;
``ctx.join`` puts a handle in the target's ``joiners``; the message
passing ops, the flow-control gates and the sync primitives queue a
handle and wake it when the wait is over.

The message-passing ops mirror the paper's Fig 7 primitives:
``NCS_send(from_thread, from_process, to_thread, to_process, data, size)``
and friends.  Thread-management ops mirror §4.1
(``NCS_block``/``NCS_unblock``, used in the JPEG host program of Fig 17).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ...sim import Activity, check_size

__all__ = [
    "Op", "NoOp", "Compute", "YieldCpu", "Wake", "Sleep",
    "Unblock", "Spawn",
    "Send", "Recv", "Probe", "Bcast", "Barrier", "Throw",
    "CollectiveBcast", "CollectiveReduce",
]


class Op:
    """Base class for all thread operations.

    Ops are plain ``__slots__`` records, compared and hashed by
    identity; a dataclass's class set-up was most of this module's
    import time.
    """

    __slots__ = ()


class NoOp(Op):
    """Resume immediately (used by sync primitives on the fast path)."""

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value


class Compute(Op):
    """Consume ``seconds`` of CPU.

    ``activity`` labels the time for tracing: application work is
    COMPUTE (the default); system threads charge their copies as
    COMMUNICATE so the Fig 16 utilization breakdown comes out right.
    """

    __slots__ = ("seconds", "label", "activity")

    def __init__(self, seconds: float, label: str = "compute",
                 activity: Any = None):  # Activity enum; None -> COMPUTE
        if not seconds >= 0:  # negative or NaN
            raise ValueError(f"compute time must be >= 0, got {seconds!r}")
        self.seconds, self.label, self.activity = seconds, label, activity


class YieldCpu(Op):
    """Voluntarily return to the back of this priority's round-robin."""

    __slots__ = ()


class Wake(Op):
    """A wake handle: yielding it blocks the thread until :meth:`wake`.

    ``reason`` and ``activity`` name the block in diagnostics and
    traces.  A wake that comes while no thread is blocked on the handle
    is kept when ``keep`` is true — the next block on the handle returns
    at once with its value (a permit) — and dropped otherwise; a wake
    while one is kept is ignored.  ``after``: the scheduler wakes the
    handle itself that many seconds after the block.

    A handle serves one thread at a time and may be blocked on again
    once it has woken it: each thread owns two, ``blocker`` (kept early:
    ``NCS_block``) and ``parker`` (dropped early: how a system thread
    waits for work).
    """

    __slots__ = ("reason", "activity", "keep", "after", "waiter", "kept",
                 "value", "exc")

    def __init__(self, reason: str = "wait-event",
                 activity: Activity = Activity.IDLE, keep: bool = True,
                 after: Optional[float] = None):
        self.reason, self.activity = reason, activity
        self.keep, self.after = keep, after
        #: the thread blocked on this handle, if any
        self.waiter: Any = None
        #: a wake came early and was kept: ``value`` / ``exc`` wait for it
        self.kept = False
        self.value: Any = None
        self.exc: Optional[BaseException] = None

    def wake(self, value: Any = None,
             exc: Optional[BaseException] = None) -> None:
        """Resume the blocked thread with ``value``, or throw ``exc`` in."""
        thread = self.waiter
        if thread is not None:
            self.waiter = None
            thread.ctx.scheduler._make_runnable(thread, value, exc)
        elif self.keep and not self.kept:
            self.kept, self.value, self.exc = True, value, exc


class Sleep(Wake):
    """Block for a fixed simulated duration."""

    __slots__ = ()

    def __init__(self, seconds: float):
        if not seconds >= 0:  # negative or NaN
            raise ValueError(f"sleep time must be >= 0, got {seconds!r}")
        super().__init__("sleep", after=seconds)


class Unblock(Op):
    """``NCS_unblock(tid)``: make a blocked thread runnable.

    ``value`` is delivered as the blocked thread's resume value.
    """

    __slots__ = ("tid", "value")

    def __init__(self, tid: int, value: Any = None):
        self.tid, self.value = tid, value


class Spawn(Op):
    """Create a new thread from inside a thread (resumes with its tid)."""

    __slots__ = ("fn", "args", "priority", "name")

    def __init__(self, fn: Any, args: tuple = (), priority: int = 8,
                 name: str = ""):
        self.fn, self.args, self.priority, self.name = fn, args, priority, name


# --------------------------------------------------------------------------
# message passing (Fig 7)
# --------------------------------------------------------------------------

class Send(Op):
    """``NCS_send``: non-blocking in the paper's sense — blocks only the
    calling thread (until the send system thread has pushed the data into
    the transport), never the process.

    ``deadline``: optional absolute simulated time after which the
    message no longer matters.  Error control stops retransmitting a
    message past its deadline (part of the adaptive error-control
    service class) instead of burning retries on stale data.
    """

    __slots__ = ("to_thread", "to_process", "data", "size", "tag",
                 "deadline")

    def __init__(self, to_thread: int, to_process: int, data: Any,
                 size: int, tag: int = 0, deadline: Optional[float] = None):
        check_size("size", size)
        self.to_thread, self.to_process, self.data = to_thread, to_process, data
        self.size, self.tag, self.deadline = size, tag, deadline


class Recv(Op):
    """``NCS_recv``: blocks the calling thread until a matching message
    arrives; resumes with an :class:`~repro.core.mps.message.NcsMessage`.
    ``-1`` is the wildcard, as in the paper's Fig 17
    (``NCS_recv(-1, -1, THREAD1, HOST, ...)``).

    ``timeout``: optional seconds after which the receive fails with
    :class:`~repro.core.mps.exceptions.RecvTimeout` — part of the
    exception-handling service class (§3.1): distributed applications
    need a way to not hang on a dead peer.
    """

    __slots__ = ("from_thread", "from_process", "tag", "timeout")

    def __init__(self, from_thread: int = -1, from_process: int = -1,
                 tag: int = -1, timeout: Optional[float] = None):
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be >= 0, got {timeout!r}")
        self.from_thread, self.from_process = from_thread, from_process
        self.tag, self.timeout = tag, timeout


class Probe(Op):
    """Non-blocking test for a matching message (resumes immediately
    with True/False) — the NCS analogue of ``p4_messages_available``."""

    __slots__ = ("from_thread", "from_process", "tag")

    def __init__(self, from_thread: int = -1, from_process: int = -1,
                 tag: int = -1):
        self.from_thread, self.from_process, self.tag = \
            from_thread, from_process, tag


class Bcast(Op):
    """``NCS_bcast``: send to a list of (thread, process) identifiers.

    ``dedup_processes`` sends one copy per destination *process* (threads
    share an address space — the matmul optimization the paper calls out:
    "B matrix is sent to a particular node only once").
    """

    __slots__ = ("targets", "data", "size", "tag", "dedup_processes")

    def __init__(self, targets: Sequence[tuple[int, int]], data: Any,
                 size: int, tag: int = 0, dedup_processes: bool = False):
        check_size("size", size)
        self.targets, self.data, self.size = targets, data, size
        self.tag, self.dedup_processes = tag, dedup_processes


class Barrier(Op):
    """Block until every participating thread (cluster-wide) arrives.

    ``parties`` 0: every thread registered with the barrier service."""

    __slots__ = ("barrier_id", "parties")

    def __init__(self, barrier_id: int = 0, parties: int = 0):
        self.barrier_id, self.parties = barrier_id, parties


class CollectiveBcast(Op):
    """Offloaded 1-to-many: hand a broadcast to the process's collective
    strategy (e.g. the NIC engine) instead of per-target ``Send`` s.

    ``targets`` are destination *pids*; delivery matches any thread of
    the destination process (like ``Bcast`` with ``dedup_processes``).
    The caller blocks until the strategy confirms cluster-wide delivery.
    """

    __slots__ = ("targets", "data", "size", "tag")

    def __init__(self, targets: Sequence[int], data: Any, size: int,
                 tag: int = 0):
        check_size("size", size)
        self.targets, self.data, self.size, self.tag = targets, data, size, tag


class CollectiveReduce(Op):
    """Offloaded many-to-1 fold: every member contributes ``data``; the
    ``root`` member's thread resumes with the combined value (folded in
    sorted ``(pid, tid)`` member order), every other member's with None.
    ``root`` is the ``(tid, pid)`` receiving the result, ``op`` the fold
    ``fn(acc, value) -> acc``.
    """

    __slots__ = ("root", "members", "data", "size", "op", "tag")

    def __init__(self, root: tuple, members: Sequence[tuple], data: Any,
                 size: int, op: Any, tag: int = 0):
        self.root, self.members, self.data = root, members, data
        self.size, self.op, self.tag = size, op, tag


class Throw(Op):
    """Exception handling: deliver ``exc`` to a (possibly remote) thread.

    The target's pending or next ``Recv`` fails with
    :class:`~repro.core.mps.exceptions.RemoteException`.
    """

    __slots__ = ("to_thread", "to_process", "exc")

    def __init__(self, to_thread: int, to_process: int, exc: BaseException):
        self.to_thread, self.to_process, self.exc = to_thread, to_process, exc
