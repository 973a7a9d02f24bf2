"""Operations an NCS thread may yield to the scheduler.

NCS threads are generators.  Each ``yield`` hands the scheduler an *op*
describing what the thread wants: consume CPU, communicate, block,
manage other threads.  This is the moral equivalent of the QuickThreads
context switch: the thread's stack (the generator frame) is suspended
and the scheduler decides what runs next.

The message-passing ops mirror the paper's Fig 7 primitives:
``NCS_send(from_thread, from_process, to_thread, to_process, data, size)``
and friends.  Thread-management ops mirror §4.1
(``NCS_block``/``NCS_unblock``, used in the JPEG host program of Fig 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ...sim import Event

__all__ = [
    "Op", "NoOp", "Compute", "YieldCpu", "Sleep", "WaitEvent", "WaitCall",
    "Park", "PARK",
    "BlockSelf", "Unblock", "Join", "Spawn",
    "Send", "Recv", "Probe", "Bcast", "Barrier", "Throw",
    "CollectiveBcast", "CollectiveReduce",
]


class Op:
    """Base class for all thread operations."""

    __slots__ = ()


@dataclass(frozen=True)
class NoOp(Op):
    """Resume immediately (used by sync primitives on the fast path)."""

    value: Any = None


@dataclass(frozen=True)
class Compute(Op):
    """Consume ``seconds`` of CPU.

    ``activity`` labels the time for tracing: application work is
    COMPUTE (the default); system threads charge their copies as
    COMMUNICATE so the Fig 16 utilization breakdown comes out right.
    """

    seconds: float
    label: str = "compute"
    activity: Any = None  # Activity enum; None -> COMPUTE

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("compute time must be non-negative")


@dataclass(frozen=True)
class YieldCpu(Op):
    """Voluntarily return to the back of this priority's round-robin."""


@dataclass(frozen=True)
class Sleep(Op):
    """Block for a fixed simulated duration."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("sleep time must be non-negative")


@dataclass(frozen=True)
class WaitEvent(Op):
    """Block until a raw simulation event fires; resumes with its value.

    The escape hatch for waiting on something *outside* the scheduler:
    a flow-control gate, the sync primitives.  Waiting for work from a
    sibling is :class:`Park`, for a transport's call :class:`WaitCall`.
    """

    event: Event


class WaitCall(Op):
    """Block until :meth:`done` is called; ``done(exc)`` throws ``exc`` in.

    The send and EC threads pass ``wait.done`` to ``start_send`` and
    yield ``wait``.  A ``done`` before the block is kept, a second one is
    ignored, and ``MtsScheduler.signal`` does not end the wait.
    """

    __slots__ = ("called", "exc", "wake")

    def __init__(self) -> None:
        self.called, self.exc, self.wake = False, None, None

    def done(self, exc: Optional[BaseException] = None) -> None:
        if not self.called:
            self.called, self.exc = True, exc
            if self.wake is not None:
                self.wake(exc)


@dataclass(frozen=True)
class Park(Op):
    """Block until somebody calls ``MtsScheduler.signal`` on this thread.

    How a system thread waits for work (Fig 8's blocked queue): it finds
    its queue empty and parks; whoever fills the queue signals it.  No
    wake-up is lost (non-preemptive: nothing runs between the look and
    the ``yield``); a signal to a thread that is not parked is dropped.
    """


#: ``Park`` has no arguments: one shared instance serves every thread
PARK = Park()


@dataclass(frozen=True)
class BlockSelf(Op):
    """``NCS_block()``: park this thread until someone unblocks it."""


@dataclass(frozen=True)
class Unblock(Op):
    """``NCS_unblock(tid)``: make a blocked thread runnable.

    ``value`` is delivered as the blocked thread's resume value.
    """

    tid: int
    value: Any = None


@dataclass(frozen=True)
class Join(Op):
    """Block until thread ``tid`` finishes; resumes with its return value."""

    tid: int


@dataclass(frozen=True)
class Spawn(Op):
    """Create a new thread from inside a thread (resumes with its tid)."""

    fn: Any
    args: tuple = ()
    priority: int = 8
    name: str = ""


# --------------------------------------------------------------------------
# message passing (Fig 7)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Send(Op):
    """``NCS_send``: non-blocking in the paper's sense — blocks only the
    calling thread (until the send system thread has pushed the data into
    the transport), never the process.

    ``deadline``: optional absolute simulated time after which the
    message no longer matters.  Error control stops retransmitting a
    message past its deadline (part of the adaptive error-control
    service class) instead of burning retries on stale data.
    """

    to_thread: int
    to_process: int
    data: Any
    size: int
    tag: int = 0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")


@dataclass(frozen=True)
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

    from_thread: int = -1
    from_process: int = -1
    tag: int = -1
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout < 0:
            raise ValueError("timeout must be non-negative")


@dataclass(frozen=True)
class Probe(Op):
    """Non-blocking test for a matching message (resumes immediately
    with True/False) — the NCS analogue of ``p4_messages_available``."""

    from_thread: int = -1
    from_process: int = -1
    tag: int = -1


@dataclass(frozen=True)
class Bcast(Op):
    """``NCS_bcast``: send to a list of (thread, process) identifiers.

    ``dedup_processes`` sends one copy per destination *process* (threads
    share an address space — the matmul optimization the paper calls out:
    "B matrix is sent to a particular node only once").
    """

    targets: Sequence[tuple[int, int]]
    data: Any
    size: int
    tag: int = 0
    dedup_processes: bool = False


@dataclass(frozen=True)
class Barrier(Op):
    """Block until every participating thread (cluster-wide) arrives."""

    barrier_id: int = 0
    parties: int = 0   # 0: every thread registered with the barrier service


@dataclass(frozen=True)
class CollectiveBcast(Op):
    """Offloaded 1-to-many: hand a broadcast to the process's collective
    strategy (e.g. the NIC engine) instead of per-target ``Send`` s.

    ``targets`` are destination *pids*; delivery matches any thread of
    the destination process (like ``Bcast`` with ``dedup_processes``).
    The caller blocks until the strategy confirms cluster-wide delivery.
    """

    targets: Sequence[int]
    data: Any
    size: int
    tag: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")


@dataclass(frozen=True)
class CollectiveReduce(Op):
    """Offloaded many-to-1 fold: every member contributes ``data``; the
    ``root`` member's thread resumes with the combined value (folded in
    sorted ``(pid, tid)`` member order), every other member's with None.
    """

    root: tuple          # (tid, pid) receiving the result
    members: Sequence[tuple]
    data: Any
    size: int
    op: Any              # fold fn(acc, value) -> acc
    tag: int = 0


@dataclass(frozen=True)
class Throw(Op):
    """Exception handling: deliver ``exc`` to a (possibly remote) thread.

    The target's pending or next ``Recv`` fails with
    :class:`~repro.core.mps.exceptions.RemoteException`.
    """

    to_thread: int
    to_process: int
    exc: BaseException
