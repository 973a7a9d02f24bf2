"""The NCS_MTS scheduler.

One scheduler per OS process.  It is the reproduction of the paper's
QuickThreads-based run-time system (§4.1): user-space threads invisible
to the (simulated) operating system, 16 priority levels with round-robin
inside each level, a blocked queue indexed by tid, and non-preemptive
execution — a thread runs until it blocks, yields, or finishes.

The scheduler itself executes as a single simulated process on the host
CPU, so *at most one thread per process ever runs at a time* and every
compute instant is charged to the one shared CPU.  Overlap between
computation and communication arises exactly the way the paper says it
does: a blocked thread releases the CPU to its siblings while the
network interface (and kernel transport machinery) proceeds in the
background.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ...hosts import OsProcess
from ...sim import Activity, Event, SimProcess
from . import ops
from .queues import MultilevelPriorityQueue, N_PRIORITY_LEVELS
from .thread import NcsThread, ThreadContext, ThreadState

__all__ = ["MtsScheduler", "SchedulerError", "SYSTEM_PRIORITY",
           "DEFAULT_PRIORITY"]

SYSTEM_PRIORITY = 0
DEFAULT_PRIORITY = 8

#: ops an attached MPS executes; their errors surface in the yielding thread
MPS_OPS = (ops.Send, ops.Recv, ops.Probe, ops.Bcast, ops.Barrier, ops.Throw,
           ops.CollectiveBcast, ops.CollectiveReduce)
#: ops whose validation errors are thrown into the yielding thread
THROWN_OPS = MPS_OPS + (ops.Spawn,)


class SchedulerError(RuntimeError):
    """Scheduler misuse: bad tids, double starts, illegal unblocks..."""


class MtsScheduler:
    """User-level thread scheduler for one OS process."""

    def __init__(self, process: OsProcess,
                 levels: int = N_PRIORITY_LEVELS,
                 mps: Optional[Any] = None):
        self.process = process
        self.host = process.host
        self.sim = process.sim
        self.mps = mps  # set later by NcsRuntime when MPS attaches
        self.threads: dict[int, NcsThread] = {}
        self.runnable = MultilevelPriorityQueue(levels)
        #: the blocked queue (Fig 9 right): tid -> thread, oldest first
        self.blocked: dict[int, NcsThread] = {}
        self.current: Optional[NcsThread] = None
        self._last_thread: Optional[NcsThread] = None
        self._tid_seq = 0
        self._started = False
        self._idle_ev: Optional[Event] = None
        self._idle_name = f"idle:{process.name}"
        self._proc: Optional[SimProcess] = None
        #: count of user (non-system) threads not yet FINISHED/FAILED,
        #: kept in t_create/_finish so the per-slice shutdown check is
        #: O(1) instead of a scan over all threads
        self._live_users = 0
        #: exact op type -> ``handler(thread, op)``, True when the thread
        #: left RUNNING.  ``Compute``, the one op that spends simulated
        #: time, maps to None (``_run_slice`` runs it); ``Wake``, the one
        #: op that blocks, to :meth:`block`; an MPS adds its own.
        self.op_handlers: dict[type, Optional[Callable[..., bool]]] = {
            ops.Compute: None, ops.NoOp: self._op_noop,
            ops.YieldCpu: self._op_yield_cpu, ops.Wake: self.block,
            ops.Unblock: self._op_unblock, ops.Spawn: self._op_spawn}
        # telemetry handles (no-ops when the registry is disabled)
        _m = self.sim.metrics
        pid = process.pid
        self._m_switches = _m.counter(
            "mts.context_switches",
            help="thread switches charged by the scheduler", pid=pid)
        self._m_threads = _m.counter(
            "mts.threads_created", help="NCS_t_create calls", pid=pid)
        self._m_slice = _m.histogram(
            "mts.slice_seconds",
            help="distribution of uninterrupted thread slice lengths",
            pid=pid)

    # ------------------------------------------------------------- creation
    def t_create(self, fn: Callable[..., Generator], args: tuple = (),
                 priority: int = DEFAULT_PRIORITY, name: str = "",
                 is_system: bool = False) -> int:
        """``NCS_t_create``: register a thread; it becomes runnable at
        ``NCS_start`` (or immediately, if the scheduler is running)."""
        self.runnable.check_priority(priority)
        self._tid_seq += 1
        tid = self._tid_seq
        ctx = ThreadContext(tid, self.process.pid, self)
        thread = NcsThread(tid, fn, args, priority, ctx, name=name,
                           is_system=is_system)
        self.threads[tid] = thread
        if not is_system:
            self._live_users += 1
        self._m_threads.inc()
        if self._started:
            self._make_runnable(thread, None)
        return tid

    def start(self) -> SimProcess:
        """``NCS_start``: begin scheduling; returns a sim process that
        completes when every *user* thread has finished."""
        if self._started:
            raise SchedulerError("scheduler already started")
        self._started = True
        for thread in self.threads.values():
            if thread.state is ThreadState.NEW:
                thread.state = ThreadState.RUNNABLE
                self.runnable.enqueue(thread, thread.priority)
        self._proc = self.sim.process(
            self._loop(), name=f"mts:{self.process.name}")
        return self._proc

    def thread(self, tid: int) -> NcsThread:
        """The thread with id ``tid``; SchedulerError if there is none."""
        try:
            return self.threads[tid]
        except KeyError:
            raise SchedulerError(f"unknown tid {tid}") from None

    # ------------------------------------------------------------ blocking
    def _entity(self, thread: NcsThread) -> str:
        return f"{self.host.name}/{thread.name}"

    def block(self, thread: NcsThread, handle: ops.Wake) -> bool:
        """Block ``thread`` on ``handle`` until the handle is woken (Fig
        9: runnable -> blocked queue).  A wake the handle kept resumes
        the thread at once instead; True when the thread blocked.

        The handler of every ``Wake`` a thread yields, and how an op
        handler (an MPS send, receive, barrier...) blocks the thread
        whose op it takes.  A handle holds one waiting thread: blocking
        a second on it is a SchedulerError."""
        if handle.kept:
            thread.resume_value, thread.resume_exc = handle.value, handle.exc
            handle.kept, handle.value, handle.exc = False, None, None
            return False
        if handle.waiter is not None:
            raise SchedulerError(
                f"thread {thread.name} cannot block on the "
                f"{handle.reason!r} handle: thread {handle.waiter.name} "
                f"is blocked on it already")
        if handle.after is not None:
            self.sim.call_in(handle.after, handle.wake)
        thread.state = ThreadState.BLOCKED
        thread.block_reason = handle.reason
        self.blocked[thread.tid] = thread
        if self.host.tracer.enabled:
            self.host.tracer.begin(self._entity(thread), handle.activity,
                                   handle.reason)
        handle.waiter = thread
        return True

    def _make_runnable(self, thread: NcsThread, value: Any,
                       exc: Optional[BaseException] = None) -> None:
        self.blocked.pop(thread.tid, None)
        if self.host.tracer.enabled:
            self.host.tracer.end(self._entity(thread))
        thread.state = ThreadState.RUNNABLE
        thread.resume_value = value
        thread.resume_exc = exc
        self.runnable.enqueue(thread, thread.priority)
        idle = self._idle_ev
        if idle is not None:    # the loop waits on it: wake it, once
            self._idle_ev = None
            idle.succeed(None)

    def signal(self, thread: NcsThread) -> None:
        """Wake a thread blocked in ``ctx.park()``, here and now (Fig 8:
        blocked queue -> runnable queue).  Any other thread — not parked
        yet, signalled already, waiting on something else, gone — is left
        alone and no permit is kept: a parking thread checks its queue."""
        thread.parker.wake()

    def unblock(self, tid: int, value: Any = None,
                exc: Optional[BaseException] = None) -> None:
        """``NCS_unblock``: wake a thread blocked in ``NCS_block``.
        Waking a thread that has not blocked yet leaves a permit so the
        next ``NCS_block`` is a no-op — otherwise the Fig 17 host program
        would have a lost-wakeup race."""
        thread = self.thread(tid)
        if not thread.alive:
            return
        if (thread.state is ThreadState.BLOCKED
                and thread.blocker.waiter is None):
            raise SchedulerError(
                f"cannot NCS_unblock thread {tid}: it is blocked in "
                f"{thread.block_reason!r}, not NCS_block()")
        thread.blocker.wake(value, exc)

    # ---------------------------------------------------------------- loop
    def _loop(self) -> Generator[Event, Any, None]:
        """Pick, switch to and run threads until every user thread is
        done and no system work (queued sends, in-flight control
        traffic) is left behind."""
        os = self.host.os
        sim = self.sim
        peek = sim.peek
        recycle = sim.recycle
        dequeue = self.runnable.dequeue
        metrics_on = sim.metrics.enabled
        switch_time = os.thread_switch_time
        while True:
            # Settle same-instant wakeups before picking a thread.  What
            # the slice that just ended gave a sibling is runnable already
            # (``signal``); what completes *outside* the scheduler at this
            # instant — a buffer fill, a landing, a timer — is still up to
            # two zero-delay hops away on the calendar, and a lower-priority
            # compute thread could grab the CPU for a long non-preemptive
            # slice while a system thread's wakeup sat one event away.
            for _ in range(2):
                if peek() <= sim._now:
                    yield 0.0
            thread = dequeue()
            if thread is None:
                if not self._live_users and (
                        self.mps is None or not self.mps.has_pending_work):
                    return
                ev = self._idle_ev = sim.event(name=self._idle_name)
                yield ev        # _make_runnable succeeds and forgets it
                recycle(ev)
                continue
            if self._last_thread is not thread:
                if metrics_on:
                    self._m_switches.inc()
                yield from self.host.cpu_busy(
                    switch_time, Activity.OVERHEAD, "thread-switch")
                self._last_thread = thread
            slice_start = sim._now
            yield from self._run_slice(thread)
            if metrics_on:
                self._m_slice.observe(sim._now - slice_start)
            if not self._live_users and (
                    self.mps is None or not self.mps.has_pending_work):
                return

    def _run_slice(self, thread: NcsThread) -> Generator[Event, Any, None]:
        """Run one thread until it blocks, yields or finishes."""
        thread.state = ThreadState.RUNNING
        self.current = thread
        handlers = self.op_handlers
        try:
            while True:
                try:
                    if thread.resume_exc is not None:
                        exc, thread.resume_exc = thread.resume_exc, None
                        op = thread.gen.throw(exc)
                    else:
                        value, thread.resume_value = thread.resume_value, None
                        op = thread.gen.send(value)
                except StopIteration as si:
                    self._finish(thread, result=si.value)
                    return
                except Exception as exc:  # thread body crashed
                    self._finish(thread, error=exc)
                    return

                try:
                    handler = handlers[type(op)]
                except KeyError:
                    handler = self._resolve(thread, op)
                if handler is None:     # Compute
                    activity = op.activity or Activity.COMPUTE
                    start = self.sim.now
                    yield from self.host.cpu_busy(op.seconds, activity,
                                                  f"{thread.name}:{op.label}")
                    if self.host.tracer.enabled and self.sim.now > start:
                        tl = self.host.tracer.timeline(self._entity(thread))
                        tl.begin(start, activity, op.label)
                        tl.end(self.sim.now)
                    continue
                try:
                    if handler(thread, op):
                        return
                except Exception as exc:
                    if not isinstance(op, THROWN_OPS):
                        raise
                    # op-validation errors surface inside the thread, so the
                    # application can handle (or die of) them like any error
                    thread.resume_exc = exc
        finally:
            self.current = None

    def _resolve(self, thread: NcsThread, op: Any
                 ) -> Optional[Callable[..., bool]]:
        """First op of a type the table does not hold: a subclass takes
        (and keeps) the handler of its nearest base class."""
        handlers = self.op_handlers
        for cls in type(op).__mro__:
            if cls in handlers:
                handlers[type(op)] = handlers[cls]
                return handlers[cls]
        if isinstance(op, MPS_OPS):
            raise SchedulerError(
                "message-passing op used without an MPS "
                "(call ncs_init / attach an NcsMps first)")
        raise SchedulerError(f"thread {thread.name} yielded unknown op {op!r}")

    # one handler per op: True when the thread left the RUNNING state
    def _op_noop(self, thread: NcsThread, op: ops.NoOp) -> bool:
        thread.resume_value = op.value
        return False

    def _op_yield_cpu(self, thread: NcsThread, op: ops.YieldCpu) -> bool:
        thread.state = ThreadState.RUNNABLE
        self.runnable.enqueue(thread, thread.priority)
        return True

    def _op_unblock(self, thread: NcsThread, op: ops.Unblock) -> bool:
        self.unblock(op.tid, op.value)
        return False

    def _op_spawn(self, thread: NcsThread, op: ops.Spawn) -> bool:
        thread.resume_value = self.t_create(op.fn, op.args, op.priority,
                                            op.name)
        return False

    def _finish(self, thread: NcsThread, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        if error is not None:
            thread.state = ThreadState.FAILED
            thread.error = error
        else:
            thread.state = ThreadState.FINISHED
            thread.result = result
        if not thread.is_system:
            self._live_users -= 1
        if self.host.tracer.enabled:
            self.host.tracer.end(self._entity(thread))
        for handle in thread.joiners:
            handle.wake(thread.result, thread.error)
        thread.joiners.clear()
        if self.mps is not None:
            self.mps.on_thread_exit(thread)
