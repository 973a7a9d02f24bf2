"""NCS threads and their lifecycle (paper §4.1).

"In NCS MTS a thread can be in one of three states: blocked, runnable or
running."  We add NEW (created, not yet started) and FINISHED/FAILED for
bookkeeping.  System threads (send, receive, flow control, error
control) and user threads share this class; ``is_system`` only controls
default priority and diagnostic labelling.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional

from . import ops

__all__ = ["ThreadState", "NcsThread", "ThreadContext"]

# Argument-less ops are frozen dataclasses, so a single shared instance
# serves every thread — yielding one is hot-path (every context switch).
_YIELD_CPU = ops.YieldCpu()


class ThreadState(enum.Enum):
    """Where a thread is in its lifecycle."""

    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"
    FAILED = "failed"


class NcsThread:
    """One user-level thread inside an OS process."""

    def __init__(self, tid: int, fn: Callable[..., Generator],
                 args: tuple, priority: int, ctx: "ThreadContext",
                 name: str = "", is_system: bool = False):
        self.tid = tid
        self.priority = priority
        self.name = name or f"t{tid}"
        self.is_system = is_system
        self.ctx = ctx
        self.state = ThreadState.NEW
        self.gen: Generator = fn(ctx, *args)
        if not hasattr(self.gen, "send"):
            raise TypeError(
                f"thread body {fn!r} must be a generator function")
        #: value to feed into the generator on next resume
        self.resume_value: Any = None
        #: exception to throw into the generator on next resume
        self.resume_exc: Optional[BaseException] = None
        #: generator return value once FINISHED
        self.result: Any = None
        #: exception that killed the thread once FAILED
        self.error: Optional[BaseException] = None
        #: handles of the threads waiting in ``join`` on this one
        self.joiners: list[ops.Wake] = []
        #: why the thread is blocked (diagnostics)
        self.block_reason: str = ""
        #: ``NCS_block`` / ``NCS_unblock``: an unblock that comes first
        #: is kept, so the next block returns at once
        self.blocker = ops.Wake("explicit")
        #: ``park`` / ``MtsScheduler.signal``: a signal to a thread that
        #: is not parked is dropped (the traces' reason for the wait a
        #: signal event used to be)
        self.parker = ops.Wake("wait-event", keep=False)

    @property
    def alive(self) -> bool:
        """Not FINISHED or FAILED yet."""
        return self.state not in (ThreadState.FINISHED, ThreadState.FAILED)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<NcsThread {self.name} tid={self.tid} "
                f"prio={self.priority} {self.state.value}>")


class ThreadContext:
    """What a thread body sees as its first argument.

    Carries identity (``my_tid``, ``my_pid``) and convenience
    constructors for ops, so application code reads like the paper's
    pseudo-code::

        def compute_matrix1(ctx, ...):
            msg = yield ctx.recv(from_thread=THREAD1, from_process=HOST)
            yield ctx.compute(seconds)
            yield ctx.send(THREAD1, HOST, C, size)
    """

    def __init__(self, tid: int, pid: int, scheduler: Any):
        self.my_tid = tid
        self.my_pid = pid
        self.scheduler = scheduler

    # thin sugar over the op dataclasses --------------------------------
    def compute(self, seconds: float, label: str = "compute"):
        """Op: consume ``seconds`` of CPU."""
        return ops.Compute(seconds, label)

    def send(self, to_thread: int, to_process: int, data: Any, size: int,
             tag: int = 0, deadline=None):
        """Op: ``NCS_send``."""
        return ops.Send(to_thread, to_process, data, size, tag, deadline)

    def recv(self, from_thread: int = -1, from_process: int = -1,
             tag: int = -1, timeout=None):
        """Op: ``NCS_recv``."""
        return ops.Recv(from_thread, from_process, tag, timeout)

    def probe(self, from_thread: int = -1, from_process: int = -1,
              tag: int = -1):
        """Op: is a matching message waiting?"""
        return ops.Probe(from_thread, from_process, tag)

    def bcast(self, targets, data: Any, size: int, tag: int = 0,
              dedup_processes: bool = False):
        """Op: ``NCS_bcast``."""
        return ops.Bcast(tuple(targets), data, size, tag, dedup_processes)

    def barrier(self, barrier_id: int = 0, parties: int = 0):
        """Op: cluster-wide barrier."""
        return ops.Barrier(barrier_id, parties)

    def block(self) -> ops.Wake:
        """``NCS_block()``: the handle ``NCS_unblock`` wakes."""
        return self.scheduler.threads[self.my_tid].blocker

    def park(self) -> ops.Wake:
        """Wait for work: the handle ``MtsScheduler.signal`` wakes."""
        return self.scheduler.threads[self.my_tid].parker

    def unblock(self, tid: int, value: Any = None):
        """Op: ``NCS_unblock(tid)``."""
        return ops.Unblock(tid, value)

    def yield_cpu(self):
        """Op: go to the back of this priority's round-robin."""
        return _YIELD_CPU

    def sleep(self, seconds: float):
        """Op: block for ``seconds`` of simulated time."""
        return ops.Sleep(seconds)

    def join(self, tid: int) -> ops.Wake:
        """A handle woken with thread ``tid``'s return value (or its
        exception) when it finishes — at once if it already has."""
        target = self.scheduler.thread(tid)
        handle = ops.Wake("join")
        if target.alive:
            target.joiners.append(handle)
        else:
            handle.wake(target.result, target.error)
        return handle

    def spawn(self, fn, *args, priority: int = 8, name: str = ""):
        """Op: create a thread; resumes with its tid."""
        return ops.Spawn(fn, args, priority, name)

    def throw(self, to_thread: int, to_process: int, exc: BaseException):
        """Op: raise ``exc`` in a (possibly remote) thread's receive."""
        return ops.Throw(to_thread, to_process, exc)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.scheduler.sim.now
