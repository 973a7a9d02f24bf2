"""Thread-level wait/signal (paper §3.1: "barrier, wait, signal") built
on the scheduler's op protocol.

:class:`ThreadEvent`'s ``wait()`` returns an op for the calling thread to
yield; ``signal()`` is synchronous, not yielded::

    yield ready.wait()      # in the waiting thread
    ready.signal()          # in the signalling one

Because NCS threads are non-preemptive (QuickThreads semantics), state
mutations between yields are atomic; the fast path returns :class:`NoOp`
and costs nothing.  A wait is a wake handle
(:class:`~repro.core.mts.ops.Wake`): a signal wakes the handle, which
makes its thread runnable on the spot — no calendar entry.  The
cluster-wide barrier is an MPS op
(:meth:`~repro.core.mts.thread.ThreadContext.barrier`).
"""

from __future__ import annotations

from . import ops

__all__ = ["ThreadEvent"]


class ThreadEvent:
    """A one-shot or resettable flag threads can wait on (wait/signal)."""

    def __init__(self):
        self._set = False
        self._waiters: list[ops.Wake] = []

    @property
    def is_set(self) -> bool:
        """The flag is up."""
        return self._set

    def wait(self) -> ops.Op:
        """Op: block until the flag is set (at once if it is); a fresh
        wake handle, trace reason ``"wait-event"``."""
        if self._set:
            return ops.NoOp()
        handle = ops.Wake()
        self._waiters.append(handle)
        return handle

    def signal(self) -> None:
        """Set the flag and wake every waiter."""
        self._set = True
        waiters, self._waiters = self._waiters, []
        for handle in waiters:
            handle.wake()

    def clear(self) -> None:
        """Lower the flag."""
        self._set = False
