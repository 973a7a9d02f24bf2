"""Thread-level synchronization primitives (paper §3.1: "barrier, wait,
signal") built on the scheduler's op protocol.

Each primitive's methods return an op for the calling thread to yield::

    yield mutex.acquire()
    ...critical section...
    mutex.release()        # note: release is synchronous, not yielded

Because NCS threads are non-preemptive (QuickThreads semantics), state
mutations between yields are atomic; the fast paths return :class:`NoOp`
and cost nothing.  A primitive is a wait queue of wake handles
(:class:`~repro.core.mts.ops.Wake`): a release wakes the handle, which
makes its thread runnable on the spot — no calendar entry.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from . import ops

__all__ = ["ThreadMutex", "ThreadSemaphore", "ThreadCondition",
           "ThreadBarrier", "ThreadEvent"]


def _waiter(waiters) -> ops.Wake:
    """Queue a fresh handle on ``waiters`` and return it to be yielded
    (reason ``"wait-event"``, the trace label of every sync wait)."""
    handle = ops.Wake()
    waiters.append(handle)
    return handle


class ThreadSemaphore:
    """Counting semaphore for threads within one process."""

    def __init__(self, value: int = 1):
        if value < 0:
            raise ValueError("initial value must be non-negative")
        self._count = value
        self._waiters: Deque[ops.Wake] = deque()

    @property
    def value(self) -> int:
        """Permits available now."""
        return self._count

    def acquire(self) -> ops.Op:
        """Op: P().  Fast path when the count is positive."""
        if self._count > 0:
            self._count -= 1
            return ops.NoOp()
        return _waiter(self._waiters)

    def release(self) -> None:
        """V().  Hands the permit directly to the oldest waiter."""
        if self._waiters:
            self._waiters.popleft().wake()
        else:
            self._count += 1


class ThreadMutex(ThreadSemaphore):
    """A binary semaphore with held/owner diagnostics."""

    def __init__(self):
        super().__init__(value=1)

    @property
    def held(self) -> bool:
        """Somebody holds the mutex."""
        return self._count == 0

    def release(self) -> None:
        """Unlock; RuntimeError if nobody holds the mutex."""
        if self._count > 0:
            raise RuntimeError("release of unheld mutex")
        super().release()


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
        """Op: block until the flag is set (at once if it is)."""
        if self._set:
            return ops.NoOp()
        return _waiter(self._waiters)

    def signal(self) -> None:
        """Set the flag and wake every waiter."""
        self._set = True
        waiters, self._waiters = self._waiters, []
        for handle in waiters:
            handle.wake()

    def clear(self) -> None:
        """Lower the flag."""
        self._set = False


class ThreadCondition:
    """Condition variable over a :class:`ThreadMutex`.

    ``wait()`` must be yielded while holding the mutex; it atomically
    releases and re-acquires around the sleep.  Because it needs two
    scheduling points it is a *generator op helper*::

        yield mutex.acquire()
        while not predicate:
            yield from cond.wait()
        ...
        mutex.release()
    """

    def __init__(self, mutex: ThreadMutex):
        self.mutex = mutex
        self._waiters: Deque[ops.Wake] = deque()

    def wait(self):
        """Generator yielding the ops of a full wait cycle."""
        if not self.mutex.held:
            raise RuntimeError("Condition.wait() without holding the mutex")
        handle = _waiter(self._waiters)
        self.mutex.release()
        yield handle
        yield self.mutex.acquire()

    def notify(self, n: int = 1) -> None:
        """Wake the ``n`` oldest waiters."""
        for _ in range(min(n, len(self._waiters))):
            self._waiters.popleft().wake()

    def notify_all(self) -> None:
        """Wake every waiter."""
        self.notify(len(self._waiters))


class ThreadBarrier:
    """Rendezvous for ``parties`` threads within one process."""

    def __init__(self, parties: int):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.parties = parties
        self._arrived = 0
        self._waiters: list[ops.Wake] = []
        self.generation = 0

    def arrive(self) -> ops.Op:
        """Op: block until the ``parties``-th thread arrives."""
        self._arrived += 1
        if self._arrived >= self.parties:
            self._arrived = 0
            self.generation += 1
            waiters, self._waiters = self._waiters, []
            for handle in waiters:
                handle.wake()
            return ops.NoOp()
        return _waiter(self._waiters)
