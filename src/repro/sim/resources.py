"""Shared-resource primitives for the simulation kernel.

Three building blocks used throughout the network and OS models:

* :class:`Resource` — a counted semaphore-like resource (e.g. a host
  CPU, a DMA engine) with FIFO queueing.
* :class:`Store` — an unbounded/bounded FIFO of items with blocking get
  (e.g. an adapter's receive queue, a socket's message queue).
* :class:`Mailbox` — a tag/source-matched message store implementing the
  wildcard matching semantics of ``p4_recv`` and ``NCS_recv``
  (``-1`` matches anything, as in Fig 7 / Fig 17 of the paper).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .kernel import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "Mailbox"]


class Resource:
    """A resource with ``capacity`` concurrent slots and a FIFO wait queue.

    Usage from a process::

        req = resource.request()
        yield req
        ...  # critical section
        resource.release()

    A caller that would consume the grant on the spot asks
    :meth:`try_acquire` first and falls back to :meth:`request` only when
    it has to queue: a free slot is taken without an event.

    ``on_contend`` is called (no arguments) each time a request has to
    queue, after it has joined the wait queue — the hook a holder that
    would otherwise keep the slot for a long time uses to learn that
    somebody is waiting.  A request granted at once never calls it.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "",
                 on_contend: Optional[Callable[[], None]] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.on_contend = on_contend
        self._req_name = f"req:{name}"
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Take a free slot here and now; False when every slot is held
        (then :meth:`request` queues).  Waiters exist only while every
        slot is held — a released slot passes straight to the first of
        them — so this can neither overtake one nor reorder the queue."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def request(self) -> Event:
        """An event that fires once a slot is granted to the caller."""
        ev = self.sim.event(name=self._req_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
            if self.on_contend is not None:
                self.on_contend()
        return ev

    def release(self) -> None:
        """Release one previously granted slot."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(self)  # slot transfers directly to the waiter
        else:
            self._in_use -= 1


class Store:
    """A FIFO of items with blocking ``get`` and optionally bounded ``put``."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when a bounded store is full.  The
        item goes to a parked getter or joins the queue; nothing is
        scheduled for the caller."""
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            return False
        return True

    def put(self, item: Any) -> Event:
        """An event that fires once the item has been accepted — for a
        caller that waits on it; one that would drop it calls
        :meth:`try_put`."""
        ev = self.sim.event(name=self._put_name)
        if self.try_put(item):
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """An event that fires with the next item."""
        ev = self.sim.event(name=self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and (self.capacity is None
                              or len(self._items) < self.capacity):
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed(None)


class Mailbox:
    """Message store with predicate matching and wildcard semantics.

    Receivers register a predicate; the first queued message satisfying it
    completes the receive.  Messages that match no outstanding receive are
    queued in arrival order.  This models both p4's typed receives and
    NCS's ``(from_thread, from_process)`` addressing with ``-1`` wildcards.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._recv_name = f"recv:{name}"
        self._messages: list[Any] = []
        self._receivers: list[tuple[Callable[[Any], bool], Event]] = []

    def __len__(self) -> int:
        return len(self._messages)

    @property
    def pending_messages(self) -> tuple:
        return tuple(self._messages)

    def deliver(self, message: Any) -> None:
        """Called by the transport when a fully reassembled message arrives."""
        for i, (pred, ev) in enumerate(self._receivers):
            if pred(message):
                del self._receivers[i]
                ev.succeed(message)
                return
        self._messages.append(message)

    def receive(self, pred: Callable[[Any], bool]) -> Event:
        """An event that fires with the first message matching ``pred``."""
        for i, msg in enumerate(self._messages):
            if pred(msg):
                del self._messages[i]
                ev = self.sim.event(name=self._recv_name)
                ev.succeed(msg)
                return ev
        ev = self.sim.event(name=self._recv_name)
        self._receivers.append((pred, ev))
        return ev

    def poll(self, pred: Callable[[Any], bool]) -> bool:
        """Non-destructively test whether a matching message is queued
        (the ``p4_messages_available()`` primitive)."""
        return any(pred(m) for m in self._messages)

    def take(self, pred: Callable[[Any], bool]) -> Optional[Any]:
        """Non-blocking destructive get of the first matching message."""
        for i, msg in enumerate(self._messages):
            if pred(msg):
                del self._messages[i]
                return msg
        return None
