"""The scheduler's runnable queue (paper Fig 9, left).

The paper implements the runnable queue as a *multiple-level priority
queue* — one circular doubly-linked list per priority level, round-robin
within a level — and the blocked queue as a doubly-linked list "to speed
up search operation during unblocking of threads".  What Fig 9 claims
for them is O(1) round-robin per level and O(1) unblock by thread id.

Both claims hold here with builtins.  Each level is one
``collections.deque``, made on the level's first use: CPython's deque
is itself a doubly-linked list (of blocks), so appending at the tail
and taking the head are O(1), and taking the head and appending it
again is the round-robin step.  The
blocked queue is the scheduler's insertion-ordered ``dict`` of tid ->
thread (``MtsScheduler.blocked``): lookup and removal by tid are O(1),
and iteration lists the oldest blocked thread first, as walking the
paper's list from its head does.  Neither structure allocates a node
per operation.

The simulated cost of a thread switch is ``OsCosts.thread_switch_time``,
charged by the scheduler; how fast these structures run on the host
changes no simulated number.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

__all__ = ["MultilevelPriorityQueue", "N_PRIORITY_LEVELS"]

#: "current implementation has N = 16" (paper §4.1)
N_PRIORITY_LEVELS = 16


class MultilevelPriorityQueue:
    """N priority levels, round-robin within each level (Fig 9 left).

    Priority 0 is the highest (system threads — send/receive/FC/EC — run
    there so communication requests are serviced promptly).

    A bitmask of non-empty levels makes :meth:`dequeue` O(1): the lowest
    set bit is the highest-priority occupied level, found with two's
    complement arithmetic instead of scanning all N queues — the same
    "find first set" trick real multilevel schedulers use.
    """

    __slots__ = ("levels", "_queues", "_size", "_occupied")

    def __init__(self, levels: int = N_PRIORITY_LEVELS):
        if levels < 1:
            raise ValueError("need at least one priority level")
        self.levels = levels
        #: a level's deque, made on its first enqueue: an empty deque
        #: takes 760 B (64-bit CPython 3.11), and most schedulers use
        #: two of their 16 levels (system threads 0, user threads 8)
        self._queues: list[Optional[deque[Any]]] = [None] * levels
        self._size = 0
        #: bit i set <=> level i has at least one queued item
        self._occupied = 0

    def __len__(self) -> int:
        return self._size

    def check_priority(self, priority: int) -> int:
        """``priority`` itself; ValueError unless it is an ``int`` (not a
        ``bool``) naming a level in ``[0, levels)``."""
        if (not isinstance(priority, int) or isinstance(priority, bool)
                or not 0 <= priority < self.levels):
            raise ValueError(f"priority {priority!r} is not an int in "
                             f"[0, {self.levels})")
        return priority

    def enqueue(self, item: Any, priority: int) -> None:
        """Append ``item`` at the tail of its level."""
        if priority.__class__ is not int or not 0 <= priority < self.levels:
            self.check_priority(priority)
        q = self._queues[priority]
        if q is None:
            q = self._queues[priority] = deque()
        q.append(item)
        self._occupied |= 1 << priority
        self._size += 1

    def dequeue(self) -> Optional[Any]:
        """Highest-priority, round-robin item; None when empty."""
        occupied = self._occupied
        if not occupied:
            return None
        level = (occupied & -occupied).bit_length() - 1
        q = self._queues[level]
        item = q.popleft()
        if not q:
            self._occupied = occupied ^ (1 << level)
        self._size -= 1
        return item

    def level_sizes(self) -> list[int]:
        """Queued items per level, highest priority first."""
        return [0 if q is None else len(q) for q in self._queues]
