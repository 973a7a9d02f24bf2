"""The scheduler's queue data structures (paper Fig 9).

The paper implements the runnable queue as a *multiple-level priority
queue* — one circular doubly-linked list per priority level, round-robin
within a level — and the blocked queue as a doubly-linked list "to speed
up search operation during unblocking of threads".  We reproduce those
structures literally (nodes with prev/next pointers), both because they
are part of the artifact being reproduced and because the Fig 9
micro-benchmark measures their operations.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, Optional, TypeVar

__all__ = ["QueueNode", "CircularQueue", "MultilevelPriorityQueue",
           "BlockedQueue", "N_PRIORITY_LEVELS"]

#: "current implementation has N = 16" (paper §4.1)
N_PRIORITY_LEVELS = 16

T = TypeVar("T")


class QueueNode(Generic[T]):
    """A doubly-linked node; owned by exactly one queue at a time."""

    __slots__ = ("item", "prev", "next", "owner")

    def __init__(self, item: T):
        self.item = item
        self.prev: Optional["QueueNode[T]"] = None
        self.next: Optional["QueueNode[T]"] = None
        self.owner: Optional[object] = None


class CircularQueue(Generic[T]):
    """A circular doubly-linked list with head/tail semantics (Fig 9)."""

    __slots__ = ("_head", "_size", "level")

    def __init__(self) -> None:
        self._head: Optional[QueueNode[T]] = None
        self._size = 0
        #: position in an owning :class:`MultilevelPriorityQueue` (set by
        #: the owner; unused for standalone queues)
        self.level = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def append(self, item: T) -> QueueNode[T]:
        """Insert at the tail; O(1)."""
        node = QueueNode(item)
        node.owner = self
        if self._head is None:
            node.prev = node.next = node
            self._head = node
        else:
            tail = self._head.prev
            assert tail is not None
            node.prev, node.next = tail, self._head
            tail.next = node
            self._head.prev = node
        self._size += 1
        return node

    def popleft(self) -> T:
        """Remove and return the head item; O(1)."""
        if self._head is None:
            raise IndexError("pop from empty queue")
        node = self._head
        self.remove(node)
        return node.item

    def rotate(self) -> None:
        """Advance head to the next node (round-robin step); O(1)."""
        if self._head is not None:
            self._head = self._head.next

    def remove(self, node: QueueNode[T]) -> None:
        """Unlink ``node``; O(1)."""
        if node.owner is not self:
            raise ValueError("node does not belong to this queue")
        if self._size == 1:
            self._head = None
        else:
            assert node.prev is not None and node.next is not None
            node.prev.next = node.next
            node.next.prev = node.prev
            if self._head is node:
                self._head = node.next
        node.prev = node.next = None
        node.owner = None
        self._size -= 1

    def __iter__(self) -> Iterator[T]:
        node = self._head
        for _ in range(self._size):
            assert node is not None
            yield node.item
            node = node.next


class MultilevelPriorityQueue:
    """N priority levels, round-robin within each level (Fig 9 left).

    Priority 0 is the highest (system threads — send/receive/FC/EC — run
    there so communication requests are serviced promptly).

    A bitmask of non-empty levels makes :meth:`dequeue` O(1): the lowest
    set bit is the highest-priority occupied level, found with two's
    complement arithmetic instead of scanning all N queues — the same
    "find first set" trick real multilevel schedulers use.
    """

    def __init__(self, levels: int = N_PRIORITY_LEVELS):
        if levels < 1:
            raise ValueError("need at least one priority level")
        self.levels = levels
        self._queues: list[CircularQueue[Any]] = []
        for i in range(levels):
            q = CircularQueue()
            q.level = i
            self._queues.append(q)
        self._size = 0
        #: bit i set <=> level i has at least one queued item
        self._occupied = 0

    def __len__(self) -> int:
        return self._size

    def check_priority(self, priority: int) -> int:
        """``priority`` itself; ValueError if there is no such level."""
        if not (0 <= priority < self.levels):
            raise ValueError(
                f"priority {priority} out of range [0, {self.levels})")
        return priority

    def enqueue(self, item: Any, priority: int) -> QueueNode[Any]:
        """Append ``item`` at the tail of its level; the node removes it."""
        node = self._queues[self.check_priority(priority)].append(item)
        self._occupied |= 1 << priority
        self._size += 1
        return node

    def dequeue(self) -> Optional[Any]:
        """Highest-priority, round-robin item; None when empty."""
        occupied = self._occupied
        if not occupied:
            return None
        level = (occupied & -occupied).bit_length() - 1
        q = self._queues[level]
        item = q.popleft()
        if not q._size:
            self._occupied = occupied & ~(1 << level)
        self._size -= 1
        return item

    def remove(self, node: QueueNode[Any]) -> None:
        """Unlink ``node`` from whichever level holds it, in O(1)."""
        q = node.owner
        if not isinstance(q, CircularQueue) or self._queues[
                q.level if q.level < self.levels else 0] is not q:
            raise ValueError("node not present in any level")
        q.remove(node)
        if not q._size:
            self._occupied &= ~(1 << q.level)
        self._size -= 1

    def level_sizes(self) -> list[int]:
        """Queued items per level, highest priority first."""
        return [len(q) for q in self._queues]


class BlockedQueue:
    """The blocked-thread list (Fig 9 right): doubly-linked with an index
    for O(1) removal when an event unblocks a thread."""

    def __init__(self) -> None:
        self._queue: CircularQueue[Any] = CircularQueue()
        self._nodes: dict[int, QueueNode[Any]] = {}

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, key: int) -> bool:
        return key in self._nodes

    def add(self, key: int, item: Any) -> None:
        """Append ``item`` under ``key``; ValueError if the key is taken."""
        if key in self._nodes:
            raise ValueError(f"key {key} already blocked")
        self._nodes[key] = self._queue.append(item)

    def remove(self, key: int) -> Any:
        """Unlink and return the item under ``key`` (KeyError if none)."""
        node = self._nodes.pop(key, None)
        if node is None:
            raise KeyError(f"key {key} is not blocked")
        self._queue.remove(node)
        return node.item

    def items(self) -> list[Any]:
        """The blocked items, oldest first."""
        return list(self._queue)
