"""NCS_MTS: the multithreaded subsystem (threads, queues, scheduler, sync)."""

from . import ops
from .queues import MultilevelPriorityQueue, N_PRIORITY_LEVELS
from .scheduler import DEFAULT_PRIORITY, MtsScheduler, SchedulerError, SYSTEM_PRIORITY
from .thread import NcsThread, ThreadContext, ThreadState

__all__ = [
    "ops",
    "MultilevelPriorityQueue", "N_PRIORITY_LEVELS",
    "MtsScheduler", "SchedulerError", "SYSTEM_PRIORITY", "DEFAULT_PRIORITY",
    "NcsThread", "ThreadContext", "ThreadState",
]
