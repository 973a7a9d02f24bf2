"""Fig 9 — the scheduler's queue data structures.

The operations the paper designed these structures for, on the
structures the scheduler runs: O(1) round-robin on the multilevel
priority queue, and O(1) unblock by tid on the blocked queue
("implemented blocked queue by doubly linked list to speed up search
operation during unblocking of threads") — a whole block -> wake -> pick
cycle through ``MtsScheduler.block`` and ``Wake.wake`` /
``_make_runnable``.
"""

import random
import time

import pytest

from repro.core.mts import MtsScheduler, MultilevelPriorityQueue
from repro.hosts import Host, OsProcess
from repro.sim import Simulator

CYCLES = 1000


def test_priority_queue_round_robin():
    q = MultilevelPriorityQueue()
    for i in range(256):
        q.enqueue(i, i % 16)
    for _ in range(CYCLES):
        item = q.dequeue()
        q.enqueue(item, item % 16)
    assert len(q) == 256


def blocked_population(size):
    """A scheduler (not started) with ``size`` threads blocked in
    ``NCS_block``, and a block -> wake -> pick cycle on one of them."""
    sched = MtsScheduler(OsProcess(Host(Simulator(), "h0"), 0))

    def body(ctx):
        yield ctx.block()

    threads = [sched.thread(sched.t_create(body)) for _ in range(size)]
    for thread in threads:
        sched.block(thread, thread.blocker)
    dequeue = sched.runnable.dequeue

    def cycle(thread):
        thread.blocker.wake()                 # blocked -> runnable, by tid
        dequeue()                             # the pick
        sched.block(thread, thread.blocker)   # runnable -> blocked, newest

    return sched, threads, cycle


@pytest.mark.parametrize("size", [128, 8192])
def test_block_wake_cycle(size):
    sched, threads, cycle = blocked_population(size)
    rng = random.Random(7)
    for _ in range(CYCLES):
        cycle(rng.choice(threads))
    assert len(sched.blocked) == size and len(sched.runnable) == 0


def test_block_wake_cycle_scales_constant_time():
    """O(1) unblock regardless of population — the property the paper's
    doubly-linked design buys over a scan."""
    per_op = {}
    for size in (128, 8192):
        sched, threads, cycle = blocked_population(size)
        picks = threads[::max(1, size // 128)]
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for thread in picks:
                cycle(thread)
            best = min(best, time.perf_counter() - t0)
        per_op[size] = best / len(picks)
        assert len(sched.blocked) == size
    # 64x the population must not cost anywhere near 64x per op
    assert per_op[8192] < per_op[128] * 8
