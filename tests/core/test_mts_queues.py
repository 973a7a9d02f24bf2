"""Unit + property tests for the Fig 9 queue data structures: the
runnable queue (one deque per priority level) and the scheduler's
blocked queue (an insertion-ordered dict of tid -> thread)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mts import (
    MtsScheduler, MultilevelPriorityQueue, N_PRIORITY_LEVELS, ThreadState,
)
from repro.hosts import Host, OsProcess
from repro.sim import Simulator


class TestCircularQueue:
    """One level of the runnable queue is Fig 9's circular queue: FIFO,
    and round-robin by taking the head and appending it again."""

    def test_fifo(self):
        q = MultilevelPriorityQueue(1)
        for x in "abc":
            q.enqueue(x, 0)
        assert [q.dequeue() for _ in range(3)] == list("abc")

    def test_len_and_bool(self):
        q = MultilevelPriorityQueue(1)
        assert not q and len(q) == 0
        q.enqueue(1, 0)
        assert q and len(q) == 1

    def test_rotate_round_robin(self):
        q = MultilevelPriorityQueue(1)
        for x in "abc":
            q.enqueue(x, 0)
        q.enqueue(q.dequeue(), 0)
        assert [q.dequeue() for _ in range(3)] == ["b", "c", "a"]

    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=60))
    @settings(max_examples=60)
    def test_matches_reference_deque(self, script):
        from collections import deque
        q, ref = MultilevelPriorityQueue(1), deque()
        counter = 0
        for step in script:
            if step == "push":
                q.enqueue(counter, 0)
                ref.append(counter)
                counter += 1
            else:
                assert q.dequeue() == (ref.popleft() if ref else None)
            assert len(q) == len(ref) and q.level_sizes() == [len(ref)]


class TestMultilevelPriorityQueue:
    def test_sixteen_default_levels(self):
        assert MultilevelPriorityQueue().levels == N_PRIORITY_LEVELS == 16

    def test_higher_priority_first(self):
        q = MultilevelPriorityQueue()
        q.enqueue("low", 8)
        q.enqueue("high", 0)
        q.enqueue("mid", 4)
        assert [q.dequeue() for _ in range(3)] == ["high", "mid", "low"]

    def test_round_robin_within_level(self):
        q = MultilevelPriorityQueue()
        for x in "abc":
            q.enqueue(x, 5)
        out = []
        for _ in range(6):
            item = q.dequeue()
            out.append(item)
            q.enqueue(item, 5)  # re-enqueue, as the scheduler does on yield
        assert out == ["a", "b", "c", "a", "b", "c"]

    def test_dequeue_empty_returns_none(self):
        assert MultilevelPriorityQueue().dequeue() is None

    def test_priority_range_checked(self):
        q = MultilevelPriorityQueue()
        with pytest.raises(ValueError):
            q.enqueue("x", 16)
        with pytest.raises(ValueError):
            q.enqueue("x", -1)
        assert len(q) == 0 and q.dequeue() is None

    @pytest.mark.parametrize("priority", [3.5, 3.0, "3", None, True, False])
    def test_only_an_int_is_a_priority(self, priority):
        q = MultilevelPriorityQueue()
        with pytest.raises(ValueError, match=r"not an int in \[0, 16\)"):
            q.check_priority(priority)
        with pytest.raises(ValueError, match=repr(priority)):
            q.enqueue("x", priority)
        assert len(q) == 0 and sum(q.level_sizes()) == 0

    def test_level_sizes(self):
        q = MultilevelPriorityQueue()
        q.enqueue("a", 0)
        q.enqueue("b", 0)
        q.enqueue("c", 15)
        sizes = q.level_sizes()
        assert sizes[0] == 2 and sizes[15] == 1 and sum(sizes) == 3

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 1000)),
                    max_size=50))
    @settings(max_examples=50)
    def test_dequeue_order_property(self, items):
        """Dequeue must always return an item from the lowest-numbered
        non-empty level, FIFO within that level."""
        q = MultilevelPriorityQueue()
        by_level = {p: [] for p in range(16)}
        for prio, val in items:
            q.enqueue(val, prio)
            by_level[prio].append(val)
        for _ in range(len(items)):
            got = q.dequeue()
            lowest = min(p for p in range(16) if by_level[p])
            assert got == by_level[lowest].pop(0)
        assert q.dequeue() is None

    @given(st.integers(1, 16),
           st.lists(st.one_of(st.integers(0, 15), st.none()), max_size=120))
    @settings(max_examples=80)
    def test_matches_a_list_of_lists_model(self, levels, script):
        """Any interleaving of enqueues (at a random level) and dequeues
        (None in the script) gives what a list per level gives: the
        head of the lowest-numbered non-empty level, FIFO within it;
        ``len`` and ``level_sizes()`` agree after every step."""
        q = MultilevelPriorityQueue(levels)
        model = [[] for _ in range(levels)]
        for seq, step in enumerate(script):
            if step is None:
                want = next((lvl.pop(0) for lvl in model if lvl), None)
                assert q.dequeue() == want
            else:
                level = step % levels
                q.enqueue(seq, level)
                model[level].append(seq)
            assert len(q) == sum(map(len, model))
            assert q.level_sizes() == [len(lvl) for lvl in model]


def blocked_scheduler(n):
    """A scheduler with ``n`` threads blocked in ``NCS_block``; a thread
    finishes when woken with "stop" and blocks again otherwise."""
    sim = Simulator()
    sched = MtsScheduler(OsProcess(Host(sim, "h0"), 0))

    def blocker(ctx):
        while (yield ctx.block()) != "stop":
            pass

    tids = [sched.t_create(blocker) for _ in range(n)]
    sched.start()
    sim.run()
    return sim, sched, tids


class TestBlockedQueue:
    """The scheduler's blocked queue: tid -> thread, oldest block first."""

    def test_add_remove(self):
        sim, sched, (t1, t2) = blocked_scheduler(2)
        assert t1 in sched.blocked and len(sched.blocked) == 2
        sched.unblock(t1, "stop")
        assert t1 not in sched.blocked and t2 in sched.blocked
        sim.run()
        assert sched.thread(t1).state is ThreadState.FINISHED
        assert list(sched.blocked) == [t2]

    def test_items_in_insertion_order(self):
        sim, sched, tids = blocked_scheduler(3)
        assert list(sched.blocked.values()) == [
            sched.thread(t) for t in tids]
        sched.unblock(tids[0])
        sim.run()
        assert list(sched.blocked) == tids[1:] + tids[:1]

    @given(st.lists(st.tuples(st.integers(0, 7), st.booleans()),
                    min_size=1, max_size=60),
           st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_blocked_dict_lists_the_oldest_block_first(self, script, n):
        """``n`` threads block on their ``NCS_block`` handle, then the
        script wakes threads in a random order; a woken thread blocks
        again at once, or finishes when told to.  After every step
        ``sched.blocked`` lists exactly the blocked threads, in the order
        in which they last blocked."""
        sim, sched, tids = blocked_scheduler(n)
        model = list(tids)          # oldest block first
        assert list(sched.blocked) == model
        for step, reblock in script:
            tid = tids[step % n]
            if tid not in model:    # finished: NCS_unblock is a no-op
                sched.unblock(tid)
                continue
            sched.unblock(tid, None if reblock else "stop")
            model.remove(tid)
            assert tid not in sched.blocked
            assert sched.thread(tid).state is ThreadState.RUNNABLE
            sim.run()               # it runs, then re-blocks or finishes
            if reblock:
                model.append(tid)   # ... as the newest block
            else:
                assert sched.thread(tid).state is ThreadState.FINISHED
            assert list(sched.blocked) == model
            assert len(sched.blocked) == len(model)
            assert all(sched.blocked[t] is sched.thread(t) for t in model)
            assert all(t.state is ThreadState.BLOCKED
                       for t in sched.blocked.values())
