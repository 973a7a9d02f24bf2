"""Tests for the MPI filter's collectives (gather/scatter/reduce/allreduce)."""

import pytest

from repro.core import NcsRuntime
from repro.core.mps.filters import MpiFilter
from repro.net import build_ethernet_cluster


def run_ranks(n, body, register_barrier=False):
    cluster = build_ethernet_cluster(n)
    rt = NcsRuntime(cluster)
    if register_barrier:
        rt.register_barrier(0, parties=n)
    tids = [rt.t_create(r, body, (n,)) for r in range(n)]
    rt.run(max_events=3_000_000)
    return [rt.thread_result(r, tids[r]) for r in range(n)]


class TestMpiGatherScatter:
    def test_gather_rank_order(self):
        def body(ctx, n):
            mpi = MpiFilter(ctx, n)
            out = yield from mpi.gather(0, f"r{ctx.my_pid}", 64)
            return out
        results = run_ranks(3, body)
        assert results[0] == ["r0", "r1", "r2"]
        assert results[1] is None and results[2] is None

    def test_scatter_rank_indexed(self):
        def body(ctx, n):
            mpi = MpiFilter(ctx, n)
            parts = [f"part{r}" for r in range(n)] if ctx.my_pid == 0 else None
            part = yield from mpi.scatter(0, parts, 64)
            return part
        results = run_ranks(3, body)
        assert results == ["part0", "part1", "part2"]

    def test_scatter_wrong_length_raises(self):
        def body(ctx, n):
            mpi = MpiFilter(ctx, n)
            parts = ["only-one"] if ctx.my_pid == 0 else None
            yield from mpi.scatter(0, parts, 64)
        with pytest.raises(ValueError):
            run_ranks(2, body)

    def test_nonzero_root(self):
        def body(ctx, n):
            mpi = MpiFilter(ctx, n)
            out = yield from mpi.gather(1, ctx.my_pid * 10, 8)
            return out
        results = run_ranks(3, body)
        assert results[1] == [0, 10, 20]
        assert results[0] is None


class TestMpiReduce:
    def test_reduce_sum(self):
        def body(ctx, n):
            mpi = MpiFilter(ctx, n)
            out = yield from mpi.reduce(0, ctx.my_pid + 1, 8,
                                        op=lambda a, b: a + b)
            return out
        results = run_ranks(4, body)
        assert results[0] == 10  # 1+2+3+4
        assert results[1:] == [None, None, None]

    def test_reduce_noncommutative_rank_order(self):
        def body(ctx, n):
            mpi = MpiFilter(ctx, n)
            out = yield from mpi.reduce(0, f"{ctx.my_pid}", 8,
                                        op=lambda a, b: a + b)  # concat
            return out
        results = run_ranks(3, body)
        assert results[0] == "012"

    def test_allreduce_everyone_gets_total(self):
        def body(ctx, n):
            mpi = MpiFilter(ctx, n)
            out = yield from mpi.allreduce(2 ** ctx.my_pid, 8,
                                           op=lambda a, b: a + b)
            return out
        results = run_ranks(3, body)
        assert results == [7, 7, 7]

    def test_collectives_compose_with_barrier(self):
        def body(ctx, n):
            mpi = MpiFilter(ctx, n)
            yield mpi.barrier(barrier_id=0)
            out = yield from mpi.allreduce(1, 8, op=lambda a, b: a + b)
            return out
        results = run_ranks(3, body, register_barrier=True)
        assert results == [3, 3, 3]
