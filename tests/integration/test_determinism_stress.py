"""Determinism and stress properties of the whole stack.

The simulation must be a pure function of its inputs: identical builds
produce bit-identical makespans and traffic counters.  And randomly
structured communication patterns must always drain (no lost wakeups,
no deadlocks) with every message delivered exactly once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_matmul_ncs
from repro.apps.common import platform_ethernet, platform_nynet
from repro.apps.fft import run_fft_ncs
from repro.core import NcsRuntime
from repro.core.mps import ServiceMode
from repro.net import build_atm_cluster, build_ethernet_cluster

from ..counts import count


class TestDeterminism:
    def test_matmul_bit_identical_across_runs(self):
        a = run_matmul_ncs(NcsRuntime(platform_ethernet(3)), n=64)
        b = run_matmul_ncs(NcsRuntime(platform_ethernet(3)), n=64)
        assert a.makespan_s == b.makespan_s

    def test_fft_bit_identical_across_runs(self):
        a = run_fft_ncs(NcsRuntime(platform_nynet(3)), m=128, n_sets=2)
        b = run_fft_ncs(NcsRuntime(platform_nynet(3)), m=128, n_sets=2)
        assert a.makespan_s == b.makespan_s

    def test_seed_changes_lossy_run(self):
        from repro.atm import LinkSpec
        lossy = LinkSpec("l", 140e6, 5e-6, ber=1e-6)
        def run(seed):
            cluster = build_atm_cluster(2, link_spec=lossy, seed=seed)
            rt = NcsRuntime(cluster, mode=ServiceMode.HSM, error="ack",
                            error_kwargs={"timeout_s": 0.02})
            def sender(ctx, rtid):
                for i in range(10):
                    yield ctx.send(rtid, 1, i, 30_000)
            def receiver(ctx):
                for _ in range(10):
                    yield ctx.recv()
            rtid = rt.t_create(1, receiver)
            rt.t_create(0, sender, (rtid,))
            return rt.run(max_events=5_000_000)
        t1, t2, t1_again = run(1), run(2), run(1)
        assert t1 == t1_again
        assert t1 != t2  # different loss pattern


class TestRandomTrafficProperty:
    @given(st.lists(
        st.tuples(st.integers(0, 2),       # sender pid
                  st.integers(0, 2),       # receiver pid
                  st.integers(1, 9),       # tag
                  st.integers(0, 20_000)), # size
        min_size=1, max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_random_pattern_drains_exactly_once(self, pattern):
        """Arbitrary (sender, receiver, tag, size) multisets complete
        with each receiver getting exactly its expected multiset."""
        pattern = [(s, r, t, z) for s, r, t, z in pattern if s != r]
        if not pattern:
            return
        cluster = build_ethernet_cluster(3)
        rt = NcsRuntime(cluster)
        tids = {}
        expected: dict[int, list] = {0: [], 1: [], 2: []}
        for i, (s, r, t, z) in enumerate(pattern):
            expected[r].append((t, z, i))

        def receiver(ctx, me):
            got = []
            for _ in range(len(expected[me])):
                msg = yield ctx.recv()
                got.append((msg.tag, msg.size, msg.data))
            return sorted(got)

        def sender(ctx, me):
            for i, (s, r, t, z) in enumerate(pattern):
                if s == me:
                    yield ctx.send(tids[f"recv{r}"], r, i, z, tag=t)

        for pid in range(3):
            tids[f"recv{pid}"] = rt.t_create(pid, receiver, (pid,),
                                             name=f"recv{pid}")
        for pid in range(3):
            rt.t_create(pid, sender, (pid,), name=f"send{pid}")
        rt.run(max_events=10_000_000)
        for pid in range(3):
            assert rt.thread_result(pid, tids[f"recv{pid}"]) == \
                sorted(expected[pid])


class TestStress:
    def test_many_threads_many_processes(self):
        """24 user threads over 4 processes, all-pairs traffic, barrier,
        and a collective — completes and counts add up."""
        cluster = build_ethernet_cluster(4)
        rt = NcsRuntime(cluster)
        rt.register_barrier(7, parties=24)
        tids = {}
        per_proc = 6

        def worker(ctx, pid, k):
            yield ctx.compute(0.001 * (k + 1))
            # send to the same-index worker on the next process
            target_pid = (pid + 1) % 4
            yield ctx.send(tids[(target_pid, k)], target_pid,
                           (pid, k), 2048, tag=11)
            msg = yield ctx.recv(tag=11)
            yield ctx.barrier(7)
            return msg.data

        for pid in range(4):
            for k in range(per_proc):
                tids[(pid, k)] = rt.t_create(pid, worker, (pid, k),
                                             name=f"w{pid}-{k}")
        rt.run(max_events=20_000_000)
        for pid in range(4):
            for k in range(per_proc):
                from_pid, from_k = rt.thread_result(pid, tids[(pid, k)])
                assert from_pid == (pid - 1) % 4
                assert from_k == k
        # MPS counters: every process sent per_proc data messages
        for pid in range(4):
            assert count(cluster.metrics, "mps.data_sent", pid=pid) == per_proc
            assert count(cluster.metrics, "mps.data_received",
                         pid=pid) == per_proc
