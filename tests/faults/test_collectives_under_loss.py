"""Collectives (bcast, barrier) must complete under injected message
loss in every service mode when error control is armed."""

import pytest

from repro import ANY_THREAD, ServiceMode
from repro.faults import FaultInjector, FaultPlan, MessageLoss

from ..counts import total
from .util import MODES, make_runtime

N = 4


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestBcastUnderLoss:
    def test_bcast_reaches_everyone(self, mode):
        cluster, rt = make_runtime(N, mode, seed=23)
        FaultInjector(cluster, FaultPlan(
            (MessageLoss(at=0.0, duration=5.0, p=0.3),)), runtime=rt).arm()
        got = {}

        def receiver(ctx, pid):
            m = yield ctx.recv(tag=9)
            got[pid] = m.data
            yield ctx.send(m.from_thread, m.from_process, pid, 256, tag=8)

        def root(ctx):
            targets = [(ANY_THREAD, pid) for pid in range(1, N)]
            yield ctx.bcast(targets, "payload", 4096, tag=9,
                            dedup_processes=True)
            acked = set()
            for _ in range(N - 1):
                m = yield ctx.recv(tag=8)
                acked.add(m.data)
            got["acked"] = acked

        for pid in range(1, N):
            rt.t_create(pid, receiver, (pid,), name=f"rx-{pid}")
        rt.t_create(0, root, name="root")
        rt.run()
        assert all(got[pid] == "payload" for pid in range(1, N))
        assert got["acked"] == set(range(1, N))
        # the loss window really dropped traffic
        assert total(cluster.metrics, "mps.messages_faulted") > 0


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestBarrierUnderLoss:
    def test_barrier_releases_all_parties(self, mode):
        cluster, rt = make_runtime(N, mode, seed=31)
        FaultInjector(cluster, FaultPlan(
            (MessageLoss(at=0.0, duration=5.0, p=0.3),)), runtime=rt).arm()
        rt.register_barrier(0, parties=N)
        after = []

        def party(ctx, pid):
            yield ctx.barrier(0)
            after.append(pid)

        for pid in range(N):
            rt.t_create(pid, party, (pid,), name=f"party-{pid}")
        rt.run()
        assert sorted(after) == list(range(N))

    def test_two_sequential_barriers(self, mode):
        # a retransmitted BARRIER_ARRIVE must not leak into the next
        # round: dedup by msg_uid keeps each arrival counted once
        cluster, rt = make_runtime(3, mode, seed=37)
        FaultInjector(cluster, FaultPlan(
            (MessageLoss(at=0.0, duration=5.0, p=0.25),)), runtime=rt).arm()
        rt.register_barrier(1, parties=3)
        rt.register_barrier(2, parties=3)
        crossings = []

        def party(ctx, pid):
            yield ctx.barrier(1)
            crossings.append((1, pid))
            yield ctx.barrier(2)
            crossings.append((2, pid))

        for pid in range(3):
            rt.t_create(pid, party, (pid,), name=f"party-{pid}")
        rt.run()
        assert sorted(c for c in crossings if c[0] == 1) == [
            (1, 0), (1, 1), (1, 2)]
        assert sorted(c for c in crossings if c[0] == 2) == [
            (2, 0), (2, 1), (2, 2)]
        # every first-round crossing happens before any release of round 2
        assert crossings.index((2, crossings[-1][1])) >= 3
