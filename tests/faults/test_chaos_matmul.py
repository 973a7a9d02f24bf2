"""Acceptance scenarios: a real application (distributed matmul, Fig 14)
under faults — recovery with correct results, or a clean MessageLost."""

import pytest

from repro import MessageLost, NcsRuntime, ServiceMode, build_atm_cluster
from repro.apps.matmul import run_matmul_ncs
from repro.config import (AppSpec, ClusterSpec, FaultSpec, ObsSpec,
                          ScenarioSpec, run_scenario)
from repro.faults import FaultInjector, FaultPlan, LinkOutage, Partition

from ..counts import total
from .util import FAST_EC


class TestTransientOutage:
    def test_hsm_matmul_survives_link_outage(self):
        # one node's TAXI link goes dark during the initial B/A
        # distribution; error control carries the exchange across and
        # the product is still correct — at a makespan cost
        baseline = run_matmul_ncs(
            NcsRuntime(build_atm_cluster(3), mode=ServiceMode.HSM,
                       error="ack"), n=32, threads_per_node=1)
        assert baseline.correct

        cluster = build_atm_cluster(3, trace=True)
        injector = FaultInjector(cluster, FaultPlan(
            (LinkOutage(at=0.002, duration=0.05, host=1),)))
        injector.arm()
        res = run_matmul_ncs(
            NcsRuntime(cluster, mode=ServiceMode.HSM, error="ack"),
            n=32, threads_per_node=1)
        assert res.correct
        assert res.makespan_s > baseline.makespan_s   # retransmission cost
        # the outage was actually felt on the wire
        assert total(cluster.metrics, "atm.link_bursts_faulted") > 0
        assert [edge for _, edge, _ in injector.log] == ["begin", "end"]


class TestPermanentPartition:
    def test_partition_raises_message_lost_not_hang(self):
        # the host is cut off from both nodes forever: the run must fail
        # loudly with MessageLost once retransmission gives up
        plan = FaultPlan((Partition(at=0.001, groups=((0,), (1, 2))),))
        with pytest.raises(MessageLost) as exc:
            run_scenario(ScenarioSpec(
                name="partitioned-matmul",
                cluster=ClusterSpec(topology="atm-lan", n_hosts=3),
                mode="hsm", error="ack", error_kwargs=dict(FAST_EC),
                app=AppSpec("matmul-ncs", {"n": 16, "threads_per_node": 1}),
                faults=FaultSpec.from_plan(plan), obs=ObsSpec(trace=True)))
        # the give-up is on the tracer timeline for post-mortems
        cluster = exc.value.scenario_run.cluster
        assert cluster.tracer.points(kind="message-lost")
