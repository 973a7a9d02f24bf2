"""Seeded chaos sweep: random fault plans across all three service
modes, asserting payload integrity and bit-identical traces.

Same seed + same plan + same workload ⇒ the same simulation, down to
every traced event — the determinism guarantee the whole repro rests
on, now extended to runs with faults injected.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, trace_signature

from ..counts import total
from .util import MODES, add_ring_workload, expected_ring, make_runtime

HOSTS = 3
ROUNDS = 2
PLAN_SEEDS = [101, 202, 303]


def chaos_run(mode, plan_seed):
    """One seeded chaos run: ring exchange + barrier under a random
    transient fault plan.  Returns (received, signature, engagement)."""
    plan = FaultPlan.random(plan_seed, n_hosts=HOSTS, t_max=0.05,
                            n_events=3)
    cluster, rt = make_runtime(HOSTS, mode, seed=1995, trace=True)
    FaultInjector(cluster, plan, runtime=rt).arm()
    received = add_ring_workload(rt, HOSTS, rounds=ROUNDS)
    rt.run()
    m = cluster.metrics
    engagement = (total(m, "mps.messages_faulted")
                  + total(m, "ec.retransmissions")
                  + total(m, "atm.link_bursts_faulted"))
    return received, trace_signature(cluster.tracer), engagement


class TestChaosSweep:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("plan_seed", PLAN_SEEDS)
    def test_payload_integrity_under_random_faults(self, mode, plan_seed):
        received, _, _ = chaos_run(mode, plan_seed)
        assert received == expected_ring(HOSTS, ROUNDS)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_same_seed_same_trace(self, mode):
        _, sig_a, _ = chaos_run(mode, PLAN_SEEDS[0])
        _, sig_b, _ = chaos_run(mode, PLAN_SEEDS[0])
        assert sig_a == sig_b

    def test_different_plans_diverge(self):
        # different fault schedules must actually change the simulation
        _, sig_a, _ = chaos_run(MODES[-1], PLAN_SEEDS[0])
        _, sig_b, _ = chaos_run(MODES[-1], PLAN_SEEDS[1])
        assert sig_a != sig_b

    def test_sweep_is_not_vacuous(self):
        # across the whole sweep, at least one plan really interfered
        total = sum(chaos_run(mode, seed)[2]
                    for mode in MODES for seed in PLAN_SEEDS)
        assert total > 0
