"""End-to-end recovery: crash mid-matmul, link flap mid-broadcast,
healed partition rejoin, and scenario-level determinism."""

from pathlib import Path

from repro import NcsRuntime
from repro.config import load_scenario, run_scenario
from repro.faults import (FaultInjector, FaultPlan, HostCrash, LinkOutage,
                          Partition, trace_signature)
from repro.net.topology import build_atm_cluster, build_atm_dual_cluster
from repro.resilience import ClusterResilience
from repro.apps.resilient import run_resilient_matmul

from ..counts import count

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"

FAST_EC = {"timeout_s": 0.01, "max_retries": 4, "check_interval_s": 0.002}
FAST_RES = dict(heartbeat_interval_s=0.02, suspect_after_s=0.06,
                dead_after_s=0.15, failure_threshold=3,
                reset_timeout_s=0.1, probe_successes=2)


def crash_run(seed=3):
    cluster = build_atm_cluster(4, seed=seed, trace=True)
    rt = NcsRuntime(cluster, mode="hsm", error="adaptive",
                    error_kwargs=FAST_EC,
                    resilience=ClusterResilience(**FAST_RES))
    plan = FaultPlan([HostCrash(at=0.02, duration=None, host=2)])
    FaultInjector(cluster, plan, runtime=rt).arm()
    out = run_resilient_matmul(rt, n=48, units=12, seed=7,
                               compute_s_per_unit=0.01, poll_s=0.05)
    return cluster, out


def test_host_crash_mid_matmul_reassigns_and_stays_correct():
    cluster, out = crash_run()
    assert out["correct"] is True                 # bit-correct A @ B
    assert out["dead_workers"] == 1
    assert out["reassigned_units"] >= 1           # the dead worker's units
    assert out["stalled_out_of_quorum"] == 0      # 3 of 4 is a majority
    assert cluster.metrics.total("resilience.reassigned_units") \
        == out["reassigned_units"]
    assert cluster.metrics.total("resilience.deaths") >= 1


def test_crash_recovery_is_deterministic():
    c1, out1 = crash_run()
    c2, out2 = crash_run()
    assert out1 == out2
    assert trace_signature(c1.tracer) == trace_signature(c2.tracer)


def test_atm_link_flap_during_broadcast():
    """Host 0 broadcasts rounds to every peer across an ATM flap; the
    failover tier carries the window, nobody misses a round."""
    cluster = build_atm_dual_cluster(3, seed=9, trace=True)
    rt = NcsRuntime(cluster, mode="hsm-failover", error="ack",
                    error_kwargs=dict(FAST_EC, max_retries=6),
                    resilience=ClusterResilience(**FAST_RES))
    flap = LinkOutage(at=0.03, duration=0.08, host=1, scope="atm")
    FaultInjector(cluster, FaultPlan([flap]), runtime=rt).arm()
    rounds, peers = 40, [1, 2]
    got = {p: [] for p in peers}

    def root(ctx):
        for i in range(rounds):
            for p in peers:
                yield ctx.send(-1, p, i, 4096, tag=6)
            yield ctx.sleep(0.005)

    def leaf(ctx, pid):
        for _ in range(rounds):
            msg = yield ctx.recv(from_process=0, tag=6)
            got[pid].append(msg.data)

    rt.t_create(0, root, name="root")
    for p in peers:
        rt.t_create(p, leaf, (p,), name=f"leaf{p}")
    rt.run()
    # failover reorders across paths (a retransmit over NSM can overtake
    # later HSM traffic) but every round arrives exactly once
    assert sorted(got[1]) == list(range(rounds))
    assert sorted(got[2]) == list(range(rounds))
    m = cluster.metrics
    # the flap window went NSM, and HSM came back
    assert count(m, "resilience.failovers", pid=0) > 0
    assert count(m, "resilience.breaker_recoveries", pid=0) >= 1
    assert cluster.metrics.total("resilience.deaths") == 0


def test_healed_partition_rejoins_and_completes():
    """Worker 2 is partitioned away long enough to be declared dead and
    its units reassigned; after the heal it rejoins and the duplicate
    results it pushed are suppressed."""
    cluster = build_atm_cluster(3, seed=6, trace=True)
    rt = NcsRuntime(cluster, mode="hsm", error="adaptive",
                    error_kwargs=FAST_EC,
                    resilience=ClusterResilience(**FAST_RES))
    cut = Partition(at=0.02, duration=0.25, groups=((0, 1), (2,)))
    FaultInjector(cluster, FaultPlan([cut]), runtime=rt).arm()
    out = run_resilient_matmul(rt, n=48, units=12, seed=7,
                               compute_s_per_unit=0.04, poll_s=0.05)
    assert out["correct"] is True
    assert out["reassigned_units"] >= 1           # declared dead mid-cut
    assert cluster.metrics.total("resilience.deaths") >= 1
    assert cluster.metrics.total("resilience.rejoins") >= 1


def test_checked_in_scenarios_meet_their_acceptance_bars():
    r = run_scenario(load_scenario(str(SCENARIOS / "crash_reassign.toml")))
    assert r.value["correct"] is True
    assert r.cluster.metrics.total("resilience.reassigned_units") >= 1

    r = run_scenario(load_scenario(str(SCENARIOS / "failover_nsm.toml")))
    assert r.value["correct"] is True
    m = r.cluster.metrics
    assert m.total("resilience.failovers") > 0
    assert m.total("resilience.breaker_recoveries") >= 1
    assert m.total("resilience.deaths") == 0


def test_checked_in_scenarios_are_deterministic():
    for name in ("crash_reassign.toml", "failover_nsm.toml"):
        spec = load_scenario(str(SCENARIOS / name))
        r1 = run_scenario(spec)
        r2 = run_scenario(spec)
        assert r1.value == r2.value
        assert trace_signature(r1.cluster.tracer) \
            == trace_signature(r2.cluster.tracer)
