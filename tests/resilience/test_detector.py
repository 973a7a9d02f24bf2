"""Heartbeat failure detector: suspicion, death, rejoin, quorum."""

import pytest

from repro import NcsRuntime
from repro.faults import FaultInjector, FaultPlan, HostCrash
from repro.net.topology import build_atm_cluster
from repro.resilience import ClusterResilience, HeartbeatDetector, PeerState

from ..counts import count

FAST_EC = {"timeout_s": 0.01, "max_retries": 3, "check_interval_s": 0.002}
FAST_RES = dict(heartbeat_interval_s=0.02, suspect_after_s=0.06,
                dead_after_s=0.15)


def make_runtime(n_hosts, events=(), t_end=0.5, seed=11):
    """Runtime whose user threads just sleep until ``t_end``, keeping
    every scheduler (and its heartbeat thread) alive that long."""
    cluster = build_atm_cluster(n_hosts, seed=seed, trace=True)
    res = ClusterResilience(**FAST_RES)
    rt = NcsRuntime(cluster, mode="hsm", error="ack",
                    error_kwargs=FAST_EC, resilience=res)
    if events:
        FaultInjector(cluster, FaultPlan(list(events)), runtime=rt).arm()

    def idle(ctx):
        yield ctx.sleep(t_end)

    for pid in range(n_hosts):
        rt.t_create(pid, idle, name=f"idle{pid}")
    return cluster, rt, res


def snapshot(cluster, at, fn):
    """Run ``fn`` at sim time ``at`` (deterministic mid-run probe)."""
    cluster.sim.call_at(at, fn)


def test_all_alive_without_faults():
    cluster, rt, res = make_runtime(3, t_end=0.3)
    views = {}
    snapshot(cluster, 0.25,
             lambda: views.update(res.view(0)))
    rt.run()
    assert views == {0: PeerState.ALIVE, 1: PeerState.ALIVE,
                     2: PeerState.ALIVE}
    assert count(cluster.metrics, "resilience.suspicions", pid=0) == 0
    assert count(cluster.metrics, "resilience.deaths", pid=0) == 0
    assert cluster.metrics.total("resilience.heartbeats_sent") > 0


def test_crash_walks_suspect_then_dead_then_rejoins():
    crash = HostCrash(at=0.05, duration=0.2, host=1)
    cluster, rt, res = make_runtime(3, [crash], t_end=0.6)
    det0 = res.detector(0)
    seen = {}
    snapshot(cluster, 0.04, lambda: seen.update(early=det0.state_of(1)))
    snapshot(cluster, 0.13, lambda: seen.update(mid=det0.state_of(1)))
    snapshot(cluster, 0.24, lambda: seen.update(dead=det0.state_of(1)))
    snapshot(cluster, 0.55, lambda: seen.update(healed=det0.state_of(1)))
    rt.run()
    assert seen["early"] is PeerState.ALIVE
    assert seen["mid"] in (PeerState.SUSPECT, PeerState.DEAD)
    assert seen["dead"] is PeerState.DEAD
    assert seen["healed"] is PeerState.ALIVE      # heartbeat resurrected it
    assert count(cluster.metrics, "resilience.deaths", pid=0) >= 1
    assert count(cluster.metrics, "resilience.rejoins", pid=0) >= 1
    assert 1 in det0.ever_dead                    # the record survives rejoin
    assert cluster.metrics.total("resilience.rejoins") >= 1


def test_dead_peer_abandons_ec_entries():
    crash = HostCrash(at=0.05, duration=None, host=1)
    cluster, rt, res = make_runtime(2, [crash], t_end=0.5)

    def talk(ctx):
        yield ctx.sleep(0.06)                     # host 1 is frozen by now
        yield ctx.send(-1, 1, "into the void", 2048, tag=5)
        yield ctx.sleep(0.4)

    rt.t_create(0, talk, name="talk")
    rt.run()                                       # loss forgiven: peer died
    ec0 = rt.nodes[0].mps.ec
    assert ec0.abandoned >= 1
    assert not ec0.has_pending()


def test_quorum_lost_with_majority_dead():
    crash = HostCrash(at=0.05, duration=None, host=1)
    cluster, rt, res = make_runtime(2, [crash], t_end=0.5)
    det0 = res.detector(0)
    seen = {}
    snapshot(cluster, 0.04, lambda: seen.update(before=det0.in_quorum()))
    snapshot(cluster, 0.4, lambda: seen.update(
        after=det0.in_quorum(), alive=det0.alive_count()))
    rt.run()
    assert seen["before"] is True
    assert seen["after"] is False                 # 1 of 2 is not a majority
    assert seen["alive"] == 1


def test_membership_view_is_timestamped_and_sorted():
    cluster, rt, res = make_runtime(3, t_end=0.2)
    got = {}
    snapshot(cluster, 0.15, lambda: got.update(res.detector(1).membership()))
    rt.run()
    assert sorted(got) == [0, 1, 2]
    for state, last_seen in got.values():
        assert state is PeerState.ALIVE
        assert 0.0 <= last_seen <= 0.15


def test_detector_rejects_bad_timing_ladder():
    cluster = build_atm_cluster(2, seed=1)
    res = ClusterResilience(**FAST_RES)
    rt = NcsRuntime(cluster, mode="hsm", resilience=res)
    mps = rt.nodes[0].mps
    with pytest.raises(ValueError):
        HeartbeatDetector(mps, heartbeat_interval_s=0.1,
                          suspect_after_s=0.06, dead_after_s=0.15)
    with pytest.raises(ValueError):
        HeartbeatDetector(mps, heartbeat_interval_s=-1.0,
                          suspect_after_s=0.06, dead_after_s=0.15)
