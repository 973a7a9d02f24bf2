"""The hsm-failover transport: trip to NSM, recover to HSM."""

from repro import NcsRuntime
from repro.faults import FaultInjector, FaultPlan, LinkOutage
from repro.net.topology import build_atm_dual_cluster
from repro.resilience import BreakerState, ClusterResilience

from ..counts import count

FAST_EC = {"timeout_s": 0.01, "max_retries": 6, "check_interval_s": 0.002}
FAST_RES = dict(heartbeat_interval_s=0.02, suspect_after_s=0.06,
                dead_after_s=0.15, failure_threshold=3,
                reset_timeout_s=0.1, probe_successes=2)


def make_runtime(n_hosts=3, events=(), seed=5):
    cluster = build_atm_dual_cluster(n_hosts, seed=seed, trace=True)
    res = ClusterResilience(**FAST_RES)
    rt = NcsRuntime(cluster, mode="hsm-failover", error="ack",
                    error_kwargs=FAST_EC, resilience=res)
    if events:
        FaultInjector(cluster, FaultPlan(list(events)), runtime=rt).arm()
    return cluster, rt, res


def add_chatter(rt, n_hosts, rounds, interval=0.005, size=2048, to=0):
    """Every non-zero host streams ``rounds`` paced messages to host 0."""
    got = []

    def sink(ctx):
        for _ in range(rounds * (n_hosts - 1)):
            msg = yield ctx.recv(tag=9)
            got.append((msg.from_process, msg.data))

    def source(ctx, pid):
        for i in range(rounds):
            yield ctx.send(-1, to, (pid, i), size, tag=9)
            yield ctx.sleep(interval)

    rt.t_create(0, sink, name="sink")
    for pid in range(1, n_hosts):
        rt.t_create(pid, source, (pid,), name=f"src{pid}")
    return got


def test_healthy_cluster_stays_on_hsm():
    cluster, rt, res = make_runtime()
    got = add_chatter(rt, 3, rounds=10)
    rt.run()
    assert len(got) == 20
    m = cluster.metrics
    for node in rt.nodes:
        assert count(m, "resilience.failovers", pid=node.pid) == 0
        assert count(m, "resilience.breaker_trips", pid=node.pid) == 0
        assert count(m, "transport.messages_sent", pid=node.pid,
                     transport="socket") == 0


def test_atm_outage_trips_breaker_and_recovers():
    outage = LinkOutage(at=0.02, duration=0.1, host=1, scope="atm")
    cluster, rt, res = make_runtime(events=[outage])
    got = add_chatter(rt, 3, rounds=50)
    rt.run()
    assert len(got) == 100                       # nothing lost end-to-end
    m = cluster.metrics                          # pid 1: behind the outage
    assert count(m, "resilience.breaker_trips", pid=1) >= 1
    assert count(m, "resilience.failovers", pid=1) > 0   # NSM took the detour
    assert count(m, "transport.messages_sent", pid=1, transport="socket") > 0
    # probes closed the breaker
    assert count(m, "resilience.breaker_recoveries", pid=1) >= 1
    assert rt.nodes[1].mps.transport.breakers[0].state is BreakerState.CLOSED
    # cluster-wide counters feed the scenario acceptance checks
    assert cluster.metrics.total("resilience.failovers") > 0
    assert cluster.metrics.total("resilience.breaker_trips") >= 1
    assert cluster.metrics.total("resilience.breaker_recoveries") >= 1


def test_degraded_peer_is_never_declared_dead():
    outage = LinkOutage(at=0.02, duration=0.1, host=1, scope="atm")
    cluster, rt, res = make_runtime(events=[outage])
    add_chatter(rt, 3, rounds=50)
    seen = {}
    cluster.sim.call_at(0.2, lambda: seen.update(
        view=res.view(0),
        deaths=count(cluster.metrics, "resilience.deaths", pid=0)))
    rt.run()
    # heartbeats detoured over NSM throughout, so no death, no suspicion
    assert seen["deaths"] == 0
    assert all(s.value == "alive" for s in seen["view"].values())


def test_nsm_losses_do_not_trip_breakers():
    cluster, rt, res = make_runtime()
    tp = rt.nodes[0].mps.transport
    msg_like = type("M", (), {})()
    msg_like.msg_uid = (0, 99)
    msg_like.to_process = 1
    tp._tx_path[(0, 99)] = "nsm"
    tp.on_path_suspect(msg_like)
    assert tp.breakers[1]._failures == 0         # NSM loss carries no blame
